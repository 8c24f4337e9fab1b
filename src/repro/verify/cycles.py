"""Dependency inference and anomaly detection over list-append histories.

From the final list of each key, every appended element gets a version
index.  Dependencies between transactions follow Adya's classification:

- **wr** (read-from): T2 observed a list whose last element T1 appended;
- **ww** (version order): T1's append immediately precedes T2's append;
- **rw** (anti-dependency): T2 appended the element right after the state
  T1 observed.

Serializability holds iff the resulting graph is acyclic; cycles are
classified G0 (write cycles only) or G1c (cycles with read edges), the
anomalies Elle reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ReproError
from .history import History

if TYPE_CHECKING:  # networkx is imported where a graph is built, not at load
    import networkx as nx

__all__ = ["Anomaly", "DependencyAnalysis", "analyze"]


@dataclass(frozen=True)
class Anomaly:
    """One dependency cycle, classified."""

    kind: str  # "G0" (write-only cycle) or "G1c" (cycle with a read edge)
    txn_ids: tuple[int, ...]
    edge_kinds: tuple[str, ...]


@dataclass
class DependencyAnalysis:
    """The inferred graph plus detected anomalies."""

    graph: nx.DiGraph
    anomalies: list[Anomaly] = field(default_factory=list)
    inconsistent_observations: list[str] = field(default_factory=list)

    @property
    def serializable(self) -> bool:
        return not self.anomalies and not self.inconsistent_observations


def _version_order(history: History, key: tuple) -> dict[int, int]:
    """Map element -> version index from the final list of *key*."""
    final = history.final_lists.get(key, ())
    return {element: index for index, element in enumerate(final)}


def analyze(history: History) -> DependencyAnalysis:
    """Infer dependencies and detect serializability anomalies."""
    import networkx as nx

    graph = nx.DiGraph()
    edge_kinds: dict[tuple[int, int], set[str]] = {}
    writer_of: dict[tuple[tuple, int], int] = {}
    inconsistencies: list[str] = []

    for txn in history.txns:
        graph.add_node(txn.txn_id)
        for key, element in txn.appends:
            if (key, element) in writer_of:
                inconsistencies.append(
                    f"element {element} appended to {key!r} twice"
                )
            writer_of[(key, element)] = txn.txn_id

    def add_edge(src: int, dst: int, kind: str) -> None:
        if src == dst:
            return
        graph.add_edge(src, dst)
        edge_kinds.setdefault((src, dst), set()).add(kind)

    # Observation consistency + wr and rw edges.
    for txn in history.txns:
        for observation in txn.observations:
            order = _version_order(history, observation.key)
            final = history.final_lists.get(observation.key, ())
            observed = observation.elements
            if tuple(final[: len(observed)]) != tuple(observed):
                inconsistencies.append(
                    f"txn {txn.txn_id} observed {observed} on {observation.key!r}, "
                    f"which is not a prefix of the final list {final}"
                )
                continue
            if observed:
                last = observed[-1]
                writer = writer_of.get((observation.key, last))
                if writer is not None:
                    add_edge(writer, txn.txn_id, "wr")
            # rw: the appender of the *next* version overwrote what we saw.
            if len(observed) < len(final):
                next_element = final[len(observed)]
                writer = writer_of.get((observation.key, next_element))
                if writer is not None:
                    add_edge(txn.txn_id, writer, "rw")

    # ww edges from consecutive versions.
    for key, final in history.final_lists.items():
        for previous, current in zip(final, final[1:]):
            src = writer_of.get((key, previous))
            dst = writer_of.get((key, current))
            if src is not None and dst is not None:
                add_edge(src, dst, "ww")

    anomalies: list[Anomaly] = []
    for component in nx.strongly_connected_components(graph):
        if len(component) < 2:
            continue
        members = tuple(sorted(component))
        kinds: set[str] = set()
        for src, dst in graph.subgraph(component).edges:
            kinds |= edge_kinds.get((src, dst), set())
        # Adya's hierarchy: G0 = write-order cycle; G1c = cyclic information
        # flow (a read-from edge participates); G2 = the cycle needs an
        # anti-dependency but no read-from edge (serializability-only
        # anomaly, invisible below SERIALIZABLE).
        if kinds <= {"ww"}:
            kind = "G0"
        elif "wr" in kinds:
            kind = "G1c"
        else:
            kind = "G2"
        anomalies.append(
            Anomaly(kind=kind, txn_ids=members, edge_kinds=tuple(sorted(kinds)))
        )
    return DependencyAnalysis(
        graph=graph, anomalies=anomalies, inconsistent_observations=inconsistencies
    )
