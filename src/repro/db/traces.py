"""Runtime traces: the transaction dependency information of Algorithm 4.

The normal DBMS records a partial order over transactions while executing
them (``LastWriter -> reader`` and ``LastWriter/LastReader -> writer``
edges).  The transaction wrapper topologically sorts this graph to fix the
serial order the circuit replays (Algorithm 3), and the prover uses it as
interleaving hints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..errors import ConcurrencyError

if TYPE_CHECKING:  # networkx is imported where a graph is built, not at load
    import networkx as nx

__all__ = ["DependencyEdge", "RuntimeTraces"]


@dataclass(frozen=True)
class DependencyEdge:
    """A partial-order constraint: *src* must serialize before *dst*.

    ``kind`` is one of ``"wr"`` (read-after-write), ``"ww"``
    (write-after-write), ``"rw"`` (write-after-read / anti-dependency).
    ``src`` may be ``None`` for "initial state" pseudo-edges, which carry no
    ordering constraint and are dropped from the graph.
    """

    src: int | None
    dst: int
    kind: str
    key: tuple = ()


@dataclass
class RuntimeTraces:
    """Edges plus (for batch CC) the composition of non-conflicting batches."""

    edges: list[DependencyEdge] = field(default_factory=list)
    batches: list[tuple[int, ...]] = field(default_factory=list)

    def add_edge(self, src: int | None, dst: int, kind: str, key: tuple = ()) -> None:
        if src is not None and src != dst:
            self.edges.append(DependencyEdge(src=src, dst=dst, kind=kind, key=key))

    def add_batch(self, txn_ids: Iterable[int]) -> None:
        self.batches.append(tuple(txn_ids))

    def dependency_graph(self, txn_ids: Iterable[int]) -> "nx.DiGraph":
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(txn_ids)
        for edge in self.edges:
            if edge.src is not None and graph.has_node(edge.src) and graph.has_node(edge.dst):
                graph.add_edge(edge.src, edge.dst)
        return graph

    def topological_order(self, txn_ids: Iterable[int]) -> list[int]:
        """A serial order satisfying every recorded dependency.

        Ties are broken by transaction id so the order is deterministic —
        the client must be able to reproduce it (Section 7.1).
        """
        import networkx as nx

        graph = self.dependency_graph(list(txn_ids))
        try:
            return list(nx.lexicographical_topological_sort(graph))
        except nx.NetworkXUnfeasible as exc:
            raise ConcurrencyError(
                "dependency graph is cyclic: execution was not serializable"
            ) from exc

    def is_acyclic(self, txn_ids: Iterable[int]) -> bool:
        import networkx as nx

        return nx.is_directed_acyclic_graph(self.dependency_graph(list(txn_ids)))
