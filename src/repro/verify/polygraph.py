"""Cobra-style serializability checking over plain read/write histories.

Elle (Section 8.3) needs list-append semantics to recover version orders.
Cobra (paper ref [55]) works on ordinary key-value histories: when every
written value is unique, each read reveals *which* transaction it read from
(a ``wr`` edge), but the relative order of two writers of the same key is
unknown — producing a **polygraph**: known edges plus constraints of the
form "either A before B, or B after C".

Deciding whether some orientation of the constraints is acyclic is the
classic NP-complete serializability problem [Papadimitriou 1979]; like
Cobra we solve it search-style — unit propagation plus backtracking —
which is fast on the mostly-ordered histories real databases produce.

This gives the repository a second, independent trace-based auditor with a
different trust/interface trade-off than Elle, matching the related-work
landscape the paper evaluates against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..errors import ReproError

if TYPE_CHECKING:  # networkx is imported where a graph is built, not at load
    import networkx as nx

__all__ = ["RWTxn", "RWHistory", "PolygraphResult", "check_serializable"]


@dataclass(frozen=True)
class RWTxn:
    """One transaction's footprint: values read and (unique) values written."""

    txn_id: int
    reads: tuple[tuple[tuple, int], ...]  # (key, value observed)
    writes: tuple[tuple[tuple, int], ...]  # (key, value written)


@dataclass
class RWHistory:
    """A plain read/write history with unique written values.

    ``initial`` holds the pre-history values (reads of these values have no
    writer; they impose "reader before every writer of the key" edges).
    """

    txns: list[RWTxn] = field(default_factory=list)
    initial: dict[tuple, int] = field(default_factory=dict)

    def add(self, txn: RWTxn) -> None:
        self.txns.append(txn)

    @classmethod
    def from_execution(cls, report, txns) -> "RWHistory":
        """Build a history from a committed execution report."""
        history = cls()
        for txn in txns:
            result = report.results.get(txn.txn_id)
            if result is None or not result.committed:
                continue
            history.add(
                RWTxn(
                    txn_id=txn.txn_id,
                    reads=tuple(result.read_set),
                    writes=tuple(result.write_set),
                )
            )
        return history


@dataclass(frozen=True)
class PolygraphResult:
    serializable: bool
    known_edges: int
    constraints: int
    order: tuple[int, ...] = ()  # a witness serial order when serializable
    reason: str = ""


def _build_polygraph(history: RWHistory):
    """Known edges + choice constraints from read-from relationships."""
    import networkx as nx

    writer_of_value: dict[tuple[tuple, int], int] = {}
    writers_of_key: dict[tuple, list[int]] = {}
    for txn in history.txns:
        for key, value in txn.writes:
            if (key, value) in writer_of_value:
                raise ReproError(
                    f"written values must be unique per key: {key!r}={value}"
                )
            writer_of_value[(key, value)] = txn.txn_id
            writers_of_key.setdefault(key, []).append(txn.txn_id)

    graph = nx.DiGraph()
    graph.add_nodes_from(txn.txn_id for txn in history.txns)
    # (a, b, c): either a->b or b->c must hold ("b is not between a and c").
    constraints: list[tuple[int, int, int]] = []

    for txn in history.txns:
        for key, value in txn.reads:
            writer = writer_of_value.get((key, value))
            if writer is None:
                if history.initial.get(key, 0) != value:
                    return graph, constraints, (
                        f"txn {txn.txn_id} read unwritten value {value} on {key!r}"
                    )
                # Read of the initial value: the reader precedes every
                # writer of the key.
                for other in writers_of_key.get(key, []):
                    if other != txn.txn_id:
                        graph.add_edge(txn.txn_id, other)
                continue
            if writer != txn.txn_id:
                graph.add_edge(writer, txn.txn_id)  # wr edge
            # Any other writer w of this key is either before `writer` or
            # after the reader.
            for other in writers_of_key.get(key, []):
                if other in (writer, txn.txn_id):
                    continue
                constraints.append((other, writer, txn.txn_id))
    return graph, constraints, ""


def _search(graph: nx.DiGraph, constraints: list[tuple[int, int, int]], depth: int):
    """Backtracking over unresolved constraints with cycle pruning."""
    import networkx as nx

    if not nx.is_directed_acyclic_graph(graph):
        return None
    # Drop constraints already satisfied; propagate forced choices.
    pending: list[tuple[int, int, int]] = []
    for a, b, c in constraints:
        if graph.has_edge(a, b) or graph.has_edge(c, a):
            continue
        first_possible = not nx.has_path(graph, b, a)  # a->b stays acyclic
        second_possible = not nx.has_path(graph, a, c)  # c->a stays acyclic
        if not first_possible and not second_possible:
            return None
        if first_possible and not second_possible:
            graph.add_edge(a, b)
        elif second_possible and not first_possible:
            graph.add_edge(c, a)
        else:
            pending.append((a, b, c))
    if not pending:
        return list(nx.lexicographical_topological_sort(graph))
    if depth <= 0:
        return None
    a, b, c = pending[0]
    for edge in ((a, b), (c, a)):
        trial = graph.copy()
        trial.add_edge(*edge)
        solution = _search(trial, pending[1:], depth - 1)
        if solution is not None:
            return solution
    return None


def check_serializable(history: RWHistory, max_depth: int = 200) -> PolygraphResult:
    """Decide serializability of *history* (unique-written-values model)."""
    graph, constraints, error = _build_polygraph(history)
    if error:
        return PolygraphResult(
            serializable=False,
            known_edges=graph.number_of_edges(),
            constraints=len(constraints),
            reason=error,
        )
    solution = _search(graph.copy(), constraints, max_depth)
    if solution is None:
        return PolygraphResult(
            serializable=False,
            known_edges=graph.number_of_edges(),
            constraints=len(constraints),
            reason="no acyclic orientation of the polygraph exists",
        )
    return PolygraphResult(
        serializable=True,
        known_edges=graph.number_of_edges(),
        constraints=len(constraints),
        order=tuple(solution),
    )
