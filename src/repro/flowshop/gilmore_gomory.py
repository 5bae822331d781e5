"""Gilmore–Gomory sequencing for the no-wait two-machine flowshop.

The paper (Section 4.4) borrows the classical Gilmore–Gomory procedure for
"sequencing a one state-variable machine" to build a static task order: each
task is a job whose start state is its communication time and whose end state
is its computation time; the cost of scheduling task ``k`` right after task
``j`` is the non-overlapped communication time ``max(comm_k - comp_j, 0)``.
Minimising the total cost over a single tour is exactly the no-wait 2-machine
flowshop makespan problem, which Gilmore and Gomory solve in polynomial time.

The implementation follows the classical three phases:

1. **Assignment** — sort the ``comp`` values (machine-2 / end states) and the
   ``comm`` values (machine-1 / start states) and match them rank by rank.
   This minimises the total transition cost over *all* successor assignments,
   but generally yields several sub-tours.
2. **Patching** — merge sub-tours with adjacent interchanges (in end-state
   order).  Interchanges are selected Kruskal-style by increasing marginal
   cost until a single tour remains.
3. **Reconstruction** — apply the selected interchanges to the successor map
   in the classical order: the interchanges are split into two groups, the
   first applied by decreasing index and the second by increasing index.  The
   realised tour costs exactly assignment + patching.

A dummy job with zero times closes the tour, so the returned object is an open
sequence starting right after the dummy — i.e. a task order usable by the
static-order executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.task import Task
from .nowait import nowait_makespan

__all__ = ["gilmore_gomory_order", "GilmoreGomoryResult"]


_DUMMY_NAME = "__gg_dummy__"


@dataclass(frozen=True)
class GilmoreGomoryResult:
    """Outcome of the Gilmore–Gomory sequencing."""

    order: tuple[Task, ...]
    makespan: float
    assignment_cost: float
    patching_cost: float

    @property
    def lower_bound(self) -> float:
        """Assignment + patching cost plus total computation time.

        The classical application order realises this value, so it equals
        ``makespan`` up to floating-point rounding.
        """
        return self.assignment_cost + self.patching_cost + sum(t.comp for t in self.order)


class _DisjointSet:
    """Union-find over sub-tour identifiers (used by the Kruskal patching)."""

    def __init__(self, size: int):
        self._parent = list(range(size))

    def find(self, x: int) -> int:
        while self._parent[x] != x:
            self._parent[x] = self._parent[self._parent[x]]
            x = self._parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[rb] = ra
        return True


def _transition(end_state: float, start_state: float) -> float:
    """Cost of moving the machine from ``end_state`` to ``start_state``."""
    return max(start_state - end_state, 0.0)


def _cycles_of(successor: Sequence[int]) -> list[list[int]]:
    seen = [False] * len(successor)
    cycles = []
    for start in range(len(successor)):
        if seen[start]:
            continue
        cycle = []
        node = start
        while not seen[node]:
            seen[node] = True
            cycle.append(node)
            node = successor[node]
        cycles.append(cycle)
    return cycles


def _tour_from_successors(successor: Sequence[int], start: int) -> list[int]:
    tour = []
    node = successor[start]
    while node != start:
        tour.append(node)
        node = successor[node]
    return tour


def _apply_interchanges(successor: list[int], positions: Sequence[int], order: Sequence[int]) -> list[int]:
    """Swap the successors of ``p`` and ``p+1`` for each selected position."""
    result = list(successor)
    for p in order:
        result[positions[p]], result[positions[p + 1]] = (
            result[positions[p + 1]],
            result[positions[p]],
        )
    return result


def gilmore_gomory_order(tasks: Iterable[Task]) -> GilmoreGomoryResult:
    """Sequence ``tasks`` with the Gilmore–Gomory procedure.

    Returns the order together with its no-wait makespan and the cost split
    between the assignment and the patching phases.
    """
    tasks = list(tasks)
    if not tasks:
        return GilmoreGomoryResult(order=(), makespan=0.0, assignment_cost=0.0, patching_cost=0.0)
    if len(tasks) == 1:
        only = tasks[0]
        return GilmoreGomoryResult(
            order=(only,),
            makespan=nowait_makespan([only]),
            assignment_cost=only.comm,
            patching_cost=0.0,
        )

    dummy = Task(name=_DUMMY_NAME, comm=0.0, comp=0.0)
    jobs = [dummy] + tasks
    n = len(jobs)

    # ------------------------------------------------------------------ #
    # Phase 1: rank-matching assignment.
    # ``positions`` lists job indices by non-decreasing end state (comp); the
    # k-th such job receives as successor the job with the k-th smallest start
    # state (comm).
    # ------------------------------------------------------------------ #
    positions = sorted(range(n), key=lambda i: (jobs[i].comp, jobs[i].name))
    by_start = sorted(range(n), key=lambda i: (jobs[i].comm, jobs[i].name))
    successor = [0] * n
    for rank in range(n):
        successor[positions[rank]] = by_start[rank]
    assignment_cost = sum(
        _transition(jobs[i].comp, jobs[successor[i]].comm) for i in range(n)
    )

    # ------------------------------------------------------------------ #
    # Phase 2: Kruskal patching over the assignment's sub-tours.
    # Candidate interchanges swap the successors of positions k and k+1 (in
    # end-state order); the marginal cost is evaluated against the original
    # assignment, as in the classical analysis.
    # ------------------------------------------------------------------ #
    cycles = _cycles_of(successor)
    cycle_of = [0] * n
    for cycle_id, cycle in enumerate(cycles):
        for node in cycle:
            cycle_of[node] = cycle_id

    patching_cost = 0.0
    selected: list[int] = []
    if len(cycles) > 1:
        def marginal(k: int) -> float:
            i, j = positions[k], positions[k + 1]
            before = _transition(jobs[i].comp, jobs[successor[i]].comm) + _transition(
                jobs[j].comp, jobs[successor[j]].comm
            )
            after = _transition(jobs[i].comp, jobs[successor[j]].comm) + _transition(
                jobs[j].comp, jobs[successor[i]].comm
            )
            return after - before

        candidates = sorted(range(n - 1), key=lambda k: (marginal(k), k))
        dsu = _DisjointSet(len(cycles))
        for k in candidates:
            i, j = positions[k], positions[k + 1]
            if dsu.union(cycle_of[i], cycle_of[j]):
                selected.append(k)
                patching_cost += marginal(k)
            if len(selected) == len(cycles) - 1:
                break

    # ------------------------------------------------------------------ #
    # Phase 3: reconstruction with the classical application rule.  Group 1
    # holds the interchanges whose position's successor starts no earlier
    # than the position ends (comm >= comp); they are applied by decreasing
    # index, then group 2 by increasing index.  Every selected interchange
    # merges two distinct sub-tours, so the result is a single tour.
    # ------------------------------------------------------------------ #
    group_up: list[int] = []
    group_down: list[int] = []
    for k in sorted(selected):
        i = positions[k]
        (group_up if jobs[successor[i]].comm >= jobs[i].comp else group_down).append(k)
    patched = _apply_interchanges(successor, positions, group_up[::-1] + group_down)
    if len(_cycles_of(patched)) != 1:
        raise RuntimeError("Gilmore-Gomory patching did not produce a single tour")
    order = tuple(jobs[i] for i in _tour_from_successors(patched, 0))
    return GilmoreGomoryResult(
        order=order,
        makespan=nowait_makespan(order),
        assignment_cost=assignment_cost,
        patching_cost=patching_cost,
    )
