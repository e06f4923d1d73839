"""Mode-path enumeration for bounded reachability.

The paper's ``Reach_{k,M}(H, U)`` encoding (Section III-C) contains a
disjunction over all mode sequences of length <= k.  Like dReach [54],
we enumerate the sequences explicitly (DFS over the jump graph) and
solve one satisfiability problem per path; the encoding's disjunction
is then the union over paths.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.hybrid import HybridAutomaton, Jump

__all__ = ["Path", "enumerate_paths"]


class Path:
    """A mode sequence realized by a concrete list of jumps."""

    __slots__ = ("jumps", "initial_mode")

    def __init__(self, initial_mode: str, jumps: Sequence[Jump]):
        self.initial_mode = initial_mode
        self.jumps = list(jumps)
        mode = initial_mode
        for j in self.jumps:
            if j.source != mode:
                raise ValueError(f"jump {j} does not chain from mode {mode!r}")
            mode = j.target

    @property
    def modes(self) -> list[str]:
        """The visited mode names (length = len(jumps) + 1)."""
        out = [self.initial_mode]
        for j in self.jumps:
            out.append(j.target)
        return out

    @property
    def final_mode(self) -> str:
        """The mode the path ends in."""
        return self.modes[-1]

    def __len__(self) -> int:
        return len(self.jumps)

    def __repr__(self) -> str:
        return "Path(" + " -> ".join(self.modes) + ")"


def enumerate_paths(
    automaton: HybridAutomaton,
    max_jumps: int,
    goal_mode: str | None = None,
    allow_self_loops: bool = True,
) -> Iterator[Path]:
    """All jump paths from the initial mode with at most ``max_jumps``
    transitions, optionally ending in ``goal_mode``.

    Paths are yielded shortest-first (BFS layers), which makes the BMC
    driver prefer short witnesses -- e.g. the minimum-drug treatment
    schedules of paper Section IV-B.
    """
    if goal_mode is not None and goal_mode not in automaton.mode_names:
        raise ValueError(f"unknown goal mode {goal_mode!r}")
    frontier: list[list[Jump]] = [[]]
    for depth in range(max_jumps + 1):
        next_frontier: list[list[Jump]] = []
        for jumps in frontier:
            mode = jumps[-1].target if jumps else automaton.initial_mode
            if goal_mode is None or mode == goal_mode:
                yield Path(automaton.initial_mode, jumps)
            if depth < max_jumps:
                for j in automaton.jumps_from(mode):
                    if not allow_self_loops and j.target == j.source:
                        continue
                    next_frontier.append(jumps + [j])
        frontier = next_frontier
