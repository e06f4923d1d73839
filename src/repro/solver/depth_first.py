"""Depth-first branch and prune, one box at a time.

Calibration, parameter paving (:mod:`repro.apps.calibration`) and the
per-path BMC search (:mod:`repro.bmc.reach`) judge a box by a validated
ODE enclosure, one box per call, so they share this loop rather than
the batched frontier driver of :mod:`repro.solver.shard`.  The caller
gives the judgment and the split rule; the loop owns the LIFO stack,
the box budget and the per-box progress and cancellation checkpoint.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple

from repro.intervals import Box
from repro.progress import emit

from .icp import Status


class Fate(enum.Enum):
    """What a judgment makes of one box."""

    PRUNED = 0  # certainly holds no solution
    VERIFIED = 1  # every point delta-satisfies the query
    UNKNOWN = 2  # neither: split it, or leave it undecided


class Search(NamedTuple):
    """Boxes processed, and the boxes of each fate in the order decided;
    budget leftovers end ``undecided``, bottom of the stack first."""

    processed: int
    verified: list[Box]
    pruned: list[Box]
    undecided: list[Box]

    @property
    def status(self) -> Status:
        """DELTA_SAT, else UNKNOWN if a box stayed undecided, else UNSAT."""
        if self.verified:
            return Status.DELTA_SAT
        return Status.UNKNOWN if self.undecided else Status.UNSAT


def depth_first(
    root: Box,
    judge: Callable[[Box], tuple[Fate, Box]],
    split: Callable[[Box], tuple[Box, Box] | None],
    max_boxes: int,
    checkpoint: tuple[str, str],
    *,
    pave: bool = False,
) -> Search:
    """Judge at most ``max_boxes`` boxes of ``root``, depth first.

    ``judge`` gives a box's fate and the (possibly contracted) box to
    keep; ``split`` halves an UNKNOWN box, or gives ``None`` for an
    undecided leaf.  A solve stops at the first verified box, a paving
    (``pave=True``) runs until the stack or the budget is spent.  Every
    box first passes the ``(source, stage)`` progress checkpoint.
    """
    stack, processed = [root], 0
    verified, pruned, undecided = [], [], []
    while stack:
        if processed >= max_boxes:
            undecided.extend(stack)
            break
        processed += 1
        emit(*checkpoint, boxes=processed, queue=len(stack),
             sat=len(verified), unsat=len(pruned))
        fate, box = judge(stack.pop())
        if fate is Fate.PRUNED:
            pruned.append(box)
        elif fate is Fate.VERIFIED:
            verified.append(box)
            if not pave:
                break
        elif (halves := split(box)) is None:
            undecided.append(box)
        else:
            stack.extend(halves)
    return Search(processed, verified, pruned, undecided)


def relative_split(root: Box) -> Callable[[Box], tuple[Box, Box] | None]:
    """The solves' split: bisect the dimension widest relative to its
    width in ``root``; a box without dimensions, or whose relative
    width is below 1e-4, is an undecided leaf."""
    scale = {k: max(root[k].width(), 1e-12) for k in root.names}

    def split(box: Box) -> tuple[Box, Box] | None:
        widest = max(box.names, key=lambda k: box[k].width() / scale[k], default=None)
        if widest is None or box[widest].width() / scale[widest] < 1e-4:
            return None
        return box.split(widest)

    return split
