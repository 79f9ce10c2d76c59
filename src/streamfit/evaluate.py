"""Cost evaluation of a fitted tree against a distance stream."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sketches import sorted_distinct
from .streams import StreamSource
from .trees import DomainError


@dataclass(frozen=True)
class CostReport:
    l0: int
    l1: int
    linf: int
    gap_delta: int
    gap_Delta: int


def cost(tree, source: StreamSource) -> CostReport:
    """Evaluate |T - D| over every pair of the stream.

    The source holds each pair exactly once by construction, and none of
    the norms depends on order, so the stored arrays are read as they are.
    """
    if tree.n != source.n:
        raise DomainError("tree and stream disagree on point count")
    # before `diff`, so that the sorted copy of d is gone when it is made
    gap_delta, gap_big = _gaps(source.d)
    diff = tree.distances(source.u, source.v)
    diff -= source.d
    np.abs(diff, out=diff)
    return CostReport(
        l0=int(np.count_nonzero(diff)),
        l1=int(diff.sum(dtype=np.int64)),
        linf=int(diff.max()) if len(diff) else 0,
        gap_delta=gap_delta,
        gap_Delta=gap_big,
    )


def _gaps(d):
    """The smallest gap between distinct distances and their spread, both
    0 with fewer than two distinct distances."""
    values = sorted_distinct(d)
    if len(values) < 2:
        return 0, 0
    return int(np.diff(values).min()), int(values[-1] - values[0])
