"""Cost evaluation of a fitted tree against a distance stream."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    the norms depends on order, so its canonical slices are read as they
    are, and the gaps come from its sorted distinct values.
    """
    if tree.n != source.n:
        raise DomainError("tree and stream disagree on point count")
    l0 = linf = 0
    # an int64 total, as one sum over every pair would give
    l1 = np.zeros((), dtype=np.int64)
    for part, u, v in source.slices():
        diff = tree.distances(u, v)
        diff -= source.values.take(source.pair_ranks[part])
        np.abs(diff, out=diff)
        l0 += int(np.count_nonzero(diff))
        l1 += diff.sum(dtype=np.int64)
        linf = max(linf, int(diff.max()))
    # values[0] is 0, and the rest are the sorted distinct distances
    gap_delta, gap_big = _gaps(source.values[1:])
    return CostReport(
        l0=l0,
        l1=int(l1),
        linf=linf,
        gap_delta=gap_delta,
        gap_Delta=gap_big,
    )


def _gaps(values):
    """The smallest gap between the sorted distinct distances `values` and
    their spread, both 0 with fewer than two of them."""
    if len(values) < 2:
        return 0, 0
    return int(np.diff(values).min()), int(values[-1] - values[0])
