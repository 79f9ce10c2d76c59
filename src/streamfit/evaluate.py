"""Cost evaluation of a fitted tree against a distance stream."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import StreamSource
from .trees import TreeMetricRep, UltrametricTree


@dataclass(frozen=True)
class CostReport:
    l0: int
    l1: int
    linf: int
    gap_delta: int
    gap_Delta: int


def cost(tree, source: StreamSource, p=None) -> CostReport:
    """Evaluate |T - D| over every pair of the stream.

    All three norms are accumulated in a single pass regardless of `p`
    (the argument only selects what a caller wants to read). The source
    holds each pair exactly once by construction, and none of the norms
    depends on order, so the stored arrays are read as they are.
    """
    if not isinstance(tree, (UltrametricTree, TreeMetricRep)):
        raise TypeError("tree must be an UltrametricTree or TreeMetricRep")
    if tree.n != source.n:
        raise ValueError("tree and stream disagree on point count")
    u, v, d = source.u, source.v, source.d
    induced = tree.induced_matrix()
    diff = np.abs(induced[u, v] - d)
    values = np.unique(d)
    if len(values) >= 2:
        gap_delta = int(np.diff(values).min())
        gap_big = int(values[-1] - values[0])
    else:
        gap_delta = 0
        gap_big = 0
    return CostReport(
        l0=int(np.count_nonzero(diff)),
        l1=int(diff.sum(dtype=np.int64)),
        linf=int(diff.max()) if len(diff) else 0,
        gap_delta=gap_delta,
        gap_Delta=gap_big,
    )
