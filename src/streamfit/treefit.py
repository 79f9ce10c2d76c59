"""Tree metric fitting by reduction to ultrametric fitting.

Adding the pivot centroid C(i,j) = 2m - row[i] - row[j] to a tree metric
yields an ultrametric, so fitting an ultrametric to D + C and subtracting C
back gives a tree metric with the same distortion guarantees. The max-norm
path uses one pivot; the disagreement-count path hedges over ceil(ln n)
pivots and keeps the fit that a majority clique of mutually-close fits
agrees with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agreement import AgreementParams
from .l0fit import fit_l0
from .linf import fit_linf_min_decrement
from .sketches import SketchConfig
from .streams import StreamSource
from .trees import TreeMetricRep


@dataclass(frozen=True)
class PivotData:
    pivots: tuple
    rows: np.ndarray  # one row per pivot, shape (t, n)

    @property
    def count(self):
        return len(self.pivots)


def collect_pivot_rows(source: StreamSource, pivots, pass_index: int = 0) -> PivotData:
    """One stream pass gathering D(a, .) for every pivot a."""
    pivots = tuple(int(p) for p in pivots)
    n = source.n
    rows = np.zeros((len(pivots), n), dtype=np.int64)
    slot = {p: i for i, p in enumerate(pivots)}
    u, v, d = source.arrays(pass_index)
    for side, far in ((u, v), (v, u)):
        for p, i in slot.items():
            hit = side == p
            rows[i, far[hit]] = d[hit]
    return PivotData(pivots=pivots, rows=rows)


def centroid_transformed_source(
    source: StreamSource, row: np.ndarray, pass_index: int
) -> StreamSource:
    """Stream of D + C over one pass, preserving that pass's order."""
    u, v, d = source.arrays(pass_index)
    m = int(row.max())
    shifted = d + (2 * m - row[u] - row[v])
    return StreamSource(source.n, u, v, shifted)


def fit_linf_tree(source: StreamSource, pivot: int = 0) -> TreeMetricRep:
    """Two-pass max-norm tree metric fit with a single pivot.

    Pass one records the pivot row; pass two runs the min-decrement
    ultrametric fit on the centroid-shifted distances.
    """
    if not (0 <= pivot < source.n):
        raise ValueError(f"pivot {pivot} out of range")
    data = collect_pivot_rows(source, [pivot], pass_index=0)
    row = data.rows[0]
    if source.n == 1:
        return TreeMetricRep(fit_linf_min_decrement(source), pivot, row)
    base = fit_linf_min_decrement(
        centroid_transformed_source(source, row, pass_index=1)
    )
    return TreeMetricRep(base, pivot, row)


def _max_clique(adj_bits, t):
    """Exact maximum clique over bitset adjacency; lexicographically smallest
    among the maximum cliques."""
    best = []

    def grow(clique, cand_bits):
        nonlocal best
        if not cand_bits:
            if len(clique) > len(best):
                best = clique[:]
            return
        if len(clique) + cand_bits.bit_count() < len(best) + 1:
            return
        bits = cand_bits
        while bits:
            low = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            clique.append(low)
            grow(clique, cand_bits & adj_bits[low] & ~((1 << (low + 1)) - 1))
            clique.pop()

    grow([], (1 << t) - 1)
    return best


def select_tree_by_clique(pairwise: np.ndarray, labels=None) -> int:
    """Pick a candidate by majority-clique consensus.

    `pairwise` is a symmetric candidate-vs-candidate dissimilarity matrix.
    Over the sorted distinct values x, the graph with edges
    {pairwise <= 24x} gains edges monotonically; binary search finds the
    smallest x whose graph holds a clique of at least half the candidates,
    and the winner is the lowest-label member of a maximum clique there.
    """
    t = pairwise.shape[0]
    if pairwise.shape != (t, t) or not np.array_equal(pairwise, pairwise.T):
        raise ValueError("pairwise matrix must be square and symmetric")
    if labels is None:
        labels = list(range(t))
    if t == 1:
        return 0
    if t > 32:
        raise ValueError("candidate count beyond the 32-vertex clique search")
    need = math.ceil(t / 2)
    iu, iv = np.triu_indices(t, k=1)
    thresholds = np.unique(np.concatenate([[0], pairwise[iu, iv]]))

    def clique_for(x):
        close = pairwise <= 24 * int(x)
        np.fill_diagonal(close, False)
        adj_bits = [int(sum(1 << j for j in np.flatnonzero(close[i]))) for i in range(t)]
        return _max_clique(adj_bits, t)

    lo, hi = 0, len(thresholds) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if len(clique_for(thresholds[mid])) >= need:
            hi = mid
        else:
            lo = mid + 1
    clique = clique_for(thresholds[lo])
    if len(clique) < need:
        raise ValueError("no qualifying clique at the largest threshold")
    if lo > 0 and len(clique_for(thresholds[lo - 1])) >= need:
        raise AssertionError("clique feasibility is not monotone in the threshold")
    return min(clique, key=lambda i: labels[i])


@dataclass(frozen=True)
class L0TreeResult:
    rep: TreeMetricRep
    pivots: tuple
    chosen_pivot: int
    pairwise_l0: np.ndarray


def fit_l0_tree(
    source: StreamSource,
    params: AgreementParams = None,
    config: SketchConfig = None,
    seed: int = 0,
) -> L0TreeResult:
    """Two-pass disagreement-count tree metric fit.

    Pass one records the rows of ceil(ln n) random distinct pivots; pass two
    feeds each pivot's centroid-shifted stream to the divisive ultrametric
    fitter. The returned fit is the clique consensus winner.
    """
    n = source.n
    t = min(n, max(1, math.ceil(math.log(max(n, 2)))))
    rng = np.random.Generator(np.random.Philox(key=(seed, 202)))
    pivots = sorted(int(p) for p in rng.choice(n, size=t, replace=False))
    data = collect_pivot_rows(source, pivots, pass_index=0)

    reps = []
    for i, pivot in enumerate(pivots):
        if n == 1:
            base = fit_l0(source, params=params, config=config).tree
        else:
            shifted = centroid_transformed_source(source, data.rows[i], pass_index=1)
            base = fit_l0(shifted, params=params, config=config).tree
        reps.append(TreeMetricRep(base, pivot, data.rows[i]))

    pairwise = np.zeros((t, t), dtype=np.int64)
    induced = [rep.induced_matrix() for rep in reps]
    iu, iv = np.triu_indices(n, k=1)
    for i in range(t):
        for j in range(i + 1, t):
            diff = int(np.count_nonzero(induced[i][iu, iv] != induced[j][iu, iv]))
            pairwise[i, j] = pairwise[j, i] = diff
    winner = select_tree_by_clique(pairwise, labels=pivots)
    return L0TreeResult(
        rep=reps[winner],
        pivots=tuple(pivots),
        chosen_pivot=pivots[winner],
        pairwise_l0=pairwise,
    )
