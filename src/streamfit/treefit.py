"""Tree metric fitting by reduction to ultrametric fitting.

Adding the pivot centroid C(i,j) = 2m - row[i] - row[j] to a tree metric
yields an ultrametric, so fitting an ultrametric to D + C and subtracting C
back gives a tree metric with the same distortion guarantees. The max-norm
path uses one pivot; the disagreement-count path hedges over ceil(ln n)
pivots and keeps the fit that a majority clique of mutually-close fits
agrees with.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import agreement
from .l0fit import fit_l0
from .linf import fit_linf_min_decrement
from .sketches import SketchConfig, sorted_distinct
from .streams import StreamSource, pair_index
from .trees import DomainError, TreeMetricRep

INT64_MAX = int(np.iinfo(np.int64).max)


def collect_pivot_rows(source: StreamSource, pivots) -> np.ndarray:
    """One stream pass gathering D(a, .) for every distinct pivot a into a
    (t, n) array, scattered through an n-length slot array of pivot rows."""
    n = source.n
    # a repeated or outside pivot shrinks the set
    if len({int(p) for p in pivots if 0 <= p < n}) != len(pivots):
        raise ValueError(f"pivots must be distinct points of 0..{n - 1}")
    slot = np.full(n, -1, dtype=np.int64)
    slot[list(pivots)] = np.arange(len(pivots))
    rows = np.zeros((len(pivots), n), dtype=np.int64)
    u, v, d = source.arrays()
    for side, far in ((u, v), (v, u)):
        i = slot[side]
        hit = i >= 0
        rows[i[hit], far[hit]] = d[hit]
    return rows


def centroid_transformed_source(source: StreamSource, d, row, prior=0) -> StreamSource:
    """Stream of D + C for the pivot row `row`, over `d`, the distances of
    `source`'s pairs in canonical order. `d` is shifted in place from D, or
    from D plus the centroid of the pivot row `prior`, one canonical slice
    at a time, so the pivots share one buffer.

    Every entry on the way is at most max D + 2 max(row); the caller checks
    that this fits int64, as `_fit_pivots` does.
    """
    # an entry goes from D + 2 max(prior) - prior[u] - prior[v] through
    # D + 2 max(row) - prior[u] - prior[v] and D + 2 max(row) - row[u] -
    # prior[v] to D + C; rows are nonnegative, so none passes the bound
    step = row - prior
    lift = 2 * (int(row.max()) - int(np.max(prior)))
    for part, u, v in source.slices():
        shifted = d[part]
        shifted += lift
        shifted -= step[u]
        shifted -= step[v]
    return StreamSource.from_condensed(source.n, d)


def _fit_pivots(source: StreamSource, pivots, fit_base) -> list:
    """One tree metric per pivot: pass 0 gathers every pivot row, then
    pass 1 is read once into one canonical distance buffer, which is
    shifted in place from one pivot's centroid transform to the next, each
    fed to `fit_base`. `DomainError` is raised before the first shift
    unless max D + 2 max(row) fits int64 for every pivot."""
    rows = collect_pivot_rows(source, pivots)
    u, v, d = source.arrays()
    if (int(d.max()) if len(d) else 0) + 2 * int(rows.max()) > INT64_MAX:
        raise DomainError(
            "pivot centroid shift passes the int64 range: "
            "distances too large for a tree fit"
        )
    index = pair_index(source.n, u, v)
    del u, v
    buffer = np.empty_like(d)
    buffer[index] = d
    del index, d
    reps, prior = [], 0
    for pivot, row in zip(pivots, rows):
        shifted = centroid_transformed_source(source, buffer, row, prior)
        reps.append(TreeMetricRep(fit_base(shifted), pivot, row))
        prior = row
    return reps


def fit_linf_tree(source: StreamSource, pivot: int = 0) -> TreeMetricRep:
    """Two-pass max-norm tree metric fit with a single pivot.

    Pass one records the pivot row; pass two runs the min-decrement
    ultrametric fit on the centroid-shifted distances.
    """
    return _fit_pivots(source, [pivot], fit_linf_min_decrement)[0]


def select_tree_by_clique(pairwise: np.ndarray) -> int:
    """Pick a candidate by majority-clique consensus.

    `pairwise` is a symmetric candidate-vs-candidate dissimilarity matrix.
    Over the sorted distinct values x, the graph with edges
    {pairwise <= CONSENSUS_FACTOR x} (`agreement.py`) gains edges as x
    grows; the first x whose graph holds a clique of at least half the
    candidates decides, and the winner is the lowest-index member of a
    maximum clique there. At each x the scan tries subsets of the t
    candidates from size t down to ceil(t/2), each size in lexicographic
    order, so the first clique it meets is the lexicographically smallest
    maximum clique. At the largest x every pair is close, so the scan
    returns. Its work grows as 2^t, which the 32-candidate cap bounds.
    """
    t = pairwise.shape[0]
    if pairwise.shape != (t, t) or not np.array_equal(pairwise, pairwise.T):
        raise ValueError("pairwise matrix must be square and symmetric")
    if t > 32:
        raise ValueError("candidate count beyond the 32-vertex clique search")
    iu, iv = np.triu_indices(t, k=1)
    for x in sorted_distinct(np.concatenate([[0], pairwise[iu, iv]])).tolist():
        close = (pairwise <= agreement.CONSENSUS_FACTOR * x).tolist()
        for size in range(t, math.ceil(t / 2) - 1, -1):
            for clique in itertools.combinations(range(t), size):
                if all(close[i][j] for i, j in itertools.combinations(clique, 2)):
                    return clique[0]


@dataclass(frozen=True)
class L0TreeResult:
    rep: TreeMetricRep
    pivots: tuple
    pairwise_l0: np.ndarray


def fit_l0_tree(
    source: StreamSource, config: SketchConfig = None, seed: int = 0
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
    reps = _fit_pivots(source, pivots, lambda s: fit_l0(s, config).tree)

    pairwise = np.zeros((t, t), dtype=np.int64)
    # every pair once, a canonical slice at a time, so that the fits'
    # distances never sit whole side by side; the counts need no order
    for _, u, v in source.slices():
        part = [rep.distances(u, v) for rep in reps]
        for i in range(t):
            for j in range(i + 1, t):
                pairwise[i, j] += np.count_nonzero(part[i] != part[j])
        # freed before the next slice is built beside it
        del part
    pairwise += pairwise.T
    winner = select_tree_by_clique(pairwise)
    return L0TreeResult(
        rep=reps[winner],
        pivots=tuple(pivots),
        pairwise_l0=pairwise,
    )
