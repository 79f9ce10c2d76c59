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


def collect_pivot_rows(source: StreamSource, pivots, pass_index: int = 0) -> np.ndarray:
    """One stream pass gathering D(a, .) for every pivot a, one row per
    pivot in a (t, n) array."""
    pivots = tuple(int(p) for p in pivots)
    n = source.n
    rows = np.zeros((len(pivots), n), dtype=np.int64)
    slot = {p: i for i, p in enumerate(pivots)}
    u, v, d = source.arrays(pass_index)
    for side, far in ((u, v), (v, u)):
        for p, i in slot.items():
            hit = side == p
            rows[i, far[hit]] = d[hit]
    return rows


def centroid_transformed_source(
    source: StreamSource, row: np.ndarray, pass_index: int
) -> StreamSource:
    """Stream of D + C over one pass, preserving that pass's order."""
    u, v, d = source.arrays(pass_index)
    m = int(row.max())
    shifted = d + (2 * m - row[u] - row[v])
    return StreamSource(source.n, u, v, shifted)


def _fit_pivots(source: StreamSource, pivots, fit_base) -> list:
    """One tree metric per pivot: pass 0 gathers every pivot row, then each
    pivot replays pass 1 through its centroid transform into `fit_base`, so
    one shifted stream at a time is alive."""
    rows = collect_pivot_rows(source, pivots, pass_index=0)
    return [
        TreeMetricRep(
            fit_base(centroid_transformed_source(source, row, pass_index=1)),
            pivot,
            row,
        )
        for pivot, row in zip(pivots, rows)
    ]


def fit_linf_tree(source: StreamSource, pivot: int = 0) -> TreeMetricRep:
    """Two-pass max-norm tree metric fit with a single pivot.

    Pass one records the pivot row; pass two runs the min-decrement
    ultrametric fit on the centroid-shifted distances.
    """
    if not (0 <= pivot < source.n):
        raise ValueError(f"pivot {pivot} out of range")
    return _fit_pivots(source, [pivot], fit_linf_min_decrement)[0]


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


def select_tree_by_clique(pairwise: np.ndarray) -> int:
    """Pick a candidate by majority-clique consensus.

    `pairwise` is a symmetric candidate-vs-candidate dissimilarity matrix.
    Over the sorted distinct values x, the graph with edges
    {pairwise <= 24x} gains edges as x grows; the first x whose graph holds
    a clique of at least half the candidates decides, and the winner is the
    lowest-index member of a maximum clique there.
    """
    t = pairwise.shape[0]
    if pairwise.shape != (t, t) or not np.array_equal(pairwise, pairwise.T):
        raise ValueError("pairwise matrix must be square and symmetric")
    if t == 1:
        return 0
    if t > 32:
        raise ValueError("candidate count beyond the 32-vertex clique search")
    need = math.ceil(t / 2)
    iu, iv = np.triu_indices(t, k=1)
    for x in np.unique(np.concatenate([[0], pairwise[iu, iv]])).tolist():
        close = pairwise <= 24 * x
        np.fill_diagonal(close, False)
        adj_bits = [int(sum(1 << j for j in np.flatnonzero(close[i]))) for i in range(t)]
        clique = _max_clique(adj_bits, t)
        if len(clique) >= need:
            # `_max_clique` lists its members in ascending order
            return clique[0]
    raise ValueError("no qualifying clique at the largest threshold")


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
    reps = _fit_pivots(source, pivots, lambda s: fit_l0(s, params, config).tree)

    pairwise = np.zeros((t, t), dtype=np.int64)
    # every pair once, in the stream's stored order: the counts need no
    # particular order
    upper = [rep.distances(source.u, source.v) for rep in reps]
    for i in range(t):
        for j in range(i + 1, t):
            pairwise[i, j] = pairwise[j, i] = np.count_nonzero(upper[i] != upper[j])
    winner = select_tree_by_clique(pairwise)
    return L0TreeResult(
        rep=reps[winner],
        pivots=tuple(pivots),
        chosen_pivot=pivots[winner],
        pairwise_l0=pairwise,
    )
