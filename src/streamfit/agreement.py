"""Agreement and heaviness queries, and the subset structural clustering
that divides clusters in the l0 algorithm.

For a working threshold w the graph is E_w (edge iff distance <= w) and all
neighborhoods are closed (a vertex counts itself). Two vertices agree inside
S when |N(u) symdiff N(v)| + 2|N(u) cap N(v) cap complement(S)| is below a
gamma fraction of the larger degree; a vertex is heavy when few of its
neighbors fall outside its agreement set.

One seed-and-claim loop serves both predicate modes. A view answers, for S
and w at once, which vertices of S are heavy and, for each seed, the row of
S that agrees with it under 3 beta (a `Claims`); heavy seeds in ascending
order claim what is still unclustered and the rest become singletons.

`ExactView` answers from the dense matrix: it reads the |S|-by-n rows of S
once, takes the degrees from their row sums and every common-neighbour
count from one float32 BLAS product of their S columns, and builds each
pair statistic in place in that product. A statistic is an integer in
[0, 2n], held exactly in float32 (see `_common_counts`). The rational bound
gamma * max(d_u, d_v) becomes an integer cut-off per vertex (`_cutoffs`),
so the beta mask takes two comparisons against a length-|S| vector and a
seed's 3-beta row one, with no S-by-S integer array. The density invariant
is checked on the S-by-S adjacency it holds.

`SketchView` answers from the finished sketch pools with the relaxation
bands built into float thresholds. Every pair statistic comes from the
pools' array queries over S: per vertex whether its close queue is exact,
its degree and its reported rung; among exact vertices the product of their
closed neighbourhoods; and, one sample size s' at a time, the S-by-S matrix
of which sample holds which vertex, whose BLAS product counts common
sampled neighbours. Each statistic is computed once, a block of rows at a
time, and compared against beta and 3 beta. Loops run over ladder rungs
and sample sizes, never over vertices, and no state is kept between calls
in either mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np


class ClusterInvariantError(AssertionError):
    pass


@dataclass(frozen=True)
class AgreementParams:
    epsilon: Fraction = Fraction(1, 100)

    def __post_init__(self):
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if not (0 < eps <= Fraction(1, 95)):
            raise ValueError("epsilon must be in (0, 1/95]")

    # the thresholds are worked out once per instance, not once per call
    @cached_property
    def beta(self) -> Fraction:
        return 5 * self.epsilon * (1 + self.epsilon)

    @cached_property
    def three_beta(self) -> Fraction:
        return 3 * self.beta


@dataclass
class Clustering:
    ground_set: np.ndarray
    clusters: list

    def to_lists(self):
        return [[int(x) for x in c] for c in self.clusters]

    def assert_partition(self):
        merged = np.concatenate(self.clusters) if self.clusters else np.array([])
        if not np.array_equal(np.sort(merged), np.sort(self.ground_set)):
            raise ClusterInvariantError("clusters do not partition the ground set")


class Claims(NamedTuple):
    """What one clustering call needs of S at w: the heavy mask over S,
    the 3-beta agreement row of S for the seed at a position, and the
    closed S-by-S adjacency when the view can vouch for it (exact mode,
    for the density check)."""

    heavy: np.ndarray
    row: Callable[[int], np.ndarray]
    adjacency: Optional[np.ndarray]


class ExactView:
    """The dense matrix that exact mode answers every predicate from.

    The matrix has a zero diagonal and every threshold is nonnegative, so a
    row's entries at most w are its vertex's closed neighbourhood at w.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.int64)

    def degrees(self, vertices, w: int) -> np.ndarray:
        """Closed degree at w of each of `vertices`."""
        return (self.matrix[vertices] <= w).sum(axis=1)

    def claims(self, s_arr, w, params: AgreementParams) -> Claims:
        """Heaviness from one S-by-S beta mask; the 3-beta row of a seed is
        compared when it is asked for.

        Each pair statistic is an integer in [0, 2n], held exactly in the
        float32 array of the common-neighbour product. The rational bound
        gamma * max(d_u, d_v) is applied through integer cut-offs per
        vertex (`_cutoffs`), so every decision is exact.
        """
        rows = self.matrix[s_arr] <= w
        d = rows.sum(axis=1)
        sub = rows[:, s_arr]
        del rows
        # stat = d_u + d_v - 2|N(u) cap N(v) cap S|, built in place; adding
        # float32 degrees keeps numpy from casting the array to float64
        stat = _common_counts(sub)
        stat *= -2
        d_f = d.astype(np.float32)
        stat += d_f[:, None]
        stat += d_f[None, :]

        # stat < beta max(d_u, d_v) iff stat <= lim(d_u) or stat <= lim(d_v)
        lim_b = _cutoffs(d, params.beta)
        agree_b = stat <= lim_b[:, None]
        agree_b |= stat <= lim_b[None, :]
        np.fill_diagonal(agree_b, True)
        agree_b &= sub
        inside = agree_b.sum(axis=1)
        del agree_b
        eps = params.epsilon
        heavy = (d - inside) * eps.denominator < eps.numerator * d

        lim_3b = _cutoffs(d, params.three_beta)

        def row(i):
            return stat[i] <= np.maximum(lim_3b[i], lim_3b)

        return Claims(heavy, row, sub)


class SketchView:
    """Sketch-backed predicates for the clustering calls of one recursion
    depth, which all read sketch instance `instance`; each call consumes
    the instance for its S.

    A vertex whose close queue holds its whole neighbourhood at w is exact:
    its degree and neighbours come from the queue. Any other vertex is
    estimated from the sketch `SketchPools.rungs` reports for it (its
    rung), and a pair with such a vertex agrees only when the degree ratio
    allows it and the common neighbours sampled in a shared R_{s'} bring
    the estimated symmetric difference under the band.
    """

    def __init__(self, pools, instance: int):
        self.pools = pools
        self.instance = instance

    def degrees(self, vertices, w: int) -> np.ndarray:
        """Closed degree at w of each of `vertices`, counted from the close
        queue where it is exact and estimated from the sketches elsewhere."""
        return self.pools.degrees(vertices, w, self.instance)

    def claims(self, s_arr, w, params: AgreementParams) -> Claims:
        """Both agreement masks of S from one pass over its statistics,
        compared in floats against beta and 3 beta, and heaviness from the
        beta mask; consumes the instance for S."""
        pools = self.pools
        config = pools.config
        pools.consume_instance(self.instance, s_arr)
        k = len(s_arr)
        pos = np.full(pools.n, -1, dtype=np.int64)
        pos[s_arr] = np.arange(k)

        # per vertex: exact queue, degree, and the ladder index of the
        # reported sketch (-1 for exact vertices and unreported ones)
        d, exact, within, rung = pools.estimates(s_arr, w, self.instance)
        reported = rung >= 0
        d_f = d.astype(np.float64)
        # each statistic is computed once, in Python's float operation
        # order, and compared against both gammas
        gammas = (float(params.beta), float(params.three_beta))
        agree = np.zeros((2, k, k), dtype=bool)

        # pairs of exact vertices: d_u + d_v - 2|N(u) cap N(v) cap S| from
        # their closed neighbourhoods inside S
        ex = np.flatnonzero(exact)
        near = np.zeros((len(ex), k), dtype=bool)
        at, slot = np.nonzero(within[ex])
        col = pos[pools.close_others[s_arr[ex[at]], slot]]
        near[at[col >= 0], col[col >= 0]] = True
        near[np.arange(len(ex)), ex] = True
        near_f = near.astype(np.float32)
        d_ex = d_f[ex]
        for rows in _row_blocks(len(ex)):
            stat = d_ex[rows, None] + d_ex - 2 * (near_f[rows] @ near_f.T)
            big = np.maximum(d_ex[rows, None], d_ex)
            for a, g in zip(agree, gammas):
                a[np.ix_(ex[rows], ex)] = stat < g * big
        del near_f

        # pairs with an estimated side: an exact side at most half a queue
        # deep cannot match a side beyond its queue, an unreported side has
        # no sample, the degrees must be within the ratio band, and the
        # common neighbours sampled in R_{s'} give the estimate
        usable = np.where(exact, d > config.close_capacity // 2, reported)
        last = len(pools.sizes) - 1
        # heaviness of an estimated vertex counts its sample one rung down
        # when that companion sketch exists, else its reported sketch's
        heavy_space = rung.copy()
        for r in set(rung[reported].tolist()):
            at, below = np.flatnonzero(rung == r), min(r + 1, last)
            pool = pools.sketches.get(
                (self.instance, pools.sizes[r], pools.sizes[below])
            )
            if pool is not None:
                heavy_space[at[pool.kept[s_arr[at]] > 0]] = below
        heavy_sample = np.zeros((k, k), dtype=bool)
        rungs = np.unique(rung[usable])
        spaces = _sample_space(rungs[:, None], rungs, last)[
            (rungs[:, None] >= 0) | (rungs >= 0)
        ]
        needed = set(spaces.tolist()) | set(heavy_space[reported].tolist())
        zeta = config.zeta
        for t in sorted(needed):
            s_prime = pools.sizes[t]
            sample, present = self._samples(s_arr, pos, w, ex, near, rung, s_prime)
            for_heavy = reported & (heavy_space == t)
            heavy_sample[for_heavy] = sample[for_heavy]
            ones = sample.astype(np.float32)
            live = usable & present
            prob = config.sample_probability(s_prime)
            for rows in _row_blocks(k):
                pairs = live[rows, None] & live & ~(exact[rows, None] & exact)
                pairs &= _sample_space(rung[rows, None], rung, last) == t
                if not pairs.any():
                    continue
                big = np.maximum(d_f[rows, None], d_f)
                # 1 - ((1 + 5 zeta) d_small) / ((1 - zeta) d_big)
                ratio = np.minimum(d_f[rows, None], d_f)
                ratio *= 1 + 5 * zeta
                ratio /= big * (1 - zeta)
                np.subtract(1, ratio, out=ratio)
                # (d_u + d_v - 2x / p) / d_big, where x counts the common
                # sampled neighbours inside S; samples are open
                # neighbourhoods, so each endpoint in the other's counts
                x = ones[rows] @ ones.T
                x += sample[rows]
                x += sample[:, rows].T
                estimate = x.astype(np.float64)
                estimate *= 2
                estimate /= prob
                np.subtract(d_f[rows, None] + d_f, estimate, out=estimate)
                estimate /= big
                for a, g in zip(agree, gammas):
                    a[rows] |= pairs & (ratio <= 0.8 * g) & (estimate <= 0.9 * g)
        for a in agree:
            np.fill_diagonal(a, True)

        agree_b, agree_3b = agree
        eps = params.epsilon
        heavy = np.zeros(k, dtype=bool)
        inside = (near & agree_b[ex]).sum(axis=1)
        heavy[ex] = (d[ex] - inside) * eps.denominator < eps.numerator * d[ex]
        y = (heavy_sample & agree_b).sum(axis=1)[reported]
        prob = np.array([config.sample_probability(s) for s in pools.sizes])
        prob = prob[heavy_space[reported]]
        heavy[reported] = 1 - (1 + y / prob) / d[reported] <= 1.1 * float(eps)
        return Claims(heavy, agree_3b.__getitem__, None)

    def _samples(self, s_arr, pos, w, ex, near, rung, s_prime):
        """The S-by-S matrix of which vertex of S each vertex's sample over
        R_{s_prime} at w holds, and which vertices have that sample. An
        exact vertex samples its queue neighbours in R_{s_prime}; a
        reported one reads its rung's sketch at s_prime, which may not
        exist."""
        pools = self.pools
        k = len(s_arr)
        sample = np.zeros((k, k), dtype=bool)
        sample[ex] = near & pools.membership.mask(self.instance, s_prime)[s_arr]
        sample[ex, ex] = False
        present = np.zeros(k, dtype=bool)
        present[ex] = True
        for r in set(rung[rung >= 0].tolist()):
            at = np.flatnonzero(rung == r)
            sizes = pools.sizes[r], s_prime
            i, weights, others = pools.entries(self.instance, *sizes, s_arr[at])
            present[at[i]] = True
            row, col = at[i[weights <= w]], pos[others[weights <= w]]
            sample[row[col >= 0], col[col >= 0]] = True
        return sample, present


# entries in one block of per-pair float statistics: building them a block
# of rows at a time bounds their memory, numpy's broadcast buffers included
_BLOCK = 2048


def _row_blocks(k):
    """Row slices of a k-column array, about `_BLOCK` entries each."""
    step = max(1, _BLOCK // max(k, 1))
    return [slice(a, a + step) for a in range(0, k, step)]


def _sample_space(a, b, last):
    """Ladder index of the sample space of pairs with rung indices a and b
    (-1 for an exact side, which counts as the larger): for equal rungs one
    rung down, where inclusion is likelier and the budget doubles;
    otherwise the smaller rung."""
    lo = np.maximum(a, b)
    hi = np.minimum(a, b)
    return np.where((lo == hi) | (hi < 0), np.minimum(lo + 1, last), lo)


def s_structural_clustering(s_vertices, w, params: AgreementParams, view) -> Clustering:
    """Partition S by growing 3-beta agreement clusters around heavy seeds.

    Vertices are visited in ascending PointId order; each unclustered heavy
    vertex claims the unclustered part of its 3-beta agreement set, and the
    rest become singletons. In sketch mode this consumes the view's sketch
    instance for every member of S; in exact mode it raises
    `ClusterInvariantError` when a cluster is not everywhere dense.
    """
    if not isinstance(s_vertices, np.ndarray):
        s_vertices = list(s_vertices)
    s_arr = np.asarray(s_vertices, dtype=np.int64)
    # the recursion passes strictly ascending sets, which need no np.unique
    if s_arr.ndim != 1 or not (s_arr[1:] > s_arr[:-1]).all():
        s_arr = np.unique(s_arr)
    if len(s_arr) == 0:
        raise ValueError("S must be nonempty")
    claims = view.claims(s_arr, w, params)
    unclustered = np.ones(len(s_arr), dtype=bool)
    # a cluster is labelled by its seed's position; a singleton keeps its own
    label = np.arange(len(s_arr))
    clusters = []
    for i in np.flatnonzero(claims.heavy).tolist():
        if not unclustered[i]:
            continue
        claim = claims.row(i) & unclustered
        claim[i] = True
        members = np.flatnonzero(claim)
        unclustered[members] = False
        label[members] = i
        clusters.append(s_arr[members])
    clusters.extend(s_arr[unclustered][:, None])
    if claims.adjacency is not None:
        _assert_density(claims.adjacency, label)
    result = Clustering(ground_set=s_arr, clusters=clusters)
    result.assert_partition()
    return result


def _common_counts(sub):
    """|N(u) cap N(v) cap S| for every pair of S, from the S-by-S adjacency,
    as a float32 array the caller builds its statistics in.

    The product runs in float32 so that it goes through BLAS (numpy's
    integer matmul does not). It is exact: each entry sums at most
    |S| <= n products of 0 and 1, and n < 2**24 whenever a dense n-by-n
    matrix fits in memory, so every partial sum, and every statistic
    within 2n of zero built from it, is an integer float32 represents
    exactly. The float32 copy of `sub` is freed on return.
    """
    ones = sub.astype(np.float32)
    return ones @ ones.T


def _cutoffs(d, gamma):
    """lim(x) = (num x - 1) // den for each degree x of `d`, where gamma is
    num / den, as float32: the largest integer below gamma x, so an integer
    statistic is below gamma x exactly when it is at most lim(x). lim never
    decreases as x grows, so lim(max(a, b)) = max(lim(a), lim(b)). For the
    gammas of a fit, all below 1, each cut-off lies in [-1, n) and is exact
    in float32 like the statistics."""
    lim = d * gamma.numerator
    lim -= 1
    lim //= gamma.denominator
    return lim.astype(np.float32)


def _assert_density(sub, label):
    """Raise `ClusterInvariantError` unless every member of every cluster of
    two or more vertices is adjacent to at least two thirds of its cluster.

    `sub` is the closed S-by-S adjacency at the clustering threshold (a
    vertex is adjacent to itself) and `label[i]` names the cluster of S's
    i-th vertex. The message names the failing cluster of smallest label.
    """
    same = label[:, None] == label[None, :]
    same &= sub
    inside = same.sum(axis=1)
    size = np.bincount(label)[label]
    bad = (3 * inside < 2 * size) & (size >= 2)
    if bad.any():
        first = np.flatnonzero(bad)[np.argmin(label[bad])]
        raise ClusterInvariantError(
            f"cluster of size {size[first]} is not everywhere dense"
        )
