"""Agreement and heaviness queries, and the subset structural clustering
that divides clusters in the l0 algorithm.

For a working threshold w the graph is E_w (edge iff distance <= w) and all
neighborhoods are closed (a vertex counts itself). Two vertices agree inside
S when |N(u) symdiff N(v)| + 2|N(u) cap N(v) cap complement(S)| is below a
gamma fraction of the larger degree; a vertex is heavy when few of its
neighbors fall outside its agreement set.

One seed-and-claim loop serves both predicate modes. A view answers for S
and w (a `Claims`): given a block of positions of S, whether each is heavy
and its row of S that agrees with it under 3 beta. The loop walks the
positions still unclustered in ascending order, in blocks that start at
`_FIRST_ROWS` and double up to `_MAX_ROWS`; each heavy one that no seed
before it has claimed claims what is still unclustered of its row, and the
rest become singletons.

`ExactView` answers from the n-by-n rank matrix of `StreamSource.ranks`,
2 bytes a pair where the distances take 8, lazily by rows: each query
turns w into a rank once and compares rows of ranks with it. It reads the
|S|-by-n rows of S once, as a bool mask, and keeps the degrees, the closed
S-by-S adjacency as float32 and an integer cut-off per vertex for each
gamma. A block's heavy flags and rows come from one float32 BLAS product
of its adjacency rows against the whole adjacency, B by |S|, in which each
pair statistic is built in place: an integer in [0, 2n], held exactly in
float32 (see `ExactView.claims`). The rational bound gamma * max(d_u, d_v)
is applied through the cut-offs (`_cutoffs`), so each mask takes one
comparison with the larger cut-off of each pair, with no S-by-S integer or
statistic array. A position an earlier seed claimed is never read, so a
clustering that returns all of S as one cluster builds the first block
only. The density invariant is checked once per claimed cluster of two or
more vertices, by one matrix-vector product of the adjacency with the
cluster's indicator (`_assert_density`).

Both views also answer the l0 peel loop's degree probes (`peel_probe`):
for a dominant cluster and two degree cut-offs fixed for the whole loop,
a probe says which of its vertices are dense at w and which fall on the
rim. `ExactView` counts a loop's first probe from the rows; a second
probe partitions them once, and from then on each vertex's order
statistic at the dense cut-off is compared with w's rank and only the
rows that fail are read again. `SketchView` reads the pools' degrees at
every probe.

`SketchView` answers from the finished sketch pools. A pair of exact
vertices is decided as `ExactView` decides it, through the integer
cut-offs; a pair with an estimated side is compared with the relaxation
bands as float thresholds. Every pair statistic comes from the
pools over S: per vertex whether its close queue is exact, its degree and
its reported rung; among exact vertices the product of their closed
neighbourhoods; and, one sample size s' at a time, the S-by-S matrix of
which sample holds which vertex, whose BLAS product counts common sampled
neighbours. The pools' array queries (`estimates` and `entries`) give most
of this. Three reads go to the pools' arrays directly: the queue
neighbours of exact vertices (`close_others`), the sample masks (`masks`),
and a companion pool's `kept` lengths, which say whether a vertex holds
that sketch without copying its run. Each statistic is computed once, a
block of rows at a time, and compared against beta and 3 beta; `rows`
slices the heavy flags and 3-beta mask built up front. Loops run over
ladder rungs and sample sizes, never over vertices, and no state is kept
between calls in either mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .sketches import sorted_distinct


class ClusterInvariantError(AssertionError):
    pass


# The rules of the l0 algorithm, each stated once, with its source at the
# end of its line. The algorithm streams the agreement/heaviness recursion
# of Cohen-Addad, Fan, Lee & de Mesmay (FOCS 2022), but no value below is
# yet derived from that analysis (ROADMAP items 1 and 11).
# `AgreementParams`, the clustering views, `fit_l0` and `fit_l0_tree` read
# each rule from here.

# epsilon's default; beta = 5 epsilon (1 + epsilon) and the heaviness
# tolerance epsilon follow from it
EPSILON = Fraction(1, 100)  # implementation choice
# the largest epsilon `AgreementParams` accepts; the range is (0, EPSILON_MAX]
EPSILON_MAX = Fraction(1, 95)  # implementation choice
# every member of an exact cluster of two or more vertices is adjacent to
# at least this share of its cluster (`_assert_density`)
DENSITY = Fraction(2, 3)  # implementation choice
# a cluster of at most this share of S is recursed into; a larger one is
# the dominant cluster, whose rims the peel loop takes off
CLUSTER_SPLIT = Fraction(99, 100)  # implementation choice
# the peel loop runs while what is left of the dominant cluster, and its
# dense vertices, are more than this share of S
PEEL_STOP = Fraction(99, 100)  # implementation choice
# a vertex of the dominant cluster is dense when its closed degree is
# above this share of |S|
DENSE_CUT = Fraction(66, 100)  # implementation choice
# and falls on the rim when its closed degree is below this share of |S|
RIM_CUT = Fraction(65, 100)  # implementation choice
# sketch mode: an estimated pair agrees under gamma only when its degree
# ratio term is at most RATIO_BAND gamma and its estimated symmetric
# difference at most ESTIMATE_BAND gamma of the larger degree
RATIO_BAND = Fraction(4, 5)  # implementation choice
ESTIMATE_BAND = Fraction(9, 10)  # implementation choice
# sketch mode: an estimated vertex is heavy when its estimated share of
# non-agreeing neighbours is at most HEAVY_BAND epsilon
HEAVY_BAND = Fraction(11, 10)  # implementation choice
# the participation bound is this factor times ceil(log2 n)
PARTICIPATION_FACTOR = 8  # implementation choice
# the tree consensus over ceil(ln n) pivot fits joins two fits whose
# disagreement count is at most this factor times the threshold x
CONSENSUS_FACTOR = 24  # implementation choice


@dataclass(frozen=True)
class AgreementParams:
    epsilon: Fraction = EPSILON

    def __post_init__(self):
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if not (0 < eps <= EPSILON_MAX):
            raise ValueError(f"epsilon must be in (0, {EPSILON_MAX}]")

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
    """What one clustering call needs of S at w: `rows(pos)` gives, for an
    ascending array of positions of S, their heavy flags and their 3-beta
    agreement rows of S; `adjacency` is the closed S-by-S adjacency as
    float32 when the view can vouch for it (exact mode, for the density
    check)."""

    rows: Callable[[np.ndarray], tuple]
    adjacency: Optional[np.ndarray]


class ExactView:
    """The rank matrix that exact mode answers every predicate from, as
    `StreamSource.ranks` gives it: `values` holds 0 and the sorted distinct
    distances, and `ranks` each pair's index in `values`.

    The matrix is symmetric with a zero diagonal and every threshold is
    nonnegative, so a row's entries at most w are its vertex's closed
    neighbourhood at w, and the adjacency of S is its own transpose. Each
    query turns w into the rank of the largest value at most w once
    (`_rank`), and compares rows of ranks with that rank.
    """

    def __init__(self, ranks: np.ndarray, values: np.ndarray):
        self.ranks = ranks
        self.values = values

    def _rank(self, w) -> int:
        """The rank c with values[c] <= w < values[c + 1]: a distance is at
        most w exactly when its rank is at most c. A Python int, so that
        numpy compares rows in their own narrow dtype."""
        return int(np.searchsorted(self.values, w, side="right")) - 1

    def degrees(self, vertices, w: int) -> np.ndarray:
        """Closed degree at w of each of `vertices`."""
        return (self.ranks[vertices] <= self._rank(w)).sum(axis=1)

    def peel_probe(self, big, k_dense: int, k_rim: int) -> Callable:
        """The peel loop's test over positions of `big`: `probe(pos, w)`
        gives, for each vertex at `pos`, whether its closed degree at w is
        at least `k_dense` and whether it is below `k_rim`, which is at
        most `k_dense`.

        A loop often stops at its first probe, which counts the rows as
        `degrees` does. A degree at w is at least k exactly when the row's
        k-th smallest rank is at most w's, so a second probe reads the rows
        of `big` once more, partitions them in place and keeps only their
        `k_dense`-th ranks. A rim vertex fails the dense test, so from
        then on only the rows that fail it are read again.
        """
        first = True
        kth = None

        def probe(pos, w):
            nonlocal first, kth
            if first:
                first = False
                d = self.degrees(big[pos], w)
                return d >= k_dense, d < k_rim
            if kth is None:
                rows = self.ranks[big]
                # ndarray.partition works in place; np.partition would copy
                rows.partition(k_dense - 1, axis=1)
                kth = rows[:, k_dense - 1].copy()
                del rows
            dense = kth[pos] <= self._rank(w)
            rim = np.zeros(len(pos), dtype=bool)
            (low,) = (~dense).nonzero()
            rim[low] = self.degrees(big[pos[low]], w) < k_rim
            return dense, rim

        return probe

    def claims(self, s_arr, w, params: AgreementParams) -> Claims:
        """The degrees of S, its closed S-by-S adjacency as float32 and the
        integer cut-offs of both gammas, from one read of the rows of S;
        `rows(pos)` takes the heavy flags and 3-beta rows of a block of
        positions from one float32 product of the block against the whole
        adjacency, B by |S|, so rows the seed loop never visits are never
        built.

        Each pair statistic is an integer in [0, 2n], held exactly in the
        float32 array of that product: every common-neighbour count sums at
        most |S| <= n products of 0 and 1, and n < 2**24 whenever a dense
        n-by-n matrix fits in memory. The product runs in float32 so that it
        goes through BLAS (numpy's integer matmul does not). The rational
        bound gamma * max(d_u, d_v) is applied through integer cut-offs per
        vertex (`_cutoffs`), so every decision is exact.
        """
        # the gathered rows of ranks are freed as soon as they are compared;
        # the bool S-by-n mask gives the degrees and the adjacency's columns
        near = self.ranks[s_arr] <= self._rank(w)
        d = near.sum(axis=1)
        adj = near[:, s_arr].astype(np.float32)
        del near
        d_f = d.astype(np.float32)
        lim_b = _cutoffs(d, params.beta)
        lim_3b = _cutoffs(d, params.three_beta)

        def block_rows(pos):
            block = adj[pos]
            # stat = d_u + d_v - 2|N(u) cap N(v) cap S|, built in place;
            # adding float32 degrees keeps numpy from casting to float64.
            # The adjacency is symmetric, and BLAS reads it faster as is
            stat = block @ adj
            near = block > 0
            del block
            stat *= -2
            stat += d_f[pos, None]
            stat += d_f
            # stat < gamma max(d_u, d_v) iff stat <= max(lim(d_u), lim(d_v))
            agree = stat <= np.maximum(lim_b[pos, None], lim_b)
            agree[np.arange(len(pos)), pos] = True
            agree &= near
            inside = agree.sum(axis=1)
            del agree, near
            heavy = _heavy(d[pos], inside, params.epsilon)
            claim = stat <= np.maximum(lim_3b[pos, None], lim_3b)
            return heavy, claim

        return Claims(block_rows, adj)


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

    def peel_probe(self, big, k_dense: int, k_rim: int) -> Callable:
        """`ExactView.peel_probe` from the pools: each probe reads the
        closed degrees at w of the vertices at `pos`, counted from the
        close queue where it is exact and estimated from the sketches
        elsewhere, and compares them with both cut-offs."""

        def probe(pos, w):
            d = self.pools.degrees(big[pos], w, self.instance)
            return d >= k_dense, d < k_rim

        return probe

    def claims(self, s_arr, w, params: AgreementParams) -> Claims:
        """Both agreement masks of S from one pass over its statistics,
        compared against beta and 3 beta (exact pairs through `_cutoffs`,
        the others against float bands), and heaviness from the beta mask;
        consumes the instance for S."""
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
        # each statistic is computed once; exact pairs meet both gammas
        # through `_cutoffs`, the others their bands in Python float order
        gammas = (params.beta, params.three_beta)
        bands = [(float(RATIO_BAND) * g, float(ESTIMATE_BAND) * g)
                 for g in map(float, gammas)]
        agree = np.zeros((2, k, k), dtype=bool)

        # pairs of exact vertices: d_u + d_v - 2|N(u) cap N(v) cap S| from
        # their closed neighbourhoods inside S, exact in float32
        ex = np.flatnonzero(exact)
        near = np.zeros((len(ex), k), dtype=bool)
        at, slot = np.nonzero(within[ex])
        col = pos[pools.close_others[s_arr[ex[at]], slot]]
        near[at[col >= 0], col[col >= 0]] = True
        near[np.arange(len(ex)), ex] = True
        near_f = near.astype(np.float32)
        d_ex = d[ex].astype(np.float32)
        lims = [_cutoffs(d[ex], g) for g in gammas]
        for rows in _row_blocks(len(ex)):
            stat = d_ex[rows, None] + d_ex - 2 * (near_f[rows] @ near_f.T)
            for a, lim in zip(agree, lims):
                a[np.ix_(ex[rows], ex)] = stat <= np.maximum(lim[rows, None], lim)
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
        rungs = sorted_distinct(rung[usable])
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
                for a, (by_ratio, by_estimate) in zip(agree, bands):
                    a[rows] |= pairs & (ratio <= by_ratio) & (estimate <= by_estimate)
        for a in agree:
            np.fill_diagonal(a, True)

        agree_b, agree_3b = agree
        eps = params.epsilon
        heavy = np.zeros(k, dtype=bool)
        inside = (near & agree_b[ex]).sum(axis=1)
        heavy[ex] = _heavy(d[ex], inside, eps)
        y = (heavy_sample & agree_b).sum(axis=1)[reported]
        prob = np.array([config.sample_probability(s) for s in pools.sizes])
        prob = prob[heavy_space[reported]]
        heavy[reported] = (
            1 - (1 + y / prob) / d[reported] <= float(HEAVY_BAND) * float(eps)
        )
        return Claims(lambda pos: (heavy[pos], agree_3b[pos]), None)

    def _samples(self, s_arr, pos, w, ex, near, rung, s_prime):
        """The S-by-S matrix of which vertex of S each vertex's sample over
        R_{s_prime} at w holds, and which vertices have that sample. An
        exact vertex samples its queue neighbours in R_{s_prime}; a
        reported one reads its rung's sketch at s_prime, which may not
        exist."""
        pools = self.pools
        k = len(s_arr)
        sample = np.zeros((k, k), dtype=bool)
        sample[ex] = near & pools.masks[(self.instance, s_prime)][s_arr]
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


# the seed loop reads rows in blocks that start at this many positions and
# double up to the last; a block's temporaries take about 10 bytes per
# entry, so 64 rows keep a block and the 4 |S|^2-byte adjacency under the
# peak of building the adjacency from the mask of S, |S| n + 5 |S|^2
# bytes, once |S| + n reaches 640
_FIRST_ROWS = 4
_MAX_ROWS = 64

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
    rest become singletons. Only unclustered vertices are visited, so their
    heavy flags and rows are asked of the view a block at a time. In sketch
    mode this consumes the view's sketch instance for every member of S; in
    exact mode it raises `ClusterInvariantError` at the first claimed
    cluster that is not everywhere dense, the failing one of smallest seed.
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
    clusters = []
    # the positions still unclustered, in ascending order, a block of rows
    # at a time; a seed may claim later positions of its own block, so each
    # is checked again before it seeds
    start, size = 0, _FIRST_ROWS
    while True:
        block = start + np.flatnonzero(unclustered[start:])[:size]
        if len(block) == 0:
            break
        heavy, rows = claims.rows(block)
        for i, seeds, row in zip(block.tolist(), heavy.tolist(), rows):
            if not (seeds and unclustered[i]):
                continue
            claim = row & unclustered
            claim[i] = True
            members = np.flatnonzero(claim)
            unclustered[members] = False
            if claims.adjacency is not None and len(members) > 1:
                _assert_density(claims.adjacency, members)
            clusters.append(s_arr[members])
        start = int(block[-1]) + 1
        size = min(2 * size, _MAX_ROWS)
    clusters.extend(s_arr[unclustered][:, None])
    result = Clustering(ground_set=s_arr, clusters=clusters)
    result.assert_partition()
    return result


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


def _heavy(d, inside, eps):
    """Whether each vertex of closed degree d, `inside` of whose neighbours
    agree with it, is heavy: d - inside < epsilon d, in integers."""
    return (d - inside) * eps.denominator < eps.numerator * d


def _assert_density(adj, members):
    """Raise `ClusterInvariantError` unless every member of a cluster is
    adjacent to at least `DENSITY` of it.

    `adj` is the closed S-by-S adjacency at the clustering threshold as
    float32 (a vertex is adjacent to itself) and `members` the cluster's
    ascending positions in S. Each member's count comes from one float32
    matrix-vector product of the adjacency with the cluster's indicator,
    over the rows and columns from its first member to its last; a count
    sums at most |S| < 2**24 ones, so it is exact.
    """
    lo, hi = members[0], members[-1] + 1
    indicator = np.zeros(hi - lo, dtype=np.float32)
    indicator[members - lo] = 1
    inside = (adj[lo:hi, lo:hi] @ indicator)[members - lo].astype(np.int64)
    size = len(members)
    if (DENSITY.denominator * inside < DENSITY.numerator * size).any():
        raise ClusterInvariantError(f"cluster of size {size} is not everywhere dense")
