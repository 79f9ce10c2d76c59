"""Agreement and heaviness queries, and the subset structural clustering
that divides clusters in the l0 algorithm.

For a working threshold w the graph is E_w (edge iff distance <= w) and all
neighborhoods are closed (a vertex counts itself). Two vertices agree inside
S when |N(u) symdiff N(v)| + 2|N(u) cap N(v) cap complement(S)| is below a
gamma fraction of the larger degree; a vertex is heavy when few of its
neighbors fall outside its agreement set.

Exact mode has one code path, the matrix path of `_cluster_exact`: a
clustering call reads the |S|-by-n rows of S from the dense matrix once,
takes the degrees from their row sums and every common-neighbour count from
one float32 BLAS product of their S columns (exact, see `_common_counts`).
It builds one S-by-S mask, the beta agreement that the heaviness test
needs; the 3-beta agreement is compared only on the row of each heavy seed
that is still unclustered, and the vertices no seed claims become
singletons in one step. The density invariant is checked on the S-by-S
adjacency the call already holds. No state is kept between calls. Sketch
mode estimates the predicates pair by pair from the streaming sketches,
with the relaxation bands built into the thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np


class ClusterInvariantError(AssertionError):
    pass


@dataclass(frozen=True)
class AgreementParams:
    epsilon: Fraction = Fraction(1, 100)
    mode: str = "exact"

    def __post_init__(self):
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if not (0 < eps <= Fraction(1, 95)):
            raise ValueError("epsilon must be in (0, 1/95]")
        if self.mode not in ("exact", "sketch"):
            raise ValueError("mode must be 'exact' or 'sketch'")

    # the thresholds are worked out once per instance, not once per call
    @cached_property
    def beta(self) -> Fraction:
        return 5 * self.epsilon * (1 + self.epsilon)

    @cached_property
    def three_beta(self) -> Fraction:
        return 3 * self.beta

    def gamma(self, key: str) -> Fraction:
        if key == "beta":
            return self.beta
        if key == "3beta":
            return self.three_beta
        raise ValueError("gamma key must be 'beta' or '3beta'")


@dataclass
class Clustering:
    ground_set: np.ndarray
    clusters: list

    def to_lists(self):
        return [[int(x) for x in c] for c in self.clusters]

    def assert_partition(self):
        merged = np.concatenate(self.clusters) if self.clusters else np.array([])
        if sorted(merged.tolist()) != sorted(self.ground_set.tolist()):
            raise ClusterInvariantError("clusters do not partition the ground set")


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


class SketchView:
    """Sketch-backed evaluation; one fresh instance per clustering call.

    The pools keep the neighbourhoods and query answers, which depend only
    on the finished state; the view keeps the agreement decisions of its
    one clustering call.
    """

    def __init__(self, pools, instance: int):
        self.pools = pools
        self.instance = instance
        self.config = pools.config
        self._agree_memo = {}

    def consume(self, vertices):
        self.pools.consume_instance(self.instance, vertices)

    def _sample_of(self, v, w, s_prime, exact_nbhd):
        """Members of v's sample over R_{s_prime} at threshold w, or None
        when the needed companion sketch was never built."""
        if exact_nbhd is not None:
            mask = self.pools.membership.mask(self.instance, s_prime)
            return [x for x in exact_nbhd if x != v and mask[x]]
        sk = self.pools.get_sketch(self.instance, v, self._rung_of(v, w), s_prime)
        if sk is None:
            return None
        return sk.members_at_most(w)

    def _rung_of(self, v, w):
        """Ladder size of the sketch reported for v at threshold w."""
        reported = self.pools.report_sketch(v, w, self.instance)
        return reported[1] if reported is not None else None

    def _degree_of(self, v, w, exact_nbhd):
        if exact_nbhd is not None:
            return len(exact_nbhd)
        return self.pools.estimate_degree(v, w, self.instance)

    def agreement(self, u, v, s_mask, gamma, w) -> bool:
        """Whether u and v agree within S at w, for a Fraction or float
        gamma; memoised by the float, which is all the estimate uses."""
        if u == v:
            return True
        gamma = float(gamma)
        memo_key = (min(u, v), max(u, v), gamma)
        got = self._agree_memo.get(memo_key)
        if got is not None:
            return got
        result = self._agreement_raw(u, v, s_mask, gamma, w)
        self._agree_memo[memo_key] = result
        return result

    def _agreement_raw(self, u, v, s_mask, gamma: float, w) -> bool:
        nu = self.pools.neighborhood(u, w)
        nv = self.pools.neighborhood(v, w)
        if nu is not None and nv is not None:
            common_in_s = _count_in(s_mask, nu & nv)
            stat = len(nu) + len(nv) - 2 * common_in_s
            return stat < gamma * max(len(nu), len(nv))
        cap = self.config.close_capacity
        # one side provably small, the other beyond the queue: degrees differ
        # by at least a factor two, so the pair cannot agree
        for small, big in ((nu, nv), (nv, nu)):
            if small is not None and big is None and len(small) <= cap // 2:
                return False
        zeta = self.config.zeta
        deg_u = self._degree_of(u, w, nu)
        deg_v = self._degree_of(v, w, nv)
        d_small, d_big = min(deg_u, deg_v), max(deg_u, deg_v)
        if d_big == 0:
            return False
        if 1 - ((1 + 5 * zeta) * d_small) / ((1 - zeta) * d_big) > 0.8 * gamma:
            return False
        # sample space: for equal rungs step one rung down (higher inclusion
        # probability and a doubled budget); otherwise the smaller rung
        rungs = sorted(
            sz
            for nb, sz in ((nu, self._rung_of(u, w)), (nv, self._rung_of(v, w)))
            if nb is None
            if sz is not None
        )
        if not rungs:
            return False
        if rungs[0] == rungs[-1]:
            s_prime = self.pools.rung_below(rungs[0])
        else:
            s_prime = rungs[0]
        samp_u = self._sample_of(u, w, s_prime, nu)
        samp_v = self._sample_of(v, w, s_prime, nv)
        if samp_u is None or samp_v is None:
            # rungs more than one ladder step apart: the companion sketch
            # does not exist, so the degrees are already too far apart
            return False
        samp_u = set(samp_u)
        samp_v = set(samp_v)
        x_count = _count_in(s_mask, samp_u & samp_v)
        # samples are open neighborhoods; restore the closed-form common
        # count for the endpoints themselves
        if v in samp_u and s_mask[v]:
            x_count += 1
        if u in samp_v and s_mask[u]:
            x_count += 1
        prob = self.config.sample_probability(s_prime)
        statistic = (deg_u + deg_v - 2 * x_count / prob) / d_big
        return statistic <= 0.9 * gamma

    def heaviness(self, u, s_mask, w, params: AgreementParams) -> bool:
        nu = self.pools.neighborhood(u, w)
        beta = float(params.beta)
        if nu is not None:
            inside = sum(
                1
                for x in nu
                if s_mask[x] and self.agreement(u, x, s_mask, beta, w)
            )
            eps = params.epsilon
            du = len(nu)
            return (du - inside) * eps.denominator < eps.numerator * du
        reported = self.pools.report_sketch(u, w, self.instance)
        if reported is None:
            return False
        sk = reported[2]
        companion = self.pools.get_sketch(
            self.instance, u, sk.s, self.pools.rung_below(sk.s)
        )
        if companion is not None:
            sk = companion
        members = sk.members_at_most(w)
        y_count = sum(
            1 for x in members if s_mask[x] and self.agreement(u, x, s_mask, beta, w)
        )
        prob = self.config.sample_probability(sk.s_prime)
        deg = self._degree_of(u, w, nu)
        if deg == 0:
            return False
        statistic = 1 - (1 + y_count / prob) / deg
        return statistic <= 1.1 * float(params.epsilon)


def _count_in(s_mask, members) -> int:
    """How many of a set of vertices lie in S."""
    return int(np.count_nonzero(s_mask[list(members)]))


def s_structural_clustering(s_vertices, w, params: AgreementParams, view) -> Clustering:
    """Partition S by growing 3-beta agreement clusters around heavy seeds.

    Vertices are visited in ascending PointId order; each unclustered heavy
    vertex claims the unclustered part of its 3-beta agreement set, and the
    rest become singletons. In sketch mode this consumes the view's sketch
    instance for every member of S.
    """
    if not isinstance(s_vertices, np.ndarray):
        s_vertices = list(s_vertices)
    s_arr = np.unique(np.asarray(s_vertices, dtype=np.int64))
    if len(s_arr) == 0:
        raise ValueError("S must be nonempty")
    if isinstance(view, ExactView):
        clusters = _cluster_exact(s_arr, w, params, view)
    else:
        view.consume(s_arr)
        clusters = _cluster_sketch(s_arr, w, params, view)
    result = Clustering(ground_set=s_arr, clusters=clusters)
    result.assert_partition()
    return result


def _common_counts(sub):
    """|N(u) cap N(v) cap S| for every pair of S, from the S-by-S adjacency.

    The product runs in float32 so that it goes through BLAS (numpy's
    integer matmul does not). It is exact: each entry sums at most
    |S| <= n products of 0 and 1, and n < 2**24 whenever a dense n-by-n
    matrix fits in memory, so every partial sum is an integer float32
    represents exactly. The float32 copy is freed on return, before the
    caller allocates its k-by-k statistics.
    """
    ones = sub.astype(np.float32)
    return (ones @ ones.T).astype(np.int64)


def _cluster_exact(s_arr, w, params, view: ExactView):
    """Clusters of S, heavy seeds first in ascending order, then singletons;
    raises `ClusterInvariantError` when a cluster is not everywhere dense."""
    rows = view.matrix[s_arr] <= w
    d = rows.sum(axis=1)
    sub = rows[:, s_arr]
    del rows
    k = len(s_arr)
    # stat = d_u + d_v - 2|N(u) cap N(v) cap S|, built in place
    stat = _common_counts(sub)
    stat *= -2
    stat += d[:, None]
    stat += d[None, :]

    beta = params.beta
    bound = np.maximum.outer(d, d)
    bound *= beta.numerator
    agree_b = stat * beta.denominator < bound
    del bound
    np.fill_diagonal(agree_b, True)
    agree_b &= sub
    inside = agree_b.sum(axis=1)
    del agree_b
    eps = params.epsilon
    heavy = (d - inside) * eps.denominator < eps.numerator * d

    t_num, t_den = params.three_beta.numerator, params.three_beta.denominator
    unclustered = np.ones(k, dtype=bool)
    # a cluster is labelled by its seed's position; a singleton keeps its own
    label = np.arange(k)
    clusters = []
    for i in np.flatnonzero(heavy).tolist():
        if not unclustered[i]:
            continue
        claim = stat[i] * t_den < t_num * np.maximum(d[i], d)
        claim[i] = True
        claim &= unclustered
        members = np.flatnonzero(claim)
        unclustered[members] = False
        label[members] = i
        clusters.append(s_arr[members])
    clusters.extend(s_arr[unclustered][:, None])
    _assert_density(sub, label)
    return clusters


def _cluster_sketch(s_arr, w, params, view: SketchView):
    s_mask = np.zeros(view.pools.n, dtype=bool)
    s_mask[s_arr] = True
    unclustered = {int(x) for x in s_arr}
    gamma_3b = float(params.gamma("3beta"))
    clusters = []
    for v in s_arr:
        v = int(v)
        if v not in unclustered:
            continue
        if not view.heaviness(v, s_mask, w, params):
            continue
        members = [
            u
            for u in sorted(unclustered)
            if view.agreement(v, u, s_mask, gamma_3b, w)
        ]
        unclustered.difference_update(members)
        clusters.append(np.asarray(members, dtype=np.int64))
    for v in sorted(unclustered):
        clusters.append(np.asarray([v], dtype=np.int64))
    return clusters


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
