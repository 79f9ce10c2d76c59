"""Agreement and heaviness queries, and the subset structural clustering
that divides clusters in the l0 algorithm.

For a working threshold w the graph is E_w (edge iff distance <= w) and all
neighborhoods are closed (a vertex counts itself). Two vertices agree inside
S when |N(u) symdiff N(v)| + 2|N(u) cap N(v) cap complement(S)| is below a
gamma fraction of the larger degree; a vertex is heavy when few of its
neighbors fall outside its agreement set. Exact mode evaluates these
predicates from the full matrix; sketch mode estimates them from the
streaming sketches with the relaxation bands built into the thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    @property
    def beta(self) -> Fraction:
        return 5 * self.epsilon * (1 + self.epsilon)

    def gamma(self, key: str) -> Fraction:
        if key == "beta":
            return self.beta
        if key == "3beta":
            return 3 * self.beta
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
    """Full-matrix evaluation of the predicates (deterministic)."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.int64)
        self.n = self.matrix.shape[0]
        self._cache_w = None
        self._cache = None

    def adjacency(self, w: int) -> np.ndarray:
        if self._cache_w != w:
            adj = self.matrix <= w
            np.fill_diagonal(adj, True)
            self._cache = (adj, adj.sum(axis=1))
            self._cache_w = w
        return self._cache[0]

    def degrees(self, w: int) -> np.ndarray:
        self.adjacency(w)
        return self._cache[1]

    def consume(self, vertices):
        pass

    def subset_statistic(self, u, v, s_mask, w):
        """|N(u) symdiff N(v)| + 2|N(u) cap N(v) cap complement(S)|."""
        adj = self.adjacency(w)
        du = int(self.degrees(w)[u])
        dv = int(self.degrees(w)[v])
        common_in_s = int(np.count_nonzero(adj[u] & adj[v] & s_mask))
        return du + dv - 2 * common_in_s, du, dv

    def agreement(self, u, v, s_mask, gamma: Fraction, w) -> bool:
        if u == v:
            return True
        stat, du, dv = self.subset_statistic(u, v, s_mask, w)
        return stat * gamma.denominator < gamma.numerator * max(du, dv)

    def heaviness(self, u, s_mask, w, params: AgreementParams) -> bool:
        adj = self.adjacency(w)
        du = int(self.degrees(w)[u])
        beta = params.beta
        inside = 0
        for x in np.flatnonzero(adj[u]):
            if s_mask[x] and self.agreement(u, int(x), s_mask, beta, w):
                inside += 1
        eps = params.epsilon
        return (du - inside) * eps.denominator < eps.numerator * du


class SketchView:
    """Sketch-backed evaluation; one fresh instance per clustering call."""

    def __init__(self, pools, instance: int):
        self.pools = pools
        self.instance = instance
        self.config = pools.config
        self._nbhd_cache = {}
        self._agree_memo = {}

    def consume(self, vertices):
        self.pools.consume_instance(self.instance, vertices)

    def neighborhood(self, v, w):
        """Exact closed neighborhood from the close queue, or None."""
        key = (v, w)
        if key not in self._nbhd_cache:
            queue = self.pools.close[v]
            if queue.exact_within(w):
                self._nbhd_cache[key] = frozenset(queue.neighbors_within(w)) | {v}
            else:
                self._nbhd_cache[key] = None
        return self._nbhd_cache[key]

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

    def agreement(self, u, v, s_mask, gamma: Fraction, w) -> bool:
        if u == v:
            return True
        memo_key = (min(u, v), max(u, v), gamma)
        got = self._agree_memo.get(memo_key)
        if got is not None:
            return got
        result = self._agreement_raw(u, v, s_mask, float(gamma), w)
        self._agree_memo[memo_key] = result
        return result

    def _agreement_raw(self, u, v, s_mask, gamma: float, w) -> bool:
        nu = self.neighborhood(u, w)
        nv = self.neighborhood(v, w)
        if nu is not None and nv is not None:
            common_in_s = sum(1 for x in nu if x in nv and s_mask[x])
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
        x_count = sum(1 for x in samp_u if x in samp_v and s_mask[x])
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
        nu = self.neighborhood(u, w)
        beta = params.beta
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


def agreement_query(view, u, v, s_vertices, gamma_key, w, params: AgreementParams):
    s_mask = _as_mask(view, s_vertices)
    return view.agreement(u, v, s_mask, params.gamma(gamma_key), w)


def heaviness_query(view, u, s_vertices, w, params: AgreementParams):
    return view.heaviness(u, _as_mask(view, s_vertices), w, params)


def _as_mask(view, s_vertices):
    n = view.n if isinstance(view, ExactView) else view.pools.n
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(list(s_vertices), dtype=np.int64)] = True
    return mask


def s_structural_clustering(s_vertices, w, params: AgreementParams, view) -> Clustering:
    """Partition S by growing 3-beta agreement clusters around heavy seeds.

    Vertices are visited in ascending PointId order; each unclustered heavy
    vertex claims the unclustered part of its 3-beta agreement set, and the
    rest become singletons. In sketch mode this consumes the view's sketch
    instance for every member of S.
    """
    s_arr = np.unique(np.asarray(list(s_vertices), dtype=np.int64))
    if len(s_arr) == 0:
        raise ValueError("S must be nonempty")
    view.consume(s_arr)
    if isinstance(view, ExactView):
        clusters = _cluster_exact(s_arr, w, params, view)
    else:
        clusters = _cluster_sketch(s_arr, w, params, view)
    result = Clustering(ground_set=s_arr, clusters=clusters)
    result.assert_partition()
    if isinstance(view, ExactView):
        _assert_density(result, w, view)
    return result


def _cluster_exact(s_arr, w, params, view: ExactView):
    adj = view.adjacency(w)
    deg = view.degrees(w)
    k = len(s_arr)
    sub = adj[np.ix_(s_arr, s_arr)]
    d = deg[s_arr].astype(np.int64)
    common = (sub.astype(np.int64) @ sub.astype(np.int64).T)
    stat = d[:, None] + d[None, :] - 2 * common
    maxd = np.maximum.outer(d, d)

    def agree_mask(gamma: Fraction):
        out = stat * gamma.denominator < gamma.numerator * maxd
        np.fill_diagonal(out, True)
        return out

    agree_b = agree_mask(params.beta)
    inside = (agree_b & sub).sum(axis=1)
    eps = params.epsilon
    heavy = (d - inside) * eps.denominator < eps.numerator * d
    agree_3b = agree_mask(3 * params.beta)

    unclustered = np.ones(k, dtype=bool)
    clusters = []
    for i in range(k):
        if heavy[i] and unclustered[i]:
            members = np.flatnonzero(agree_3b[i] & unclustered)
            unclustered[members] = False
            clusters.append(s_arr[members])
    for i in np.flatnonzero(unclustered):
        clusters.append(s_arr[i : i + 1])
    return clusters


def _cluster_sketch(s_arr, w, params, view: SketchView):
    s_mask = np.zeros(view.pools.n, dtype=bool)
    s_mask[s_arr] = True
    unclustered = {int(x) for x in s_arr}
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
            if view.agreement(v, u, s_mask, params.gamma("3beta"), w)
        ]
        unclustered.difference_update(members)
        clusters.append(np.asarray(members, dtype=np.int64))
    for v in sorted(unclustered):
        clusters.append(np.asarray([v], dtype=np.int64))
    return clusters


def _assert_density(result: Clustering, w, view: ExactView):
    adj = view.adjacency(w)
    for cluster in result.clusters:
        if len(cluster) < 2:
            continue
        counts = adj[np.ix_(cluster, cluster)].sum(axis=1)
        if np.any(3 * counts < 2 * len(cluster)):
            raise ClusterInvariantError(
                f"cluster of size {len(cluster)} is not everywhere dense"
            )
