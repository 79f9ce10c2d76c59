"""l-infinity ultrametric fitting via a streaming spanning forest.

Single pass: maintain a minimum spanning forest of the stream with a
buffered Kruskal (the semi-streaming MST of Feigenbaum, Kannan, McGregor,
Suri & Zhang, TCS 2005): the stored edges stay 5n-1 slots, and a filter
that drops arriving edges which cannot enter the forest adds one table
derived from the forest, ceil(log2 n) n words rebuilt at each compaction,
so the state is O~(n) words, the size of the pair query's table. The
max-edge-on-path ultrametric of the forest (built by single linkage) is the
pointwise-maximal ultrametric below D and a 2-approximation.
Two passes: raise every level by half the worst undershoot, which is exactly
optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import StreamSource
from .trees import DomainError, UltrametricTree, gap_max_query, single_linkage_tree


class MstState:
    """Minimum spanning forest of the edges seen so far, in O(n) words.

    Edges are ordered strictly by (weight, max endpoint, min endpoint), so
    the minimum spanning forest is unique and does not depend on the
    ingest order. The state is the forest (at most n-1 edges) followed by
    a buffer of up to 4n new edges, all in int64 arrays of 5n-1 slots.
    When the buffer fills, and on `edges()`, the forest and the buffer are
    sorted together and Kruskal's union-find keeps the first n-1 edges that
    join two components; every edge it drops closes a cycle in which it is
    the largest, so it is in no later minimum forest either.

    An arriving edge whose key exceeds that of the heaviest forest edge on
    the path between its endpoints is the largest on a cycle too, so it is
    dropped before it reaches the buffer (the filter of Filter-Kruskal,
    Osipov, Sanders & Singler, ALENEX 2009). The stored edges stay 5n-1
    slots. Each compaction rebuilds the filter from its own union-find:
    one table derived from the forest, a sparse table of ceil(log2 n) n
    words over its single-linkage leaf order (`trees.gap_max_query`, the
    size of the pair query's table), so the state is O~(n) words.
    """

    def __init__(self, n: int):
        self.n = n
        self.capacity = (n - 1) + 4 * n
        self._w = np.empty(self.capacity, dtype=np.int64)
        self._hi = np.empty(self.capacity, dtype=np.int64)
        self._lo = np.empty(self.capacity, dtype=np.int64)
        self.forest_size = 0   # slots [0, forest_size) hold the forest
        self.size = 0          # slots [forest_size, size) are the buffer
        self._path_rank = None  # see `_compact`; None before the first

    def ingest_batch(self, u, v, w):
        """Add edges from equal-length arrays. Each slice of at most
        `capacity` edges is filtered against the forest, and its survivors
        fill the buffer; when they overflow it, the slice ends at the first
        survivor that does not fit, which is filtered again after the
        compaction."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.int64)
        start = 0
        while start < len(w):
            stop = min(start + self.capacity, len(w))
            hi = np.maximum(u[start:stop], v[start:stop])
            lo = np.minimum(u[start:stop], v[start:stop])
            wt = w[start:stop]
            (fresh,) = self._may_join(wt, hi, lo).nonzero()
            room = self.capacity - self.size
            if len(fresh) > room:
                stop = start + int(fresh[room])
                fresh = fresh[:room]
            dst = slice(self.size, self.size + len(fresh))
            self._w[dst] = wt[fresh]
            self._hi[dst] = hi[fresh]
            self._lo[dst] = lo[fresh]
            self.size += len(fresh)
            start = stop
            if self.size == self.capacity:
                self._compact()

    def _may_join(self, w, hi, lo):
        """Mask of the edges that may enter a later minimum forest: those
        whose endpoints the forest does not join, and those lighter, under
        the full key, than the heaviest forest edge on the forest path."""
        if self._path_rank is None:
            return np.ones(len(w), dtype=bool)
        top = np.empty(len(w), dtype=np.int64)
        self._path_rank(hi, lo, top)
        joined = top < self.forest_size
        np.minimum(top, self.forest_size - 1, out=top)
        pw, phi, plo = self._w[top], self._hi[top], self._lo[top]
        heavier = (pw < w) | ((pw == w) & ((phi < hi) | ((phi == hi) & (plo < lo))))
        return ~(joined & heavier)

    def _compact(self):
        """Kruskal over forest plus buffer; keep the result as the forest,
        sorted by key, and rebuild the filter from the union-find."""
        n, size = self.n, self.size
        order = np.lexsort((self._lo[:size], self._hi[:size], self._w[:size]))
        parent = list(range(n))
        # each component's points as a list from head[root] along succ,
        # which ends at the root; joining root a under root b puts a's list
        # before b's and records the rank of the joining edge as the gap
        # between them
        head = list(range(n))
        succ = [-1] * n
        gap = [0] * n
        keep = []
        limit = n - 1
        for i, a, b in zip(
            order.tolist(), self._hi[order].tolist(), self._lo[order].tolist()
        ):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a == b:
                continue
            parent[a] = b
            succ[a] = head[b]
            gap[a] = len(keep)
            head[b] = head[a]
            keep.append(i)
            if len(keep) == limit:
                break
        kept = len(keep)
        for arr in (self._w, self._hi, self._lo):
            arr[:kept] = arr[keep]
        self.forest_size = self.size = kept
        # the components one after another, kept apart by a gap of rank
        # `kept`, which no forest edge has: in this single-linkage order the
        # largest gap between two points is the rank of the heaviest edge
        # on their forest path, or `kept` where there is no path
        leaves, gaps = [], []
        for root in range(n):
            if parent[root] == root:
                x = head[root]
                while x >= 0:
                    leaves.append(x)
                    gaps.append(gap[x])
                    x = succ[x]
                gaps[-1] = kept
        self._path_rank = gap_max_query(leaves, gaps[:-1])

    def edges(self):
        """The forest as (weight, u, v) with u < v, in ascending order."""
        self._compact()
        size = self.size
        return sorted(
            zip(
                self._w[:size].tolist(),
                self._lo[:size].tolist(),
                self._hi[:size].tolist(),
            )
        )


@dataclass(frozen=True)
class LinfExactResult:
    tree: UltrametricTree
    optimal_cost: int          # half the worst undershoot of the one-pass tree
    certificate_pair: tuple    # pair attaining the undershoot


def fit_linf_min_decrement(source: StreamSource) -> UltrametricTree:
    """One-pass pointwise-maximal ultrametric below D (2-approximate)."""
    state = MstState(source.n)
    state.ingest_batch(*source.arrays())
    return single_linkage_tree(source.n, state.edges())


def fit_linf_exact(source: StreamSource) -> LinfExactResult:
    """Two passes: min-decrement tree, then raise all levels by slack/2."""
    under = fit_linf_min_decrement(source)
    u, v, d = source.arrays()
    gap = under.distances(u, v)
    np.subtract(d, gap, out=gap)
    slack, cert = 0, None
    if len(gap):
        if gap.min() < 0:
            raise DomainError("min-decrement output exceeded an input distance")
        # the first pair of maximal gap in pass order certifies the bound
        first = int(np.argmax(gap))
        slack = int(gap[first])
        cert = (int(u[first]), int(v[first]))
    if slack % 2 != 0:
        raise DomainError("half-unit shift not representable; use even inputs")
    tree = under.shift_levels(slack // 2) if slack else under
    return LinfExactResult(tree=tree, optimal_cost=slack // 2, certificate_pair=cert)
