"""l-infinity ultrametric fitting via a streaming spanning forest.

Single pass: maintain a minimum spanning forest of the stream with a
buffered Kruskal (the semi-streaming MST of Feigenbaum, Kannan, McGregor,
Suri & Zhang, TCS 2005) in O(n) words; the max-edge-on-path ultrametric of
the forest (built by single linkage) is the pointwise-maximal ultrametric
below D and a 2-approximation.
Two passes: raise every level by half the worst undershoot, which is exactly
optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import StreamSource
from .trees import DomainError, UltrametricTree, single_linkage_tree


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
    """

    def __init__(self, n: int):
        self.n = n
        self.capacity = (n - 1) + 4 * n
        self._w = np.empty(self.capacity, dtype=np.int64)
        self._hi = np.empty(self.capacity, dtype=np.int64)
        self._lo = np.empty(self.capacity, dtype=np.int64)
        self.forest_size = 0   # slots [0, forest_size) hold the forest
        self.size = 0          # slots [forest_size, size) are the buffer

    def ingest(self, u: int, v: int, w: int):
        """Add one edge to the buffer, compacting when it is full."""
        i = self.size
        self._w[i] = w
        self._hi[i] = max(u, v)
        self._lo[i] = min(u, v)
        self.size = i + 1
        if self.size == self.capacity:
            self._compact()

    def ingest_batch(self, u, v, w):
        """Add edges from equal-length arrays, one buffer-sized slice at a time."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.int64)
        start = 0
        while start < len(w):
            take = min(self.capacity - self.size, len(w) - start)
            stop = start + take
            dst = slice(self.size, self.size + take)
            self._w[dst] = w[start:stop]
            np.maximum(u[start:stop], v[start:stop], out=self._hi[dst])
            np.minimum(u[start:stop], v[start:stop], out=self._lo[dst])
            self.size += take
            start = stop
            if self.size == self.capacity:
                self._compact()

    def _compact(self):
        """Kruskal over forest plus buffer; keep the result as the forest."""
        size = self.size
        order = np.lexsort((self._lo[:size], self._hi[:size], self._w[:size]))
        parent = list(range(self.n))
        keep = []
        limit = self.n - 1
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
            keep.append(i)
            if len(keep) == limit:
                break
        kept = len(keep)
        for arr in (self._w, self._hi, self._lo):
            arr[:kept] = arr[keep]
        self.forest_size = self.size = kept

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


def _build_forest(source: StreamSource, pass_index=0) -> MstState:
    u_arr, v_arr, d_arr = source.arrays(pass_index)
    state = MstState(source.n)
    state.ingest_batch(u_arr, v_arr, d_arr)
    return state


@dataclass(frozen=True)
class LinfExactResult:
    tree: UltrametricTree
    optimal_cost: int
    slack: int                 # worst undershoot of the one-pass tree
    certificate_pair: tuple    # pair attaining the undershoot


def fit_linf_min_decrement(source: StreamSource) -> UltrametricTree:
    """One-pass pointwise-maximal ultrametric below D (2-approximate)."""
    state = _build_forest(source)
    if source.n == 1:
        return UltrametricTree.single_leaf()
    return single_linkage_tree(source.n, state.edges())


def fit_linf_exact(source: StreamSource) -> LinfExactResult:
    """Two passes: min-decrement tree, then raise all levels by slack/2."""
    under = fit_linf_min_decrement(source)
    induced = under.induced_matrix()
    u, v, d = source.arrays(1)
    gap = induced[u, v]
    del induced
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
    return LinfExactResult(
        tree=tree, optimal_cost=slack // 2, slack=slack, certificate_pair=cert
    )
