"""Per-vertex neighborhood sketches, close-neighbor queues, degree
estimation, and the compressed weight set (the single-pass streaming state).

A sketch for vertex v at ladder sizes (s, s') keeps weight-grouped samples
of v's incident edges whose far endpoint falls in a pseudo-random set
R_{s'}, pruning the heaviest weight group whenever the total exceeds the
budget (1 + zeta/2) * (s/s') * sample_factor. The resulting cutoff makes
the final state independent of stream order, which the bulk builder
exploits (see `bulk_ingest`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .streams import MemoryMeter


class PhaseError(RuntimeError):
    pass


class ContractViolation(RuntimeError):
    """A sketch instance was consulted twice by clustering calls."""


@dataclass
class SketchConfig:
    """Knobs for the streaming sketch phase.

    The conservative defaults follow the analysis regime (lam = 0.01 and
    zeta <= lam/10); desk-scale runs use the `scaled` constructor, which
    trades the asymptotic constants for parameters that actually sample at
    small n.
    """

    close_capacity: int = 16
    sample_factor: int = 8
    min_size: int = 4
    instance_count: int = 8
    seed: int = 0
    zeta: float = 0.001
    lam: float = 0.01
    ladder_base: float = 2.0

    def __post_init__(self):
        if not (0 < self.zeta < 1):
            raise ValueError("zeta must be in (0,1)")
        if not (1 < self.ladder_base <= 2):
            raise ValueError("ladder_base must be in (1, 2]")
        if self.close_capacity < 1 or self.instance_count < 1:
            raise ValueError("close_capacity and instance_count must be >= 1")
        if self.sample_factor < 1 or self.min_size < 1:
            raise ValueError("sample_factor and min_size must be >= 1")

    @classmethod
    def scaled(cls, n, seed=0, **overrides):
        """Desk-scale parameters: generous sampling so queries are usable."""
        lg = max(1, math.ceil(math.log2(max(n, 2))))
        values = dict(
            close_capacity=max(8, 2 * lg),
            sample_factor=max(8, n),
            min_size=max(2, lg // 2),
            instance_count=max(8, 2 * lg),
            seed=seed,
            zeta=0.02,
            lam=0.25,
        )
        values.update(overrides)
        return cls(**values)

    @classmethod
    def polylog_shape(cls, n, seed=0, **overrides):
        """Polylogarithmic shape with unit constants, for space benchmarks.

        Every budget is a function of log2(n) only, so the retained state
        grows as n * polylog(n) words; the statistical constants are far
        below what the accuracy claims need and are not meant for fitting.
        """
        lg = max(1, math.ceil(math.log2(max(n, 2))))
        values = dict(
            close_capacity=2 * lg,
            sample_factor=2,
            min_size=lg,
            instance_count=1,
            seed=seed,
            zeta=0.02,
            lam=0.25,
        )
        values.update(overrides)
        return cls(**values)

    def ladder(self, n) -> list:
        """Distinct sketch sizes n, n/base, ..., down to min_size."""
        sizes = []
        s = max(n, 1)
        floor = min(self.min_size, s)
        while s > floor:
            sizes.append(s)
            s = max(floor, math.ceil(s / self.ladder_base))
        sizes.append(floor)
        return sizes

    def budget(self, s, s_prime) -> int:
        return max(1, int((1 + self.zeta / 2) * (s / s_prime) * self.sample_factor))

    def sample_probability(self, s_prime) -> float:
        return min(1.0, self.sample_factor / s_prime)


class SampleMembership:
    """Keyed pseudo-random membership predicate for the sets R_{s'}.

    Realized as lazily cached boolean arrays keyed on (instance, s'); the
    draw depends only on (seed, instance, s'), never on stream order.
    """

    def __init__(self, config: SketchConfig, n: int):
        self.config = config
        self.n = n
        self._masks = {}

    def mask(self, instance: int, s_prime: int) -> np.ndarray:
        key = (instance, s_prime)
        got = self._masks.get(key)
        if got is None:
            entropy = np.random.SeedSequence(
                (self.config.seed, 101, instance, s_prime)
            )
            rng = np.random.Generator(np.random.Philox(seed=entropy))
            got = rng.random(self.n) < self.config.sample_probability(s_prime)
            self._masks[key] = got
        return got

    def member(self, instance: int, s_prime: int, vertex: int) -> bool:
        return bool(self.mask(instance, s_prime)[vertex])

    def mask_count(self) -> int:
        return len(self._masks)


class VertexSketch:
    """Weight-grouped sample collections for one (owner, s, s') triple."""

    __slots__ = ("owner", "s", "s_prime", "budget", "collections", "counter", "w_m")

    def __init__(self, owner, s, s_prime, budget):
        self.owner = owner
        self.s = s
        self.s_prime = s_prime
        self.budget = budget
        self.collections: dict[int, list] = {}
        self.counter = 0
        self.w_m = 0

    def ingest(self, other: int, w: int) -> int:
        """Offer one sampled edge; returns the change in retained count."""
        if self.w_m != 0 and w >= self.w_m:
            return 0
        self.collections.setdefault(w, []).append(other)
        self.counter += 1
        delta = 1
        while self.counter > self.budget:
            top = max(self.collections)
            dropped = self.collections.pop(top)
            self.w_m = top
            self.counter -= len(dropped)
            delta -= len(dropped)
        return delta

    @property
    def governing_weight(self):
        return max(self.collections) if self.collections else None

    def count_at_most(self, w: int) -> int:
        return sum(len(v) for k, v in self.collections.items() if k <= w)

    def count_above(self, w: int) -> int:
        return sum(len(v) for k, v in self.collections.items() if k > w)

    def members_at_most(self, w: int):
        out = []
        for k, v in self.collections.items():
            if k <= w:
                out.extend(v)
        return out

    def weights(self):
        return list(self.collections.keys())


class CloseNeighbors:
    """Bounded queue of the nearest neighbors, ties broken by PointId."""

    __slots__ = ("owner", "capacity", "_heap", "overflowed")

    def __init__(self, owner, capacity):
        self.owner = owner
        self.capacity = capacity
        self._heap = []  # max-heap via negated (distance, neighbor)
        self.overflowed = False

    def offer(self, d: int, neighbor: int) -> int:
        item = (-d, -neighbor)
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, item)
            return 2
        self.overflowed = True
        if item > self._heap[0]:
            heapq.heapreplace(self._heap, item)
        return 0

    @property
    def full(self):
        return len(self._heap) >= self.capacity

    def exact_within(self, w: int) -> bool:
        """True when the queue provably holds every neighbor at weight w."""
        if not self.overflowed:
            return True
        return -self._heap[0][0] > w

    def count_within(self, w: int) -> int:
        return sum(1 for nd, _ in self._heap if -nd <= w)

    def neighbors_within(self, w: int):
        return [-nb for nd, nb in self._heap if -nd <= w]

    def entries(self):
        return sorted((-nd, -nb) for nd, nb in self._heap)

    @classmethod
    def _from_sorted(cls, owner, capacity, ds, nbs, total):
        queue = cls(owner, capacity)
        queue._heap = [(-int(d), -int(nb)) for d, nb in zip(ds, nbs)]
        heapq.heapify(queue._heap)
        queue.overflowed = total > capacity
        return queue


class CompressedSet:
    """Sorted distinct weights with successor/predecessor queries."""

    def __init__(self, weights):
        self.weights = np.unique(np.asarray(list(weights), dtype=np.int64))

    def __len__(self):
        return len(self.weights)

    def __contains__(self, w):
        i = np.searchsorted(self.weights, w)
        return i < len(self.weights) and self.weights[i] == w

    def succ(self, w):
        """Smallest stored weight > w, or None."""
        i = np.searchsorted(self.weights, w, side="right")
        return int(self.weights[i]) if i < len(self.weights) else None

    def pred(self, w):
        """Largest stored weight < w; 0 when none exists."""
        i = np.searchsorted(self.weights, w, side="left")
        return int(self.weights[i - 1]) if i > 0 else 0


class SketchPools:
    """All streaming state: close queues plus instance_count sketch pools."""

    def __init__(self, config: SketchConfig, n: int, meter: MemoryMeter = None):
        self.config = config
        self.n = n
        self.meter = meter if meter is not None else MemoryMeter()
        self.membership = SampleMembership(config, n)
        self.sizes = config.ladder(n)
        self.pairs = [
            (s, sp)
            for s in self.sizes
            for sp in self.sizes
            if s / 2 <= sp <= s
        ]
        self.close = [CloseNeighbors(v, config.close_capacity) for v in range(n)]
        self.sketches: dict = {}
        self.w_max_seen = 0
        self.finalized = False
        self._used_instances: dict[int, np.ndarray] = {}

    # -- incremental path ------------------------------------------------------

    def ingest_entry(self, entry):
        if self.finalized:
            raise PhaseError("stream entry after finalize")
        u, v, d = entry.u, entry.v, entry.d
        self.w_max_seen = max(self.w_max_seen, d)
        words = 0
        for owner, other in ((u, v), (v, u)):
            words += self.close[owner].offer(d, other)
            for instance in range(self.config.instance_count):
                for s, sp in self.pairs:
                    if not self.membership.member(instance, sp, other):
                        continue
                    key = (instance, owner, s, sp)
                    sk = self.sketches.get(key)
                    if sk is None:
                        sk = VertexSketch(owner, s, sp, self.config.budget(s, sp))
                        self.sketches[key] = sk
                    words += 2 * sk.ingest(other, d)
        self.meter.add("sketch_state", words)

    # -- bulk path -------------------------------------------------------------

    def bulk_ingest(self, u, v, d, materialize=True, materialize_owners=None):
        """Vectorized construction with the same final state as entry-by-entry
        ingestion (the per-sketch cutoff depends only on the sampled weight
        multiset, not on arrival order).

        The entries come from a `StreamSource`, which guarantees each pair
        exactly once, so the pools keep no record of the pairs seen.
        """
        if self.finalized:
            raise PhaseError("stream entries after finalize")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        d = np.asarray(d, dtype=np.int64)
        if len(d):
            self.w_max_seen = max(self.w_max_seen, int(d.max()))

        owner = np.concatenate([u, v])
        other = np.concatenate([v, u])
        weight = np.concatenate([d, d])
        base_order = np.lexsort((other, weight, owner))
        owner_s = owner[base_order]
        other_s = other[base_order]
        weight_s = weight[base_order]
        starts = np.searchsorted(owner_s, np.arange(self.n))
        ends = np.searchsorted(owner_s, np.arange(self.n), side="right")

        words = 0
        cap = self.config.close_capacity
        for vert in range(self.n):
            lo, hi = starts[vert], ends[vert]
            take = min(cap, hi - lo)
            self.close[vert] = CloseNeighbors._from_sorted(
                vert, cap, weight_s[lo : lo + take], other_s[lo : lo + take], hi - lo
            )
            words += 2 * take

        budgets = {(s, sp): self.config.budget(s, sp) for s, sp in self.pairs}
        for instance in range(self.config.instance_count):
            for sp in sorted({sp for _, sp in self.pairs}, reverse=True):
                mask = self.membership.mask(instance, sp)
                sel = mask[other_s]
                ow = owner_s[sel]
                ot = other_s[sel]
                wt = weight_s[sel]
                if not len(ow):
                    continue
                seg_starts = np.searchsorted(ow, np.arange(self.n))
                seg_ends = np.searchsorted(ow, np.arange(self.n), side="right")
                lengths = seg_ends - seg_starts
                for s in (s for s, sp2 in self.pairs if sp2 == sp):
                    b = budgets[(s, sp)]
                    # cutoff per owner: weight of the (budget+1)-th smallest
                    over = lengths > b
                    cut_at = np.where(over, seg_starts + np.minimum(lengths - 1, b), -1)
                    w_m = np.where(over, wt[np.maximum(cut_at, 0)], 0)
                    keep = np.ones(len(ow), dtype=bool)
                    if over.any():
                        keep = wt < w_m[ow]
                        keep[~over[ow]] = True
                    peak_items = np.minimum(lengths, b + 1)
                    self.meter.add("sketch_state", 2 * int(peak_items.sum()))
                    kept = int(keep.sum())
                    self.meter.add(
                        "sketch_state", 2 * (kept - int(peak_items.sum()))
                    )
                    if materialize:
                        ko = ow[keep]
                        kt = ot[keep]
                        kw = wt[keep]
                        bounds = np.searchsorted(ko, np.arange(self.n))
                        bounds_hi = np.searchsorted(ko, np.arange(self.n), side="right")
                        wanted = np.unique(ko)
                        if materialize_owners is not None:
                            wanted = np.intersect1d(
                                wanted, np.asarray(materialize_owners)
                            )
                        for vert in wanted:
                            sk = VertexSketch(int(vert), s, sp, b)
                            a, z = int(bounds[vert]), int(bounds_hi[vert])
                            cuts = np.flatnonzero(np.diff(kw[a:z])) + 1
                            for piece in np.split(np.arange(a, z), cuts):
                                wgt = int(kw[piece[0]])
                                sk.collections[wgt] = [int(kt[i]) for i in piece]
                            sk.counter = z - a
                            if over[vert]:
                                sk.w_m = int(w_m[vert])
                            self.sketches[(instance, int(vert), s, sp)] = sk
        self.meter.add("close_queues", words)
        mask_words = self.membership.mask_count() * ((self.n + 63) // 64)
        self.meter.set_words("membership", mask_words)

    # -- finalize and queries --------------------------------------------------

    def finalize(self):
        self.finalized = True

    def _require_finalized(self):
        if not self.finalized:
            raise PhaseError("queries require finalize()")

    def get_sketch(self, instance, v, s, s_prime):
        return self.sketches.get((instance, v, s, s_prime))

    def rung_below(self, s):
        """Next ladder size strictly below s, or s itself at the floor."""
        idx = self.sizes.index(s)
        return self.sizes[idx + 1] if idx + 1 < len(self.sizes) else s

    def governing_ladder(self, v, instance):
        """(governing_weight, size, sketch) for v's s = s' sketches."""
        out = []
        for s in self.sizes:
            sk = self.sketches.get((instance, v, s, s))
            if sk is not None and sk.collections:
                out.append((sk.governing_weight, s, sk))
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    def report_sketch(self, v, w, instance):
        """Choose the sketch whose governing weight brackets w.

        Returns (governing_weight, size, sketch) or None when v holds no
        sketches at all (callers then fall back to the close queue).
        """
        self._require_finalized()
        ladder = self.governing_ladder(v, instance)
        if not ladder:
            return None
        # ties on governing weight prefer the smallest size: its inclusion
        # probability is highest, so the count estimate is tightest
        upper = next((t for t in ladder if t[0] >= w), None)
        below = [t for t in ladder if t[0] < w]
        lower = None
        if below:
            best_gw = max(t[0] for t in below)
            lower = min((t for t in below if t[0] == best_gw), key=lambda t: t[1])
        if upper is not None:
            heavier = upper[2].count_above(w)
            if heavier < 4 * self.config.zeta * self.config.sample_factor:
                return upper
        return lower if lower is not None else upper

    def estimate_degree(self, v, w, instance):
        """d_w(v) estimate; exact from the close queue whenever possible."""
        self._require_finalized()
        queue = self.close[v]
        if queue.exact_within(w):
            return queue.count_within(w) + 1
        reported = self.report_sketch(v, w, instance)
        if reported is None:
            return queue.count_within(w) + 1
        sk = reported[2]
        prob = self.config.sample_probability(sk.s_prime)
        return int(round(sk.count_at_most(w) / prob)) + 1

    def build_compressed_set(self) -> CompressedSet:
        self._require_finalized()
        weights = set()
        for queue in self.close:
            for dist, _ in queue._heap:
                weights.add(-dist)
        for sk in self.sketches.values():
            weights.update(sk.weights())
        return CompressedSet(weights)

    def consume_instance(self, instance, vertices):
        """Mark a sketch instance as used for these vertices (once only)."""
        used = self._used_instances.get(instance)
        if used is None:
            used = np.zeros(self.n, dtype=bool)
            self._used_instances[instance] = used
        vertices = np.asarray(vertices, dtype=np.int64)
        if used[vertices].any():
            hit = int(vertices[used[vertices]][0])
            raise ContractViolation(
                f"sketch instance {instance} reused for vertex {hit}"
            )
        used[vertices] = True
