"""Per-vertex neighborhood sketches, close-neighbor queues, degree
estimation, and the compressed weight set (the single-pass streaming state).

A sketch for vertex v at ladder sizes (s, s') keeps weight-grouped samples
of v's incident edges whose far endpoint falls in a pseudo-random set
R_{s'}, pruning the heaviest weight group whenever the total exceeds the
budget (1 + zeta/2) * (s/s') * sample_factor. The resulting cutoff makes
the final state independent of stream order, which the bulk builder
exploits (see `bulk_ingest`).

The state is flat arrays, not per-vertex objects. The samples R_{s'} of
every (instance, s') are drawn when the pools are built, as boolean masks
(`masks`). Each distinct mask content stores one CSR `SketchBlock` (owner
offsets, int32 neighbours, int64 weights, sorted by (owner, weight,
neighbour)), shared by every (instance, s') that drew it; each (instance,
s, s') `SketchPool` stores only how many entries of each owner's run it
keeps. Instances whose samples R_{s'} coincide share the pools too. The
close queues are one (n, close_capacity) pair of weight and neighbour
arrays. One `bulk_ingest` builds and finalizes the state; before it every
query raises `PhaseError`, and after it the queries answer for a whole
vertex array at once and keep no state: `close_within`, `rungs` (which
sketch each vertex reports), `degrees`, and `entries`, which flattens the
vertices' kept runs in one pool. They loop over ladder rungs, never over
vertices. Besides them, `SketchView` reads three arrays directly: `masks`,
`close_others` at the queue slots `close_within` marks, and a pool's
`kept` lengths, which say whether a vertex holds a sketch without copying
its run through `entries`. `report_sketch` and `estimate_degree` remain
only as one-vertex wrappers for the benchmark's patch table, until the
program times its own layers. The pools count the machine words they model
(`words`) and the running maximum of that count (`peak_words`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# below every weight and its negation: the governing weight of a sketch a
# vertex does not hold
_NO_SKETCH = np.iinfo(np.int64).min


class PhaseError(RuntimeError):
    pass


class ContractViolation(RuntimeError):
    """A sketch instance was consulted twice by clustering calls."""


@dataclass
class SketchConfig:
    """Knobs for the streaming sketch phase.

    The conservative defaults follow the analysis regime (zeta = 0.001);
    desk-scale runs use the `scaled` constructor, which
    trades the asymptotic constants for parameters that actually sample at
    small n.
    """

    close_capacity: int = 16
    sample_factor: int = 8
    min_size: int = 4
    instance_count: int = 8
    seed: int = 0
    zeta: float = 0.001

    def __post_init__(self):
        if not (0 < self.zeta < 1):
            raise ValueError("zeta must be in (0,1)")
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
        )
        values.update(overrides)
        return cls(**values)

    def ladder(self, n) -> list:
        """Distinct sketch sizes n, n/2, ..., down to min_size."""
        sizes = []
        s = max(n, 1)
        floor = min(self.min_size, s)
        while s > floor:
            sizes.append(s)
            s = max(floor, math.ceil(s / 2))
        sizes.append(floor)
        return sizes

    def budget(self, s, s_prime) -> int:
        return max(1, int((1 + self.zeta / 2) * (s / s_prime) * self.sample_factor))

    def sample_probability(self, s_prime) -> float:
        return min(1.0, self.sample_factor / s_prime)


@dataclass
class SketchBlock:
    """Kept entries of the widest-budget pool among those whose R_{s'}
    masks have one content, sorted by (owner, weight, other); owner v's run
    is offsets[v]:offsets[v+1]."""

    offsets: np.ndarray  # int64, n + 1
    others: np.ndarray  # int32
    weights: np.ndarray  # int64


@dataclass
class SketchPool:
    """One (instance, s, s') pool: owner v keeps the first kept[v] entries
    of its run in the group's shared block."""

    s: int
    block: SketchBlock
    kept: np.ndarray  # int64, n


def sorted_distinct(values) -> np.ndarray:
    """The sorted distinct values of an array, flattened, as `np.unique`
    gives them, from one sort and one comparison of neighbours. numpy's
    values-only `np.unique` hashes instead, at about ten times the cost of
    the sort on the m distances of a stream, and imports `numpy.ma`."""
    values = np.sort(values, axis=None)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class CompressedSet:
    """Sorted distinct weights with predecessor queries."""

    def __init__(self, weights):
        self.weights = sorted_distinct(np.asarray(weights, dtype=np.int64))

    def __len__(self):
        return len(self.weights)

    def pred(self, w):
        """Largest stored weight < w; 0 when none exists."""
        i = np.searchsorted(self.weights, w, side="left")
        return int(self.weights[i - 1]) if i > 0 else 0


class SketchPools:
    """All streaming state: close queues plus instance_count sketch pools.

    `masks` maps (instance, s') to the boolean mask of the sample R_{s'}
    over the vertices. Every mask is drawn when the pools are built, from
    (seed, instance, s') alone, so the samples are fixed before any entry
    arrives. `sketches` maps (instance, s, s') to a `SketchPool`. Every
    pool whose R_{s'} mask has a given content, of any instance and any s',
    points at one `SketchBlock`; instances whose R_{s'} masks coincide also
    share the pools of that s'.

    The close queues are flat: row v of `close_weights` and `close_others`
    holds v's `close_lengths[v]` nearest neighbours in (weight, neighbour)
    order, and `close_overflow[v]` says v had more neighbours than fit.
    """

    def __init__(self, config: SketchConfig, n: int):
        self.config = config
        self.n = n
        # modelled machine words held, and their running maximum
        self.words = 0
        self.peak_words = 0
        self.sizes = config.ladder(n)
        self.masks = {}
        for instance in range(config.instance_count):
            for sp in self.sizes:
                p = config.sample_probability(sp)
                if p >= 1:
                    # every draw in [0, 1) is below 1
                    mask = np.ones(n, dtype=bool)
                else:
                    entropy = np.random.SeedSequence((config.seed, 101, instance, sp))
                    rng = np.random.Generator(np.random.Philox(seed=entropy))
                    mask = rng.random(n) < p
                self.masks[(instance, sp)] = mask
        self.pairs = [
            (s, sp)
            for s in self.sizes
            for sp in self.sizes
            if s / 2 <= sp <= s
        ]
        cap = config.close_capacity
        self.close_weights = np.zeros((n, cap), dtype=np.int64)
        self.close_others = np.zeros((n, cap), dtype=np.int32)
        self.close_lengths = np.zeros(n, dtype=np.int64)
        self.close_overflow = np.zeros(n, dtype=bool)
        self.sketches: dict = {}
        self.finalized = False
        self._used_instances: dict[int, np.ndarray] = {}

    def bulk_ingest(self, u, v, d):
        """Build the whole state from one pass of (u, v, d) arrays.

        A sketch's final state does not depend on arrival order: whatever
        the order, it keeps exactly the sampled weights strictly below the
        weight of the (budget+1)-th smallest sampled entry (all of them when
        there are at most budget), so the cutoff is computed per owner on
        weight-sorted runs. A pool's kept entries are thus a prefix of each
        owner's weight-sorted run, and a wider budget keeps a longer
        prefix. So every pool whose R_{s'} mask has the same content, of
        any instance and any s', reads one CSR `SketchBlock`: the prefix of
        the widest budget among them. Each pool stores only its per-owner
        kept lengths, and `words` still counts every pool.

        The sort is freed as it goes: once the entries are in (owner,
        weight, neighbour) order only the sorted neighbours (int32) and
        weights are held, with each owner's run bounds. A block whose
        widest pool keeps every sampled entry, as every block does under
        `scaled`, holds those sorted (or mask-filtered) arrays themselves.

        The entries come from a `StreamSource`, which guarantees each pair
        exactly once, so the pools keep no record of the pairs seen. One
        call builds the whole state and finalizes it; a second call, or one
        after `finalize`, raises `PhaseError` instead of replacing the
        state with a part of the stream.
        """
        if self.finalized:
            raise PhaseError("stream entries after finalize")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        d = np.asarray(d, dtype=np.int64)

        owner = np.concatenate([u, v])
        other = np.concatenate([v, u], dtype=np.int32)
        weight = np.concatenate([d, d])
        order = np.lexsort((other, weight, owner))
        bounds = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=self.n), out=bounds[1:])
        del owner
        other = other[order]
        weight = weight[order]
        del order

        # close queues: the first close_capacity entries of each owner's run
        cap = self.config.close_capacity
        runs = np.diff(bounds)
        lengths = np.minimum(runs, cap)
        held = np.arange(cap) < lengths[:, None]
        taken = (bounds[:-1, None] + np.arange(cap))[held]
        self.close_weights[held] = weight[taken]
        self.close_others[held] = other[taken]
        self.close_lengths = lengths
        self.close_overflow = runs > cap

        sharing = {}  # mask content -> (mask, the s' whose masks have it)
        for (_, sp), mask in self.masks.items():
            sharing.setdefault(mask.tobytes(), (mask, set()))[1].add(sp)
        groups = {
            content: self._build_group(mask, sps, bounds, other, weight)
            for content, (mask, sps) in sharing.items()
        }
        for (instance, sp), mask in self.masks.items():
            pools, charges = groups[mask.tobytes()][sp]
            for peak_items, kept in charges:
                self._charge(2 * peak_items)
                self._charge(2 * (kept - peak_items))
            for pool in pools:
                self.sketches[(instance, pool.s, sp)] = pool
        self._charge(2 * int(lengths.sum()))
        self._charge(len(self.masks) * ((self.n + 63) // 64))
        self.finalize()

    def _charge(self, words):
        self.words += int(words)
        self.peak_words = max(self.peak_words, self.words)

    def _build_group(self, mask, sps, bounds, other, weight):
        """The pools of every s' in `sps` whose R_{s'} mask is `mask`, which
        share one block, with the (peak, kept) entry counts of each pool for
        `words`, by s'; no pools when the mask samples no entry. `bounds`
        delimits each owner's run of the sorted `other` and `weight`."""
        if not mask.all():
            (picked,) = mask[other].nonzero()
            bounds = np.searchsorted(picked, bounds)
            other, weight = other[picked], weight[picked]
        if not len(weight):
            return {sp: ([], []) for sp in sps}
        seg_starts = bounds[:-1]
        lengths = np.diff(bounds)
        # where each run of equal weight starts: a pool keeps an owner's
        # entries below the weight of its (budget+1)-th smallest, that is,
        # up to the start of that entry's run or of the owner's run
        fresh = np.ones(len(weight), dtype=bool)
        np.not_equal(weight[1:], weight[:-1], out=fresh[1:])
        run_starts = np.flatnonzero(fresh)
        kept_by_pool = {}
        charges = {sp: [] for sp in sps}
        for s, sp in self.pairs:
            if sp not in charges:
                continue
            b = self.config.budget(s, sp)
            over = lengths > b
            kept = lengths.copy()
            cut = seg_starts[over] + b
            run = run_starts[np.searchsorted(run_starts, cut, side="right") - 1]
            kept[over] = np.maximum(run, seg_starts[over]) - seg_starts[over]
            charges[sp].append((int(np.minimum(lengths, b + 1).sum()), int(kept.sum())))
            kept_by_pool[(s, sp)] = kept
        # the widest budget keeps the longest prefix, which the block stores;
        # when it keeps every entry the block holds the sampled arrays
        widest = kept_by_pool[max(kept_by_pool, key=lambda p: self.config.budget(*p))]
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(widest, out=offsets[1:])
        if offsets[-1] < len(weight):
            taken = np.arange(offsets[-1]) + np.repeat(seg_starts - offsets[:-1], widest)
            other, weight = other[taken], weight[taken]
        block = SketchBlock(offsets, other, weight)
        pools = {sp: [] for sp in sps}
        for (s, sp), kept in kept_by_pool.items():
            pools[sp].append(SketchPool(s, block, kept))
        return {sp: (pools[sp], charges[sp]) for sp in sps}

    # -- finalize and queries --------------------------------------------------

    def finalize(self):
        """End the ingest phase. `bulk_ingest` ends with this call, so only
        pools that are given no stream need it."""
        self.finalized = True

    def _require_finalized(self):
        if not self.finalized:
            raise PhaseError("queries require bulk_ingest() or finalize()")

    def entries(self, instance, s, s_prime, vertices):
        """The kept entries of `vertices` in pool (instance, s, s'), one run
        per vertex in the order given: each entry's position in `vertices`,
        its weight and its neighbour. Empty when the pool does not exist."""
        self._require_finalized()
        pool = self.sketches.get((instance, s, s_prime))
        if pool is None:
            return (np.zeros(0, dtype=np.int64),) * 3
        kept = pool.kept[vertices]
        at = np.repeat(np.arange(len(vertices)), kept)
        taken = np.repeat(pool.block.offsets[vertices] - np.cumsum(kept) + kept, kept)
        taken += np.arange(len(taken))
        return at, pool.block.weights[taken], pool.block.others[taken]

    def close_within(self, vertices, w):
        """Which of `vertices` have exact close queues at w (the queue
        provably holds every neighbour at w), and the mask of their queue
        entries at weight <= w."""
        self._require_finalized()
        weights = self.close_weights[vertices]
        exact = ~self.close_overflow[vertices] | (weights[:, -1] > w)
        within = weights <= w
        within &= np.arange(weights.shape[1]) < self.close_lengths[vertices, None]
        return exact, within

    def rungs(self, vertices, w, instance):
        """Ladder index of the s = s' sketch reported for each of
        `vertices` at w, or -1 where the vertex holds none.

        Of the sketches whose governing (heaviest kept) weight is >= w the
        upper has the least, of those below w the lower has the greatest;
        ties go to the smallest size, whose inclusion probability and so
        count estimate are best, which is the largest index. The upper is
        reported unless a lower exists and the upper keeps 4 zeta
        sample_factor or more entries above w.
        """
        self._require_finalized()
        vertices = np.asarray(vertices, dtype=np.int64)
        if not len(vertices):
            return vertices
        k, top = len(vertices), len(self.sizes) - 1
        gw = np.full((k, top + 1), _NO_SKETCH, dtype=np.int64)
        for r, s in enumerate(self.sizes):
            pool = self.sketches.get((instance, s, s))
            if pool is not None:
                kept = pool.kept[vertices]
                (held,) = kept.nonzero()
                last = pool.block.offsets[vertices[held]] + kept[held] - 1
                gw[held, r] = pool.block.weights[last]
        # the upper sketch maximises -gw over gw >= w and the lower one gw
        # over gw < w; on a reversed row argmax takes the largest index
        flip = gw[:, ::-1]
        up = np.where(flip >= w, -flip, _NO_SKETCH)
        down = np.where(flip < w, flip, _NO_SKETCH)
        upper = np.where(up.max(axis=1) > _NO_SKETCH, top - up.argmax(axis=1), -1)
        lower = np.where(down.max(axis=1) > _NO_SKETCH, top - down.argmax(axis=1), -1)
        rung = np.where(upper >= 0, upper, lower)
        limit = 4 * self.config.zeta * self.config.sample_factor
        contested = (upper >= 0) & (lower >= 0)
        for r in set(upper[contested].tolist()):
            at = np.flatnonzero(contested & (upper == r))
            s = self.sizes[r]
            i, weights, _ = self.entries(instance, s, s, vertices[at])
            heavy = at[np.bincount(i[weights > w], minlength=len(at)) >= limit]
            rung[heavy] = lower[heavy]
        return rung

    def report_sketch(self, v, w, instance):
        """v's reported sketch at w as (governing_weight, size, weights,
        others), read through `rungs` and `entries`, or None where `rungs`
        reports none. A one-vertex wrapper kept for the benchmark's patch
        table; no fit calls it."""
        r = int(self.rungs([v], w, instance)[0])
        if r < 0:
            return None
        s = self.sizes[r]
        _, weights, others = self.entries(instance, s, s, [v])
        return int(weights[-1]), s, weights, others

    def degrees(self, vertices, w, instance):
        """Closed d_w(v) estimate of each of `vertices`: one plus the close
        queue's count where it is exact at w or `rungs` reports no sketch,
        else one plus the reported sketch's count over its probability."""
        return self.estimates(vertices, w, instance)[0]

    def estimates(self, vertices, w, instance):
        """`degrees` of `vertices`, with what it reads on the way: which
        close queues are exact at w and their entries at most w (see
        `close_within`), and the rung of each vertex, -1 where the queue is
        exact or `rungs` reports no sketch."""
        vertices = np.asarray(vertices, dtype=np.int64)
        exact, within = self.close_within(vertices, w)
        d = within.sum(axis=1) + 1
        (estimated,) = (~exact).nonzero()
        rung = np.full(len(vertices), -1, dtype=np.int64)
        rung[estimated] = self.rungs(vertices[estimated], w, instance)
        for r in set(rung[rung >= 0].tolist()):
            at = np.flatnonzero(rung == r)
            s = self.sizes[r]
            i, weights, _ = self.entries(instance, s, s, vertices[at])
            count = np.bincount(i[weights <= w], minlength=len(at))
            d[at] = np.rint(count / self.config.sample_probability(s)) + 1
        return d, exact, within, rung

    def estimate_degree(self, v, w, instance):
        """v's entry of `degrees`. A one-vertex wrapper kept for the
        benchmark's patch table; no fit calls it."""
        return int(self.degrees([v], w, instance)[0])

    def build_compressed_set(self) -> CompressedSet:
        self._require_finalized()
        held = np.arange(self.config.close_capacity) < self.close_lengths[:, None]
        # deduplicate block by block: the blocks together can outweigh the
        # rest of the state, and one concatenation would copy them all
        weights = [self.close_weights[held]]
        distinct = {id(pool.block): pool.block for pool in self.sketches.values()}
        weights += [sorted_distinct(block.weights) for block in distinct.values()]
        return CompressedSet(np.concatenate(weights))

    def consume_instance(self, instance, vertices):
        """Mark a sketch instance as used for these vertices (once only)."""
        used = self._used_instances.setdefault(instance, np.zeros(self.n, dtype=bool))
        vertices = np.asarray(vertices, dtype=np.int64)
        if used[vertices].any():
            hit = int(vertices[used[vertices]][0])
            raise ContractViolation(
                f"sketch instance {instance} reused for vertex {hit}"
            )
        used[vertices] = True
