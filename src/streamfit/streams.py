"""Replayable distance streams, file I/O, generators, and memory accounting."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import fixedpoint, trees


class ParseError(ValueError):
    pass


class StreamIntegrityError(ValueError):
    pass


class ConfigError(ValueError):
    pass


class DistanceEntry(NamedTuple):
    u: int
    v: int
    d: int


def pair_index(n: int, u: int, v: int):
    """Index of unordered pair (u < v) in condensed row-major order."""
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


class StreamSource:
    """Replayable arbitrary-order sequence of (u, v, d) entries.

    The backing arrays hold every unordered pair of the n points exactly
    once, in canonical u < v form: the constructor checks this once, so a
    built source is complete and every consumer trusts it. An order seed
    permutes the sequence; each pass uses a fresh permutation derived from
    (seed, pass index). Without a seed every pass replays the stored order.
    """

    def __init__(self, n, u, v, d, order_seed=None):
        self.n = int(n)
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.d = np.asarray(d, dtype=np.int64)
        self.order_seed = order_seed
        if not (len(self.u) == len(self.v) == len(self.d)):
            raise StreamIntegrityError("ragged stream arrays")
        if self.n < 1:
            raise StreamIntegrityError("point count must be >= 1")
        bad = (
            (self.u < 0)
            | (self.v >= self.n)
            | (self.u >= self.v)
            | (self.d <= 0)
        )
        if np.any(bad):
            raise StreamIntegrityError("entries must have 0 <= u < v < n and d > 0")
        self.check_complete()

    @property
    def expected_entries(self) -> int:
        return self.n * (self.n - 1) // 2

    def __len__(self):
        return len(self.d)

    @classmethod
    def from_square(cls, matrix, order_seed=None):
        matrix = np.asarray(matrix, dtype=np.int64)
        n = matrix.shape[0]
        iu, iv = np.triu_indices(n, k=1)
        return cls(n, iu, iv, matrix[iu, iv], order_seed)

    @classmethod
    def from_file(cls, path, order_seed=None):
        us, vs, ds = [], [], []
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline()
            try:
                n = int(header.strip())
            except ValueError:
                raise ParseError(f"{path}:1: bad header {header!r}") from None
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ParseError(f"{path}:{lineno}: expected 'u v d'")
                try:
                    u, v = int(parts[0]), int(parts[1])
                    d = fixedpoint.from_decimal(parts[2])
                except (ValueError, fixedpoint.FixedPointError) as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                if u > v:
                    u, v = v, u
                if d <= 0:
                    raise ParseError(f"{path}:{lineno}: distance must be positive")
                us.append(u)
                vs.append(v)
                ds.append(d)
        # drop each parse list as soon as it is an array, so the lists are
        # gone before the constructor's completeness check allocates
        u, us = np.asarray(us, dtype=np.int64), None
        v, vs = np.asarray(vs, dtype=np.int64), None
        d, ds = np.asarray(ds, dtype=np.int64), None
        try:
            return cls(n, u, v, d, order_seed)
        except StreamIntegrityError as exc:
            raise ParseError(f"{path}: {exc}") from None

    def _order(self, pass_index: int) -> np.ndarray:
        if self.order_seed is None:
            return np.arange(len(self.d))
        key = (self.order_seed, pass_index)
        rng = np.random.Generator(np.random.Philox(key=key))
        return rng.permutation(len(self.d))

    def arrays(self, pass_index: int = 0):
        """Permuted (u, v, d) arrays for one pass."""
        order = self._order(pass_index)
        return self.u[order], self.v[order], self.d[order]

    def entries(self, pass_index: int = 0):
        u, v, d = self.arrays(pass_index)
        for i in range(len(d)):
            yield DistanceEntry(int(u[i]), int(v[i]), int(d[i]))

    def dense(self) -> np.ndarray:
        """Full symmetric matrix; the source is complete by construction."""
        out = np.zeros((self.n, self.n), dtype=np.int64)
        out[self.u, self.v] = self.d
        out += out.T
        return out

    def check_complete(self):
        """Raise unless every unordered pair occurs exactly once.

        The count is checked before any n(n-1)/2 allocation; then, with as
        many entries as pairs, a bitmap with one bit set per entry rules out
        duplicates and, by pigeonhole, missing pairs.
        """
        if len(self.d) != self.expected_entries:
            raise StreamIntegrityError(
                f"stream has {len(self.d)} entries, expected {self.expected_entries}"
            )
        seen = np.zeros(self.expected_entries, dtype=bool)
        seen[pair_index(self.n, self.u, self.v)] = True
        if np.count_nonzero(seen) != len(self.d):
            raise StreamIntegrityError("duplicate pair in stream")

    def write_file(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"{self.n}\n")
            for i in range(len(self.d)):
                fh.write(
                    f"{self.u[i]} {self.v[i]} "
                    f"{fixedpoint.to_decimal(int(self.d[i]))}\n"
                )


class MemoryMeter:
    """Counts machine words retained by registered structures."""

    def __init__(self):
        self._words = {}
        self.peak = 0

    @property
    def words_stored(self) -> int:
        return sum(self._words.values())

    def set_words(self, name: str, words: int):
        self._words[name] = int(words)
        self.peak = max(self.peak, self.words_stored)

    def add(self, name: str, delta: int):
        self._words[name] = self._words.get(name, 0) + int(delta)
        self.peak = max(self.peak, self.words_stored)


@dataclass
class GeneratorSpec:
    kind: str
    n: int
    seed: int
    noise_k: int = 0
    value_alphabet: Optional[list] = None
    extra: dict = field(default_factory=dict)

    KINDS = ("planted_ultrametric", "planted_tree_metric", "two_valued", "uniform_random")

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "n": self.n,
            "seed": self.seed,
            "noise_k": self.noise_k,
            "value_alphabet": None
            if self.value_alphabet is None
            else [fixedpoint.to_decimal(v) for v in self.value_alphabet],
        }
        if self.extra:
            doc["extra"] = self.extra
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSpec":
        doc = json.loads(text)
        alphabet = doc.get("value_alphabet")
        if alphabet is not None:
            alphabet = [fixedpoint.from_decimal(v) for v in alphabet]
        return cls(
            kind=doc["kind"],
            n=int(doc["n"]),
            seed=int(doc["seed"]),
            noise_k=int(doc.get("noise_k", 0)),
            value_alphabet=alphabet,
            extra=doc.get("extra", {}),
        )


def _rng(seed, *tags):
    entropy = np.random.SeedSequence((seed,) + tags)
    return np.random.Generator(np.random.Philox(seed=entropy))


def _planted_ultrametric_tree(rng, n, alphabet):
    """Random recursive partition with strictly decreasing levels."""
    levels = sorted(set(alphabet), reverse=True)
    if n >= 2 and not levels:
        raise ConfigError("value alphabet smaller than required depth (empty)")

    def build(ids, depth):
        if len(ids) == 1:
            return trees._Node(leaf=int(ids[0]))
        level = levels[depth]
        ids = rng.permutation(ids)
        if depth == len(levels) - 1:
            # deepest level available: everything below must be a leaf
            parts = [ids[i : i + 1] for i in range(len(ids))]
        else:
            k = int(rng.integers(2, min(len(ids), 4) + 1))
            cuts = np.sort(rng.choice(np.arange(1, len(ids)), size=k - 1, replace=False))
            parts = np.split(ids, cuts)
        children = [
            build(part, min(depth + int(rng.integers(1, 3)), len(levels) - 1))
            for part in parts
        ]
        return trees._Node(level=level, children=children)

    return trees.UltrametricTree(n, build(np.arange(n), 0))


def _prufer_tree(rng, n):
    """Random labeled tree edges via a Prufer sequence."""
    if n == 2:
        return [(0, 1)]
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for x in seq:
        degree[x] += 1
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, int(x))
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _tree_metric_matrix(rng, n, alphabet):
    edges = _prufer_tree(rng, n)
    adj = [[] for _ in range(n)]
    for a, b in edges:
        w = int(rng.choice(alphabet))
        adj[a].append((b, w))
        adj[b].append((a, w))
    dist = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        row = dist[s]
        seen = np.zeros(n, dtype=bool)
        seen[s] = True
        stack = [s]
        while stack:
            x = stack.pop()
            for y, w in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    row[y] = row[x] + w
                    stack.append(y)
    return dist


def _two_valued_matrix(rng, n, alphabet):
    if len(alphabet) != 2:
        raise ConfigError("two_valued needs exactly two alphabet values")
    lo, hi = sorted(alphabet)
    groups = int(rng.integers(2, max(3, n // 3 + 1)))
    labels = rng.integers(0, groups, size=n)
    matrix = np.where(np.equal.outer(labels, labels), lo, hi).astype(np.int64)
    np.fill_diagonal(matrix, 0)
    tree = trees.from_ultrametric_matrix(matrix)
    return matrix, tree


def generate(spec: GeneratorSpec):
    """Build a synthetic stream; returns (source, ground_truth or None)."""
    if spec.kind not in GeneratorSpec.KINDS:
        raise ConfigError(f"unknown generator kind {spec.kind!r}")
    n = spec.n
    if n < 1:
        raise ConfigError("n must be >= 1")
    m = n * (n - 1) // 2
    if spec.noise_k > m:
        raise ConfigError("noise_k exceeds pair count")
    rng = _rng(spec.seed, 1)
    alphabet = spec.value_alphabet
    truth = None

    if spec.kind == "planted_ultrametric":
        if alphabet is None:
            alphabet = [fixedpoint.from_int(v) for v in (1, 2, 3, 4)]
        truth = _planted_ultrametric_tree(rng, n, alphabet)
        matrix = truth.induced_matrix()
    elif spec.kind == "planted_tree_metric":
        if alphabet is None:
            alphabet = [fixedpoint.from_int(v) for v in (1, 2, 3)]
        if n == 1:
            matrix = np.zeros((1, 1), dtype=np.int64)
            truth = trees.UltrametricTree.single_leaf()
        else:
            matrix = _tree_metric_matrix(rng, n, alphabet)
            row = matrix[0].copy()
            shifted = matrix + 2 * row.max() - np.add.outer(row, row)
            np.fill_diagonal(shifted, 0)
            truth = trees.TreeMetricRep(
                trees.from_ultrametric_matrix(shifted), 0, row
            )
    elif spec.kind == "two_valued":
        if alphabet is None:
            alphabet = [fixedpoint.from_int(1), fixedpoint.from_int(2)]
        matrix, truth = _two_valued_matrix(rng, n, alphabet)
    else:
        if alphabet is None:
            alphabet = [fixedpoint.from_int(v) for v in (1, 2, 3)]
        matrix = np.zeros((n, n), dtype=np.int64)
        iu, iv = np.triu_indices(n, k=1)
        vals = rng.choice(np.asarray(alphabet, dtype=np.int64), size=m)
        matrix[iu, iv] = vals
        matrix += matrix.T

    if spec.noise_k:
        pool = np.asarray(sorted(set(int(v) for v in alphabet)), dtype=np.int64)
        if spec.kind == "planted_tree_metric":
            iu, iv = np.triu_indices(n, k=1)
            pool = np.unique(matrix[iu, iv])
        if len(pool) < 2:
            raise ConfigError("noise needs at least two distinct values")
        iu, iv = np.triu_indices(n, k=1)
        picks = rng.choice(m, size=spec.noise_k, replace=False)
        for p in picks:
            a, b = int(iu[p]), int(iv[p])
            others = pool[pool != matrix[a, b]]
            val = int(rng.choice(others))
            matrix[a, b] = matrix[b, a] = val

    source = StreamSource.from_square(matrix, order_seed=spec.seed)
    return source, truth
