"""Replayable distance streams, file I/O, generators, and memory accounting."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fixedpoint, trees


class ParseError(ValueError):
    pass


class StreamIntegrityError(ValueError):
    pass


class ConfigError(ValueError):
    pass


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

    Passes are numbered from 0, and `passes_read` counts those handed out:
    `arrays(k)` raises it to at least k + 1 and `dense` reads pass 0, so a
    replayed pass counts once, and `cost`, reading the stored arrays, none.
    """

    def __init__(self, n, u, v, d, order_seed=None):
        self.n = int(n)
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.d = np.asarray(d, dtype=np.int64)
        self.order_seed = order_seed
        self.passes_read = 0
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
        """Load a stream file: a header line holding n, then one `u v d`
        line per pair. Malformed files raise `ParseError`."""
        parsed = _parse_fast(path)
        if parsed is None:
            parsed = _parse_lines(path)
        n, u, v, d = parsed
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
        self.passes_read = max(self.passes_read, pass_index + 1)
        order = self._order(pass_index)
        return self.u[order], self.v[order], self.d[order]

    def dense(self) -> np.ndarray:
        """Full symmetric matrix, read as pass 0; the source is complete
        by construction."""
        self.passes_read = max(self.passes_read, 1)
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
        # each line is three table entries joined: render each vertex id
        # and each distinct distance once, not once per line
        values, which = np.unique(self.d, return_inverse=True)
        ids = [f"{i} " for i in range(self.n)]
        texts = [fixedpoint.to_decimal(x) + "\n" for x in values.tolist()]
        columns = (
            map(ids.__getitem__, self.u.tolist()),
            map(ids.__getitem__, self.v.tolist()),
            map(texts.__getitem__, which.tolist()),
        )
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"{self.n}\n")
            fh.writelines(map("".join, zip(*columns)))


_INT64 = np.iinfo(np.int64)

# The fast parse reads the body in runs of whole lines of at most this many
# bytes, so its per-byte temporaries stay small whatever the file size.
CHUNK_BYTES = 1 << 16

# bytes a stream file may hold on the fast path: digits, '.', ' ' and '\n'
_FAST_BYTES = np.zeros(256, dtype=bool)
_FAST_BYTES[list(b"0123456789. \n")] = True


def _parse_lines(path):
    """Parse a stream file line by line into (n, u, v, d).

    This is the reference parser and the only source of `ParseError` for a
    malformed line.
    """
    us, vs, ds = [], [], []
    out_of_range = None
    # non-ASCII bytes decode to lone surrogates, so they are reported on
    # their own line instead of failing the decoder somewhere in a block
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline()
        try:
            n = int(header.strip())
        except ValueError:
            raise ParseError(f"{path}:1: bad header {header!r}") from None
        for lineno, line in enumerate(fh, start=2):
            if not line.isascii():
                raise ParseError(f"{path}:{lineno}: non-ASCII byte")
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
            # reported after the whole file, so a malformed line further on
            # keeps its own error
            if out_of_range is None and not (
                _INT64.min <= u and v <= _INT64.max and d <= _INT64.max
            ):
                out_of_range = lineno
            us.append(u)
            vs.append(v)
            ds.append(d)
    if out_of_range is not None:
        raise ParseError(f"{path}:{out_of_range}: value outside the 64-bit range")
    # drop each parse list as soon as it is an array, so the lists are
    # gone before the constructor's completeness check allocates
    u, us = np.asarray(us, dtype=np.int64), None
    v, vs = np.asarray(vs, dtype=np.int64), None
    d, ds = np.asarray(ds, dtype=np.int64), None
    return n, u, v, d


def _parse_fast(path):
    """Parse a plainly written stream file into (n, u, v, d) with numpy.

    Returns None on any doubt, and `_parse_lines` then decides: a header
    that is not digits and a newline, or a body line that is not three
    digit tokens `u v d` separated by spaces, where `d` has at most nine
    whole and nine fraction digits and is positive, and `u` and `v` have at
    most 18 digits. Every value accepted here fits in int64.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.endswith(b"\n"):
        data += b"\n"
    head = data.index(b"\n")
    if not data[:head].isdigit():
        return None
    rows = data.count(b"\n", head + 1)
    u = np.empty(rows, dtype=np.int64)
    v = np.empty(rows, dtype=np.int64)
    d = np.empty(rows, dtype=np.int64)
    row, pos = 0, head
    while row < rows:
        end = data.rfind(b"\n", pos + 1, pos + CHUNK_BYTES)
        if end < 0:  # a single line longer than a chunk
            end = data.find(b"\n", pos + 1)
        chunk = np.frombuffer(data, dtype=np.uint8, count=end + 1 - pos, offset=pos)
        columns = _parse_chunk(chunk)
        if columns is None:
            return None
        stop = row + len(columns[0])
        u[row:stop], v[row:stop], d[row:stop] = columns
        row, pos = stop, end
    return int(data[:head]), u, v, d


def _parse_chunk(b):
    """(u, v, d) arrays of the lines in `b`, or None on any doubt.

    `b` starts with the newline before its first line and ends with the
    newline of its last line.
    """
    if not _FAST_BYTES[b].all():
        return None
    token = b > ord(" ")  # digits and '.'; the rest are separators
    edges = np.flatnonzero(token[1:] != token[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    lines = np.count_nonzero(b == ord("\n")) - 1
    # three tokens per line, the third ending its line, and no other newline
    if len(starts) != 3 * lines or np.any(b[ends[2::3]] != ord("\n")):
        return None
    dots = np.flatnonzero(b == ord("."))
    owner = np.searchsorted(ends, dots, side="right")
    if np.any(owner % 3 != 2) or np.any(owner[1:] == owner[:-1]):
        return None  # a '.' in u or v, or two in one d
    frac_len = ends[owner] - dots - 1
    if np.any(frac_len < 1) or np.any(frac_len > fixedpoint.FRACTION_DIGITS):
        return None
    length = ends - starts
    length[owner] = dots - starts[owner]  # d's whole part
    # 18 digits fit int64; 9 whole digits keep d below 2 * 10^18 units
    if np.any(length.reshape(lines, 3).max(axis=0) > (18, 18, 9)):
        return None
    values = _fold(b, starts, length).reshape(lines, 3)
    fractions = _fold(b, dots + 1, frac_len)
    d = values[:, 2] * 10**fixedpoint.FRACTION_DIGITS
    d[owner // 3] += fractions * 10 ** (fixedpoint.FRACTION_DIGITS - frac_len)
    d *= 2
    if np.any(d <= 0):
        return None
    return (
        np.minimum(values[:, 0], values[:, 1]),
        np.maximum(values[:, 0], values[:, 1]),
        d,
    )


def _fold(b, starts, length):
    """Values of the digit runs b[starts[i]:starts[i] + length[i]]."""
    value = np.zeros(len(starts), dtype=np.int64)
    last = len(b) - 1
    for k in range(int(length.max(initial=0))):
        digit = b[np.minimum(starts + k, last)] - ord("0")
        value = np.where(length > k, value * 10 + digit, value)
    return value


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

    last = len(levels) - 1
    parent = [-1] * n
    level = [0] * n
    # (ids, the parent's depth, the parent's node id), first child on top;
    # each child draws its depth as it is taken, just before its own draws
    stack = [(np.arange(n), 0, -1)]
    while stack:
        ids, depth, up = stack.pop()
        if up >= 0:
            depth = min(depth + int(rng.integers(1, 3)), last)
        if len(ids) == 1:
            parent[int(ids[0])] = up
            continue
        node = len(parent)
        parent.append(up)
        level.append(levels[depth])
        ids = rng.permutation(ids)
        if depth == last:
            # deepest level available: everything below must be a leaf
            parts = [ids[i : i + 1] for i in range(len(ids))]
        else:
            k = int(rng.integers(2, min(len(ids), 4) + 1))
            cuts = np.sort(rng.choice(np.arange(1, len(ids)), size=k - 1, replace=False))
            parts = np.split(ids, cuts)
        stack.extend((part, depth, node) for part in reversed(parts))
    return trees.UltrametricTree(n, parent, level)


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
    """Path lengths of a random weighted tree, breadth-first from vertex 0:
    a vertex y reached from x over weight w lies w further than x from
    every vertex placed before it, none of which is in y's subtree."""
    edges = _prufer_tree(rng, n)
    adj = [[] for _ in range(n)]
    for a, b in edges:
        w = int(rng.choice(alphabet))
        adj[a].append((b, w))
        adj[b].append((a, w))
    dist = np.zeros((n, n), dtype=np.int64)
    order = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    placed = 1
    for i in range(n):
        x = int(order[i])
        for y, w in adj[x]:
            if not seen[y]:
                seen[y] = True
                before = order[:placed]
                dist[y, before] = dist[x, before] + w
                dist[before, y] = dist[y, before]
                order[placed] = y
                placed += 1
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
