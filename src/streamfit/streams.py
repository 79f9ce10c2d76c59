"""Multi-pass distance streams, file I/O, and instance generators."""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    """Index of unordered pair (u < v) in condensed row-major order,
    u (2n - 1 - u) / 2 + v - u - 1, built in one array of the pairs' length
    when u and v are arrays."""
    index = 2 * n - 1 - u
    index *= u
    index //= 2
    index += v
    index -= u
    index -= 1
    return index


class StreamSource:
    """Multi-pass arbitrary-order sequence of (u, v, d) entries.

    The backing arrays hold every unordered pair of the n points exactly
    once, in canonical u < v form: the constructor checks this once, so a
    built source is complete and every consumer trusts it. An order seed
    permutes the sequence; each pass uses a fresh permutation derived from
    (seed, pass index). Without a seed every pass keeps the stored order.

    Passes are handed out once each, in order, and never replayed:
    `arrays` and `dense` each read the next pass, so `passes_read` is the
    number of reads, and `cost`, reading the stored arrays, reads none.
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

    def arrays(self):
        """The next pass, in fresh (u, v, d) arrays the caller may overwrite."""
        order = self._order(self.passes_read)
        self.passes_read += 1
        return self.u[order], self.v[order], self.d[order]

    def dense(self) -> np.ndarray:
        """Full symmetric matrix, read as the next pass; the source is
        complete by construction."""
        self.passes_read += 1
        out = np.zeros((self.n, self.n), dtype=np.int64)
        # scatter both triangles: adding the transpose would allocate a
        # second n-by-n matrix
        out[self.u, self.v] = self.d
        out[self.v, self.u] = self.d
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
        lines = _parse_chunk(chunk, u[row:], v[row:], d[row:])
        if lines is None:
            return None
        row, pos = row + lines, end
    return int(data[:head]), u, v, d


def _parse_chunk(b, u, v, d):
    """Parse the lines in `b` into the first rows of u, v and d, and return
    how many; None on any doubt.

    `b` starts with the newline before its first line and ends with the
    newline of its last line.
    """
    newlines = np.count_nonzero(b == ord("\n"))
    dots = np.flatnonzero(b == ord("."))
    digits = b - ord("0")  # uint8: every byte but a digit wraps to 10 or more
    is_digit = digits < 10
    # only digits, '.', ' ' and '\n': four disjoint classes that cover b
    spaces = np.count_nonzero(b == ord(" "))
    if np.count_nonzero(is_digit) + len(dots) + spaces + newlines != len(b):
        return None
    digits *= is_digit  # 0 at every separator, where a fold reads no digit
    # the byte masks go before the token arrays come, which set the peak
    del is_digit
    # runs of digits and '.' are tokens; the rest are separators
    token = b > ord(" ")
    before = np.flatnonzero(token[1:] > token[:-1])  # the byte before a token
    ends = np.flatnonzero(token[1:] < token[:-1])
    ends += 1
    del token
    lines = newlines - 1
    # three tokens per line, the third ending its line, and no other newline
    if len(ends) != 3 * lines or np.any(b[ends[2::3]] != ord("\n")):
        return None
    owner = np.searchsorted(ends, dots, side="right")
    if np.any(owner % 3 != 2) or np.any(owner[1:] == owner[:-1]):
        return None  # a '.' in u or v, or two in one d
    frac_ends = ends[owner]
    frac_len = frac_ends - dots - 1
    if np.any(frac_len < 1) or np.any(frac_len > fixedpoint.FRACTION_DIGITS):
        return None
    ends[owner] = dots  # d's whole part
    widest = int((ends - before).max()) - 1
    # 18 digits fit int64; 9 whole digits keep d below 2 * 10^18 units
    if widest > 18 or (ends[2::3] - before[2::3]).max() - 1 > 9:
        return None
    values = _fold(digits, before, ends, widest).reshape(lines, 3)
    fractions = _fold(digits, dots, frac_ends, int(frac_len.max(initial=0)))
    np.minimum(values[:, 0], values[:, 1], out=u[:lines])
    np.maximum(values[:, 0], values[:, 1], out=v[:lines])
    d = d[:lines]
    np.multiply(values[:, 2], 10**fixedpoint.FRACTION_DIGITS, out=d)
    d[owner // 3] += fractions * 10 ** (fixedpoint.FRACTION_DIGITS - frac_len)
    d *= fixedpoint.SCALE // 10**fixedpoint.FRACTION_DIGITS
    if np.any(d <= 0):
        return None
    return lines


def _fold(digits, before, ends, width):
    """Values of the digit runs digits[before[i] + 1:ends[i]], none longer
    than `width`, where `digits` is 0 at every before[i]. Each run is read
    right-aligned in `width` places, a place before its start reading
    digits[before[i]]. Overwrites `before` and `ends`."""
    value = np.zeros(len(ends), dtype=np.int64)
    ends -= width
    for _ in range(width):
        # the place's byte, or the run's separator: as the places grow, the
        # maximum with the last place is the maximum with before[i]
        np.maximum(before, ends, out=before)
        value *= 10
        value += digits[before]
        ends += 1
    return value


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


def _planted_tree_metric(rng, n, alphabet):
    """A random weighted tree's metric, kept as its truth: rooted at pivot
    0, D + C is the ultrametric whose level at a pair is 2m - 2 row[lca],
    so point x stands for node n + x at level 2m - 2 row[x], under its tree
    parent's node, with leaf x below it."""
    if n == 1:
        return trees.UltrametricTree.single_leaf()
    adj = [[] for _ in range(n)]
    for a, b in _prufer_tree(rng, n):
        w = int(rng.choice(alphabet))
        adj[a].append((b, w))
        adj[b].append((a, w))
    row, up = [0] * n, [-1] * n
    order = [0]
    for x in order:
        for y, w in adj[x]:
            if y != up[x]:
                row[y], up[y] = row[x] + w, x
                order.append(y)
    top = 2 * max(row)
    if top > _INT64.max:
        raise ConfigError("tree metric distances overflow 64 bits")
    parent = list(range(n, 2 * n)) + [-1] + [n + x for x in up[1:]]
    level = [0] * n + [top - 2 * r for r in row]
    return trees.TreeMetricRep(trees.UltrametricTree(n, parent, level), 0, row)


def _two_valued_tree(rng, n, alphabet):
    """Points sharing a drawn label meet at the lower value, all others at
    the higher: one node per label that occurs, under a root."""
    if len(alphabet) != 2:
        raise ConfigError("two_valued needs exactly two alphabet values")
    lo, hi = sorted(alphabet)
    groups = int(rng.integers(2, max(3, n // 3 + 1)))
    labels = rng.integers(0, groups, size=n)
    # numbered 0.. among the labels that occur: an empty group would be an
    # internal node without children
    labels = np.unique(labels, return_inverse=True)[1]
    k = int(labels.max()) + 1
    parent = (n + labels).tolist() + [n + k] * k + [-1]
    level = [0] * n + [lo] * k + [hi]
    return trees.UltrametricTree(n, parent, level)


# each kind's default alphabet, in whole units, and the builder of its
# truth; uniform_random draws its distances and has none
_BUILDERS = {
    "planted_ultrametric": ((1, 2, 3, 4), _planted_ultrametric_tree),
    "planted_tree_metric": ((1, 2, 3), _planted_tree_metric),
    "two_valued": ((1, 2), _two_valued_tree),
    "uniform_random": ((1, 2, 3), None),
}


@dataclass
class GeneratorSpec:
    kind: str
    n: int
    seed: int
    noise_k: int = 0
    value_alphabet: Optional[list] = None

    # a kind is added in `_BUILDERS` alone
    KINDS = tuple(_BUILDERS)

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
        return json.dumps(doc, sort_keys=True)


def generate(spec: GeneratorSpec):
    """Build a synthetic stream; returns (source, ground_truth or None)."""
    if spec.kind not in GeneratorSpec.KINDS:
        raise ConfigError(f"unknown generator kind {spec.kind!r}")
    n = spec.n
    if n < 1:
        raise ConfigError("n must be >= 1")
    if spec.noise_k < 0:
        raise ConfigError("noise_k must be >= 0")
    m = n * (n - 1) // 2
    if spec.noise_k > m:
        raise ConfigError("noise_k exceeds pair count")
    rng = _rng(spec.seed, 1)
    default, build = _BUILDERS[spec.kind]
    alphabet = spec.value_alphabet
    if alphabet is None:
        alphabet = [fixedpoint.from_int(v) for v in default]
    if any(v > _INT64.max for v in alphabet):
        raise ConfigError("alphabet value overflows 64 bits")
    if any(v <= 0 for v in alphabet):
        raise ConfigError("alphabet values must be positive")
    # SCALE's extra factor of two keeps every half difference of even
    # values whole, which the two-pass linf fit needs
    if any(v % 2 for v in alphabet):
        raise ConfigError(
            "alphabet values must be even counts of units (a tenth fraction digit of 0)"
        )
    truth = None
    iu, iv = np.triu_indices(n, k=1)

    # d holds the distance of every pair (iu[p], iv[p])
    if build is None:
        d = rng.choice(np.asarray(alphabet, dtype=np.int64), size=m)
    else:
        truth = build(rng, n, alphabet)
        d = truth.distances(iu, iv)

    if spec.noise_k:
        pool = np.asarray(sorted(set(int(v) for v in alphabet)), dtype=np.int64)
        if spec.kind == "planted_tree_metric":
            pool = np.unique(d)
        if len(pool) < 2:
            raise ConfigError("noise needs at least two distinct values")
        for p in rng.choice(m, size=spec.noise_k, replace=False):
            d[p] = int(rng.choice(pool[pool != d[p]]))

    source = StreamSource(n, iu, iv, d, order_seed=spec.seed)
    return source, truth
