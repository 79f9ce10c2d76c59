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


# pairs in one canonical slice of `StreamSource.slices`
SLICE_PAIRS = 1 << 14


def _row_shift(n):
    """The n-long int64 `shift` with pair_index(n, u, v) = shift[u] + v."""
    return pair_index(n, np.arange(n), 0)


def _pair_table(n):
    """(rows, shift) for n points: the row u of every pair in canonical
    order, uint16 while ids fit, and `_row_shift(n)`."""
    ids = np.arange(n, dtype=np.promote_types(np.uint16, np.min_scalar_type(n - 1)))
    return np.repeat(ids, np.arange(n - 1, -1, -1)), _row_shift(n)


def _slices(table):
    """(part, u, v) for every `SLICE_PAIRS` pairs in canonical order:
    `part` the slice of their indices, and u, v their int64 ids."""
    rows, shift = table
    for start in range(0, len(rows), SLICE_PAIRS):
        part = slice(start, min(start + SLICE_PAIRS, len(rows)))
        u = rows[part].astype(np.int64)
        v = np.arange(part.start, part.stop)
        v -= shift.take(u)
        yield part, u, v


_BAD_ENTRY = "entries must have 0 <= u < v < n and d > 0"


class StreamSource:
    """Multi-pass arbitrary-order sequence of (u, v, d) entries.

    A source holds every unordered pair of the n points exactly once, in
    canonical order, pair u < v at `pair_index(n, u, v)`; the constructors
    check this once, so a built source is complete and every consumer
    trusts it. It holds no per-pair ids or distances, only
    - `values`, int64: 0 and then the sorted distinct distances;
    - `pair_ranks`: each pair's index into `values`, uint16 unless more
      than 2^16 values need a wider unsigned type;
    - the canonical row u of each pair, uint16 while ids fit, and an
      n-long table that turns a pair's index into its v;
    about 4 bytes a pair, where int64 (u, v, d) arrays take 24. All of them
    are read-only.

    An order seed permutes the canonical order; each pass uses a fresh
    permutation derived from (seed, pass index). Without a seed every pass
    is in canonical order, whatever the order of the entries it was built
    from.

    Passes are handed out once each, in order, and never replayed:
    `arrays`, `ranks` and `dense` each read the next pass, so `passes_read`
    is the number of reads. `slices`, `u`, `v` and `d`, which `cost` and
    the tree consensus read, serve the held pairs and are no pass.
    """

    def __init__(self, n, u, v, d, order_seed=None):
        self._start(n, order_seed)
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        d = np.asarray(d, dtype=np.int64)
        if not (len(u) == len(v) == len(d)):
            raise StreamIntegrityError("ragged stream arrays")
        if self.n < 1:
            raise StreamIntegrityError("point count must be >= 1")
        if np.any((u < 0) | (v >= self.n) | (u >= v) | (d <= 0)):
            raise StreamIntegrityError(_BAD_ENTRY)
        self._hold(self.check_complete(u, v, d))

    @classmethod
    def from_condensed(cls, n, d, order_seed=None):
        """Source whose pair u < v has the distance d[pair_index(n, u, v)],
        checked as the constructor checks its arrays."""
        d = np.asarray(d, dtype=np.int64)
        source = cls.__new__(cls)
        source._start(n, order_seed)
        if source.n < 1:
            raise StreamIntegrityError("point count must be >= 1")
        source._check_count(len(d))
        if np.any(d <= 0):
            raise StreamIntegrityError(_BAD_ENTRY)
        source._hold(d)
        return source

    def _start(self, n, order_seed):
        self.n = int(n)
        self.order_seed = order_seed
        self.passes_read = 0

    def _hold(self, d):
        """Keep the canonical distances `d` as `values` and `pair_ranks`,
        from one sort, and build the pair table."""
        order = np.argsort(d)
        # a sorted distance is new when it differs from the one before it,
        # compared a slice of the sorted order at a time: no sorted copy of
        # d sits beside d and its order
        new = np.empty(len(d), dtype=bool)
        new[:1] = True
        for start in range(1, len(d), SLICE_PAIRS):
            part = slice(start, start + SLICE_PAIRS)
            ascending = d.take(order[start - 1 : part.stop])
            np.not_equal(ascending[1:], ascending[:-1], out=new[part])
        self.values = np.concatenate([np.zeros(1, dtype=np.int64), d.take(order[new])])
        dtype = np.promote_types(np.uint16, np.min_scalar_type(len(self.values) - 1))
        # a sorted distance's rank counts the distinct values up to it
        ranked = np.cumsum(new, dtype=dtype)
        del new
        self.pair_ranks = np.empty_like(ranked)
        self.pair_ranks[order] = ranked
        del order, ranked
        self._table = _pair_table(self.n)
        for held in (self.values, self.pair_ranks, *self._table):
            held.flags.writeable = False

    @property
    def expected_entries(self) -> int:
        return self.n * (self.n - 1) // 2

    def __len__(self):
        return len(self.pair_ranks)

    @classmethod
    def from_square(cls, matrix, order_seed=None):
        matrix = np.asarray(matrix, dtype=np.int64)
        iu, iv = np.triu_indices(matrix.shape[0], k=1)
        return cls.from_condensed(matrix.shape[0], matrix[iu, iv], order_seed)

    @classmethod
    def from_file(cls, path, order_seed=None):
        """Load a stream file: a header line holding n, then one `u v d`
        line per pair, in any order. Malformed files raise `ParseError`."""
        parsed = _parse_fast(path)
        try:
            if parsed is not None:
                return cls.from_condensed(*parsed, order_seed)
            return cls(*_parse_lines(path), order_seed)
        except StreamIntegrityError as exc:
            raise ParseError(f"{path}: {exc}") from None

    def _order(self, pass_index: int) -> np.ndarray:
        if self.order_seed is None:
            return np.arange(len(self))
        key = (self.order_seed, pass_index)
        rng = np.random.Generator(np.random.Philox(key=key))
        return rng.permutation(len(self))

    def arrays(self):
        """The next pass, in fresh int64 (u, v, d) arrays the caller may
        overwrite."""
        order = self._order(self.passes_read)
        self.passes_read += 1
        rows, shift = self._table
        u = rows.take(order).astype(np.int64)
        v = shift.take(u)
        np.subtract(order, v, out=v)
        return u, v, self.values.take(self.pair_ranks.take(order))

    def slices(self):
        """Every pair once in canonical order, `SLICE_PAIRS` at a time, as
        (part, u, v): `part` the slice of their canonical indices and u, v
        int64 arrays. No pass."""
        return _slices(self._table)

    @property
    def u(self) -> np.ndarray:
        """Each pair's smaller id, in canonical order; no pass."""
        return self._table[0].astype(np.int64)

    @property
    def v(self) -> np.ndarray:
        """Each pair's larger id, in canonical order; no pass."""
        rows, shift = self._table
        v = np.arange(len(self))
        v -= shift.take(rows)
        return v

    @property
    def d(self) -> np.ndarray:
        """Each pair's distance, in canonical order; no pass."""
        return self.values.take(self.pair_ranks)

    def dense(self) -> np.ndarray:
        """Full symmetric matrix, read as the next pass; the source is
        complete by construction."""
        self.passes_read += 1
        return self._symmetric(self.values)

    def ranks(self):
        """The next pass as (ranks, values): `values` is the held int64
        `values`, 0 and then the sorted distinct distances, and `ranks` the
        n-by-n symmetric matrix of each distance's index in `values`, 0 on
        the diagonal, scattered from the held `pair_ranks` and of their
        dtype.

        A distance is at most w exactly when its rank is at most that of
        the largest value at most w, so the ranks answer every threshold
        test that the distances do, at a quarter of their bytes while they
        are uint16. Never uint8: numpy partitions uint8 rows slower than
        int64 rows, and uint16 rows faster.
        """
        self.passes_read += 1
        return self._symmetric(), self.values

    def _symmetric(self, lookup=None) -> np.ndarray:
        """The n-by-n symmetric matrix of each pair's held rank, or of
        lookup[rank], with 0 on the diagonal. It is filled a row at a time,
        into both triangles: adding the transpose would allocate a second
        n-by-n matrix."""
        dtype = self.pair_ranks.dtype if lookup is None else lookup.dtype
        out = np.zeros((self.n, self.n), dtype=dtype)
        # row u's pairs (u, u + 1), ..., (u, n - 1) sit at shift[u] + u + 1
        # up to shift[u] + n
        for u, shift in enumerate(self._table[1].tolist()):
            x = self.pair_ranks[shift + u + 1 : shift + self.n]
            if lookup is not None:
                x = lookup.take(x)
            out[u, u + 1 :] = x
            out[u + 1 :, u] = x
        return out

    def _check_count(self, entries):
        # before any allocation of n(n-1)/2 entries
        if entries != self.expected_entries:
            raise StreamIntegrityError(
                f"stream has {entries} entries, expected {self.expected_entries}"
            )

    def check_complete(self, u, v, d):
        """The distances d of the pairs (u, v), u < v and d > 0, in
        canonical order; raise unless every unordered pair occurs exactly
        once.

        The count is checked before any n(n-1)/2 allocation. Then, with as
        many entries as pairs, a pair left at 0 by the scatter is missing,
        and by pigeonhole another one occurs twice.
        """
        self._check_count(len(d))
        condensed = np.zeros(self.expected_entries, dtype=np.int64)
        condensed[pair_index(self.n, u, v)] = d
        if not condensed.all():
            raise StreamIntegrityError("duplicate pair in stream")
        return condensed

    def write_file(self, path):
        """Write the pairs in canonical order. Each line is three table
        entries joined: each vertex id and each distinct distance is
        rendered once, not once per line."""
        ids = [f"{i} " for i in range(self.n)]
        texts = [fixedpoint.to_decimal(x) + "\n" for x in self.values.tolist()]
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"{self.n}\n")
            for part, u, v in self.slices():
                columns = (
                    map(ids.__getitem__, u.tolist()),
                    map(ids.__getitem__, v.tolist()),
                    map(texts.__getitem__, self.pair_ranks[part].tolist()),
                )
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
    """Parse a plainly written stream file with numpy into (n, d), d the
    int64 distances of the pairs in canonical order.

    Returns None on any doubt, and `_parse_lines` and the constructor then
    decide: a header that is not digits and a newline, a body of other than
    n(n-1)/2 lines, or a body line that is not three digit tokens `u v d`
    separated by spaces, where `d` has at most nine whole digits and is
    positive, with at most ten fraction digits, a tenth one 0 or 5 as
    `fixedpoint.from_decimal` reads them, and `u` and `v` are distinct ids
    below n, of at most 18 digits. A pair met twice leaves another pair
    without a distance, which is a doubt too. Every value accepted here fits
    in int64.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.endswith(b"\n"):
        data += b"\n"
    head = data.index(b"\n")
    # more digits would be more pairs than a file has lines, and would
    # reach int()'s limit on digits
    if not data[:head].isdigit() or head > 18:
        return None
    n = int(data[:head])
    rows = data.count(b"\n", head + 1)
    if rows != n * (n - 1) // 2:
        return None
    d = np.zeros(rows, dtype=np.int64)
    shift = _row_shift(n)
    row, pos = 0, head
    while row < rows:
        end = data.rfind(b"\n", pos + 1, pos + CHUNK_BYTES)
        if end < 0:  # a single line longer than a chunk
            end = data.find(b"\n", pos + 1)
        chunk = np.frombuffer(data, dtype=np.uint8, count=end + 1 - pos, offset=pos)
        lines = _parse_chunk(chunk, shift, d)
        if lines is None:
            return None
        row, pos = row + lines, end
    # every d is positive, so a pair left at 0 is missing
    if not d.all():
        return None
    return n, d


def _parse_chunk(b, shift, d):
    """Parse the lines in `b` and scatter each line's distance into the
    canonical distances d, at `shift[u] + v` for ids u < v below
    len(shift); return how many lines, or None on any doubt.

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
    places = fixedpoint.FRACTION_DIGITS + 1
    if np.any(frac_len < 1) or np.any(frac_len > places):
        return None
    # a tenth digit is half a unit: 0 or 5, else the line parser reports it
    if np.any(digits[frac_ends[frac_len == places] - 1] % 5):
        return None
    ends[owner] = dots  # d's whole part
    widest = int((ends - before).max()) - 1
    # 18 digits fit int64; 9 whole digits keep d below 2 * 10^18 units
    if widest > 18 or (ends[2::3] - before[2::3]).max() - 1 > 9:
        return None
    fold = _fold(digits, before, ends, widest).reshape(lines, 3)
    fractions = _fold(digits, dots, frac_ends, int(frac_len.max(initial=0)))
    # the token arrays go before the pair indices come
    del digits, before, ends, dots, frac_ends
    # the third column holds d's whole part and becomes d in place
    first, second, dist = fold.T
    dist *= fixedpoint.SCALE
    # the fraction's digits, padded to ten places, count steps of 10^-10,
    # five to a unit, as in `fixedpoint.from_decimal`
    fractions *= 10 ** (places - frac_len)
    fractions //= 10**places // fixedpoint.SCALE
    dist[owner // 3] += fractions
    del owner, fractions, frac_len
    if np.any(dist <= 0):
        return None
    u, v = np.minimum(first, second), np.maximum(first, second)
    if v.max() >= len(shift) or np.any(u == v):
        return None
    v += shift.take(u)  # each line's pair index
    d[v] = dist
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
    # d holds the distance of every pair in canonical order
    if build is None:
        d = rng.choice(np.asarray(alphabet, dtype=np.int64), size=m)
    else:
        truth = build(rng, n, alphabet)
        d = np.empty(m, dtype=np.int64)
        for part, u, v in _slices(_pair_table(n)):
            d[part] = truth.distances(u, v)

    if spec.noise_k:
        pool = np.asarray(sorted(set(int(v) for v in alphabet)), dtype=np.int64)
        if spec.kind == "planted_tree_metric":
            pool = np.unique(d)
        if len(pool) < 2:
            raise ConfigError("noise needs at least two distinct values")
        for p in rng.choice(m, size=spec.noise_k, replace=False):
            d[p] = int(rng.choice(pool[pool != d[p]]))

    source = StreamSource.from_condensed(n, d, order_seed=spec.seed)
    return source, truth
