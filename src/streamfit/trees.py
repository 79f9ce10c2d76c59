"""Ultrametric trees, tree-metric representations, and validity checks.

An ultrametric is encoded as a rooted tree whose internal nodes carry levels
that strictly decrease toward the leaves; the distance between two points is
the level of their lowest common ancestor. A tree metric is kept implicitly
as an ultrametric plus a pivot row (see TreeMetricRep).

All distances are scaled integers from `fixedpoint`.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from . import fixedpoint


class DomainError(ValueError):
    pass


class UltrametricTree:
    """Immutable level-labeled tree over leaves {0..n-1}.

    Node ids: leaves are 0..n-1, internal nodes are numbered n.. in a
    canonical depth-first order (children sorted by smallest contained leaf),
    so two equal trees have identical arrays.
    """

    def __init__(self, n: int, parent, level):
        """Build from flat arrays over all nodes: leaves are 0..n-1, internal
        nodes n.. in any order, and `parent` is -1 at the single root.

        Unary internal nodes are dropped and a child with its parent's level
        is merged into the parent; the kept internal nodes are then numbered
        in canonical order and the result is validated.
        """
        if n < 1:
            raise DomainError("need at least one point")
        self.n = n
        level = np.asarray(level, dtype=np.int64)
        if level.ndim != 1 or np.shape(parent) != level.shape or len(level) < n:
            raise DomainError("parent and level must be flat arrays over all nodes")
        lvl = level.tolist()
        size = len(lvl)
        kids: list[list[int]] = [[] for _ in range(size)]
        roots = []
        for child, up in enumerate(np.asarray(parent, dtype=np.int64).tolist()):
            if up == -1:
                roots.append(child)
            elif n <= up < size:
                kids[up].append(child)
            else:
                raise DomainError(f"parent {up} of node {child} is not internal")
        if len(roots) != 1:
            raise DomainError(f"tree needs one root, got {len(roots)}")
        order = list(roots)
        for idx in order:
            order.extend(kids[idx])
        if len(order) != size:
            raise DomainError("parent links form a cycle")

        # children before parents: the smallest leaf below each node, and the
        # node that stands for it, itself or, if unary, its child's stand-in
        min_leaf = list(range(size))
        stands = list(range(size))
        for idx in reversed(order):
            if idx < n:
                continue
            if not kids[idx]:
                raise DomainError("internal node with fewer than 2 children")
            min_leaf[idx] = min(min_leaf[child] for child in kids[idx])
            if len(kids[idx]) == 1:
                stands[idx] = stands[kids[idx][0]]

        # number the kept internal nodes n.. in depth-first preorder, children
        # sorted by smallest leaf; leaves keep their ids
        out_parent = [-1] * n
        out_level = lvl[:n]
        self.children: list[list[int]] = [[] for _ in range(n)]
        # parallel stacks of input nodes and their parents' new ids
        stack, above = [stands[order[0]]], [-1]
        while stack:
            node, up = stack.pop(), above.pop()
            idx = node
            if node >= n:
                idx = len(out_parent)
                out_parent.append(up)
                out_level.append(lvl[node])
                self.children.append([])
                # the kept children: stand-ins, with the children of those at
                # this node's level merged in
                kept, todo = [], list(kids[node])
                while todo:
                    rep = stands[todo.pop()]
                    if rep >= n and lvl[rep] == lvl[node]:
                        todo.extend(kids[rep])
                    else:
                        kept.append(rep)
                kept.sort(key=min_leaf.__getitem__)
                stack.extend(reversed(kept))
                above.extend([idx] * len(kept))
            out_parent[idx] = up
            if up < 0:
                self.root = idx
            else:
                self.children[up].append(idx)
        self.parent = np.array(out_parent, dtype=np.int64)
        self.level = np.array(out_level, dtype=np.int64)
        self._validate()

    def _validate(self):
        """Check the levels; the constructor has already made the structure
        a tree over all n leaves whose internal nodes have two or more
        children. The root, when internal, is node n."""
        n = self.n
        if self.level[:n].any():
            raise DomainError("leaf level must be 0")
        if (self.level[n:] <= 0).any():
            raise DomainError("internal level must be positive")
        if (self.level[n + 1 :] >= self.level[self.parent[n + 1 :]]).any():
            raise DomainError("levels must strictly decrease downward")

    @classmethod
    def single_leaf(cls) -> "UltrametricTree":
        return cls(1, [-1], [0])

    @classmethod
    def from_nested(cls, n: int, spec) -> "UltrametricTree":
        """Build from nested (level, [child, ...]) tuples; leaves are ints."""
        return _nested_tree(n, spec, lambda item: item)

    # -- queries --------------------------------------------------------------

    def distance(self, u: int, v: int) -> int:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise DomainError(f"unknown point id in ({u}, {v})")
        if u == v:
            return 0
        # levels rise strictly toward the root, so the lower of two distinct
        # nodes is never their common ancestor and can step up
        a, b = u, v
        while a != b:
            if self.level[a] <= self.level[b]:
                a = self.parent[a]
            else:
                b = self.parent[b]
        return int(self.level[a])

    def distances(self, u, v) -> np.ndarray:
        """LCA level of every pair (u[k], v[k]), and 0 where u[k] == v[k].

        In depth-first leaf order every subtree's leaves are contiguous, so
        the LCA level of two leaves is the largest LCA level of adjacent
        leaves between them, a range maximum that a sparse table of n log2 n
        words answers (Bender & Farach-Colton, LATIN 2000)."""
        return _pair_query(self.n, u, v, self._lca_levels)

    @cached_property
    def _lca_levels(self):
        """`query(a, b, out)`, writing the LCA levels of distinct pairs;
        built on first use and kept, as the tree never changes."""
        n = self.n
        # the leaves in depth-first order, each with the LCA level it shares
        # with the leaf before it: a first child inherits its parent's, the
        # other children meet the leaf before them at the parent's level
        order, gaps = [], []
        stack = [(self.root, 0)]
        while stack:
            node, gap = stack.pop()
            if node < n:
                order.append(node)
                gaps.append(gap)
                continue
            kids = self.children[node]
            stack.extend((child, self.level[node]) for child in reversed(kids[1:]))
            stack.append((kids[0], gap))
        return gap_max_query(order, gaps[1:])

    def induced_matrix(self) -> np.ndarray:
        """Full n x n distance matrix, a test reference built on `distances`."""
        u, v = np.indices((self.n, self.n)).reshape(2, -1)
        return self.distances(u, v).reshape(self.n, self.n)

    # -- transforms -----------------------------------------------------------

    def shift_levels(self, delta: int) -> "UltrametricTree":
        level = self.level + delta
        level[: self.n] = 0
        return UltrametricTree(self.n, self.parent, level)

    # -- comparison / serialization -------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, UltrametricTree)
            and self.n == other.n
            and np.array_equal(self.parent, other.parent)
            and np.array_equal(self.level, other.level)
        )

    __hash__ = None

    def _nest(self, leaf, opening, closing, sep) -> str:
        """Nested text, depth first with children in node-id order, built
        without recursion so any depth renders: `leaf(i)` renders leaf i, and
        `opening`, `closing(i)` and `sep` go around and between i's children."""
        out = []
        # node ids still to render, and the literal text between them
        stack = [self.root]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif item < self.n:
                out.append(leaf(item))
            else:
                out.append(opening)
                stack.append(closing(item))
                kids = self.children[item]
                for child in reversed(kids[1:]):
                    stack.append(child)
                    stack.append(sep)
                stack.append(kids[0])
        return "".join(out)

    def to_json(self) -> str:
        """The nested document as `json.dumps(..., sort_keys=True)` writes it;
        ids and decimal levels need no escaping."""
        level = [fixedpoint.to_decimal(x) for x in self.level[self.n :].tolist()]
        root = self._nest(
            lambda i: f'{{"leaf": true, "level": "0", "node_id": {i}}}',
            '{"children": [',
            lambda i: f'], "level": "{level[i - self.n]}", "node_id": {i}}}',
            ", ",
        )
        return f'{{"n": {self.n}, "root": {root}}}'

    @classmethod
    def from_json(cls, text: str) -> "UltrametricTree":
        return _parse(text, _tree_from_doc)

    def to_newick(self) -> str:
        """Newick text of the tree; children appear in node-id order."""

        # branch length = (parent level - child level) / 2, rendered exactly
        def length(child):
            return fixedpoint.half_to_decimal(level[parent[child]] - level[child])

        if self.root < self.n:
            return f"{self.root};"
        level = self.level.tolist()
        parent = self.parent.tolist()
        return self._nest(
            lambda i: f"{i}:{length(i)}",
            "(",
            lambda i: ")" if i == self.root else f"):{length(i)}",
            ",",
        ) + ";"


def gap_max_query(order, gaps):
    """`query(a, b, out)`, writing for each pair of distinct points the
    largest of `gaps` between their positions in `order`, where gaps[i]
    lies between order[i] and order[i + 1].

    A sparse table of ceil(log2 n) n words answers each range maximum with
    two reads (Bender & Farach-Colton, LATIN 2000)."""
    n = len(order)
    where = np.empty(n, dtype=np.int64)
    where[order] = np.arange(n)
    # table[k, i]: largest gap among positions i .. i + 2**k; the last
    # column only pads the table to width n
    table = np.zeros((max(1, (n - 1).bit_length()), n), dtype=np.int64)
    table[0, :-1] = gaps
    for k in range(1, len(table)):
        step = 1 << (k - 1)
        np.maximum(table[k - 1, :-step], table[k - 1, step:], out=table[k, :-step])
    # two runs of 2**k adjacent gaps, k = floor(log2 s), cover a span of s
    # gaps: row k from lo, and row k back from hi; the flat index shifts by
    # span are k n and k n - 2**k. A zero span reads a cell that the caller
    # overwrites.
    k = np.maximum(np.frexp(np.arange(n))[1] - 1, 0)
    from_lo, from_hi, flat = k * n, k * n - (1 << k), table.ravel()

    def query(a, b, out):
        pa, pb = where[a], where[b]
        lo = np.minimum(pa, pb)
        hi = np.maximum(pa, pb, out=pa)
        span = hi - lo
        lo += from_lo[span]
        hi += from_hi[span]
        np.maximum(flat[lo], flat[hi], out=out)

    return query


def _pair_query(n: int, u, v, query) -> np.ndarray:
    """`query(a, b, out)` over slices of 16 n pairs, so that its temporaries
    stay O(n) beyond the output; pairs with a == b read 0."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise DomainError("unknown point id in the pairs")
    out = np.empty(len(u), dtype=np.int64)
    step = 16 * n
    for s in range(0, len(u), step):
        a, b, part = u[s : s + step], v[s : s + step], out[s : s + step]
        query(a, b, part)
        part[a == b] = 0
    return out


def single_linkage_tree(n: int, edges) -> UltrametricTree:
    """Merge components in ascending weight order; node level = merge weight.

    `edges` is an iterable of (weight, u, v). The edges must connect all n
    points (e.g. a spanning forest of a complete input).
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # tree arrays, one internal node per union; node_of[r] is the tree node
    # of the component whose union-find root is r
    up = [-1] * n
    level = [0] * n
    node_of = list(range(n))
    for w, u, v in sorted(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        up[node_of[ru]] = up[node_of[rv]] = len(up)
        node_of[rv] = len(up)
        up.append(-1)
        level.append(int(w))
        parent[ru] = rv
    if len(up) != 2 * n - 1:
        raise DomainError("edges do not connect all points")
    return UltrametricTree(n, up, level)


def _nested_tree(n: int, root, unpack) -> UltrametricTree:
    """Tree from a nested document, walked without recursion; `unpack`
    turns one item into a leaf id or a (level, children) pair."""
    leaf_parent = {}
    # internal nodes, numbered n.. in the order met
    parent, level = [], []
    stack = [(root, -1)]
    while stack:
        item, up = stack.pop()
        item = unpack(item)
        if isinstance(item, int):
            if not 0 <= item < n:
                raise DomainError(f"leaf id {item} out of range")
            if item in leaf_parent:
                raise DomainError(f"duplicate leaf {item}")
            leaf_parent[item] = up
            continue
        item_level, children = item
        stack.extend((child, n + len(parent)) for child in children)
        parent.append(up)
        level.append(int(item_level))
    # nothing of size n is built before the leaves are known to number n
    if len(leaf_parent) != n:
        missing = next(i for i in range(n) if i not in leaf_parent)
        raise DomainError(f"missing leaf {missing}")
    leaves = [leaf_parent[i] for i in range(n)]
    return UltrametricTree(n, leaves + parent, [0] * n + level)


def _json_item(obj):
    """One node of the JSON tree format as a leaf id or (level, children)."""
    if obj.get("leaf"):
        return int(obj["node_id"])
    return fixedpoint.from_decimal(obj["level"]), obj["children"]


def _tree_from_doc(doc) -> UltrametricTree:
    return _nested_tree(int(doc["n"]), doc["root"], _json_item)


def _parse(text: str, build):
    """build(the decoded document), with any fault of its shape raised as a
    DomainError; the JSON decoder raises RecursionError past ~500 levels."""
    try:
        return build(json.loads(text))
    except (ValueError, LookupError, TypeError, AttributeError, RecursionError) as exc:
        kind = type(exc).__name__
        raise DomainError(f"malformed tree document ({kind}: {exc})") from exc


def from_ultrametric_matrix(matrix: np.ndarray) -> UltrametricTree:
    """Tree inducing exactly an ultrametric matrix.

    Single linkage needs only a minimum spanning tree of the complete graph
    (Gower & Ross 1969): its components at every threshold are those of all
    the pairs. Prim's algorithm grows one from vertex 0 in n row steps, so
    no list of the n(n-1)/2 pairs is built.
    """
    matrix = _checked_square(matrix)
    n = matrix.shape[0]
    if n < 2:
        return single_linkage_tree(n, ())
    # outside[x]: x is not yet in the tree; for such x, best[x] is its
    # lightest edge into the tree and near[x] that edge's tree end. A mask,
    # not a sentinel weight, marks the tree: any int64 may be a distance.
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    best = matrix[0].copy()
    near = np.zeros(n, dtype=np.int64)
    added = np.zeros(n - 1, dtype=np.int64)
    for k in range(n - 1):
        candidates = np.flatnonzero(outside)
        x = candidates[best[candidates].argmin()]
        added[k] = x
        outside[x] = False
        row = matrix[x]
        closer = outside & (row < best)
        best[closer] = row[closer]
        near[closer] = x
    edges = zip(best[added].tolist(), near[added].tolist(), added.tolist())
    return single_linkage_tree(n, edges)


def _checked_square(matrix, allow_zero_offdiag=False) -> np.ndarray:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError("matrix must be square")
    if not np.issubdtype(matrix.dtype, np.integer):
        raise DomainError("matrix must hold scaled integer distances")
    matrix = matrix.astype(np.int64, copy=False)
    if np.any(np.diag(matrix) != 0):
        raise DomainError("diagonal must be zero")
    if not np.array_equal(matrix, matrix.T):
        raise DomainError("matrix must be symmetric")
    # the diagonal is zero, so an off-diagonal entry <= 0 shows as a
    # negative minimum or as more zeros than the diagonal's n
    n = matrix.shape[0]
    if n > 1 and (
        matrix.min() < 0
        or (not allow_zero_offdiag and np.count_nonzero(matrix == 0) > n)
    ):
        raise DomainError("off-diagonal distances must be positive")
    return matrix


def minimax_closure(matrix: np.ndarray) -> np.ndarray:
    """All-pairs minimax path values of a checked square matrix, by one
    relaxation sweep through every middle point. The closure is never above
    D, and it equals D exactly when D is ultrametric."""
    relaxed = matrix.copy()
    for k in range(matrix.shape[0]):
        np.minimum(
            relaxed, np.maximum.outer(relaxed[:, k], relaxed[k, :]), out=relaxed
        )
    return relaxed


def _is_closed(matrix: np.ndarray) -> bool:
    """True iff the matrix equals its minimax closure."""
    return bool(np.array_equal(minimax_closure(matrix), matrix))


def is_ultrametric(matrix: np.ndarray) -> bool:
    """True iff D(uv) <= max(D(uw), D(vw)) for every triple, exactly."""
    return _is_closed(_checked_square(matrix))


def four_point_check(matrix: np.ndarray) -> bool:
    """True iff each quadruple of distinct points has its largest pair sum
    attained at least twice; zero distances are allowed. That holds exactly
    when, at the last point w, -g(x, y) = D(xy) - D(xw) - D(yw) is
    ultrametric on the other points (Buneman 1974; Bandelt 1990). The
    diagonal of -g is set to its minimum, which no relaxation lowers. The
    sums D(xw) + D(yw) need max D <= INT64_MAX // 2."""
    matrix = _checked_square(matrix, allow_zero_offdiag=True)
    if matrix.shape[0] <= 3:
        return True
    if matrix.max() > np.iinfo(np.int64).max // 2:
        raise DomainError("four-point check needs max D <= INT64_MAX // 2")
    far = matrix[:-1, -1]
    neg = matrix[:-1, :-1] - far[:, None] - far
    np.fill_diagonal(neg, neg.min())
    return _is_closed(neg)


class TreeMetricRep:
    """Tree metric stored as an ultrametric plus a pivot row.

    T(i,j) = U(i,j) - C(i,j) with C(i,j) = 2*m - row[i] - row[j], where row
    is the input distance row of the pivot and m its maximum. The metric
    agrees with the input on every pair containing the pivot.
    """

    def __init__(self, base: UltrametricTree, pivot: int, pivot_row):
        self.base = base
        self.pivot = int(pivot)
        self.pivot_row = np.asarray(pivot_row, dtype=np.int64)
        if self.pivot_row.shape != (base.n,):
            raise DomainError("pivot row length must equal point count")
        if not (0 <= self.pivot < base.n):
            raise DomainError("pivot out of range")
        if self.pivot_row[self.pivot] != 0:
            raise DomainError("pivot row must be zero at the pivot")
        self.m_a = int(self.pivot_row.max()) if base.n > 1 else 0

    @property
    def n(self):
        return self.base.n

    def centroid_value(self, i: int, j: int) -> int:
        if i == j:
            return 0
        return 2 * self.m_a - int(self.pivot_row[i]) - int(self.pivot_row[j])

    def distance(self, u: int, v: int) -> int:
        if u == v:
            return 0
        return self.base.distance(u, v) - self.centroid_value(u, v)

    def distances(self, u, v) -> np.ndarray:
        """T(u[k], v[k]) for every pair: the base tree's LCA level less the
        centroid value 2m - row[u] - row[v], and 0 where u[k] == v[k]."""
        levels, row = self.base._lca_levels, self.pivot_row

        def query(a, b, out):
            levels(a, b, out)
            out -= 2 * self.m_a
            out += row[a]
            out += row[b]

        return _pair_query(self.n, u, v, query)

    induced_matrix = UltrametricTree.induced_matrix

    def to_json(self) -> str:
        row = json.dumps([fixedpoint.to_decimal(v) for v in self.pivot_row.tolist()])
        base = self.base.to_json()
        return f'{{"base": {base}, "pivot": {self.pivot}, "pivot_row": {row}}}'

    @classmethod
    def from_json(cls, text: str) -> "TreeMetricRep":
        def build(doc):
            base = _tree_from_doc(doc["base"])
            row = [fixedpoint.from_decimal(v) for v in doc["pivot_row"]]
            return cls(base, doc["pivot"], row)

        return _parse(text, build)
