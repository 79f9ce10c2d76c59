"""Ultrametric trees, tree-metric representations, and validity checks.

An ultrametric is encoded as a rooted tree whose internal nodes carry levels
that strictly decrease toward the leaves; the distance between two points is
the level of their lowest common ancestor. A tree metric is kept implicitly
as an ultrametric plus a pivot row (see TreeMetricRep).

All distances are scaled integers from `fixedpoint`.
"""

from __future__ import annotations

import json

import numpy as np

from . import fixedpoint


class DomainError(ValueError):
    pass


class _Node:
    __slots__ = ("level", "children", "leaf")

    def __init__(self, level=0, children=None, leaf=None):
        self.level = level
        self.children = children if children is not None else []
        self.leaf = leaf

    @property
    def is_leaf(self):
        return self.leaf is not None


def _preorder(root: _Node) -> list:
    """Every node below and including root, parents before children."""
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    return order


def _normalize(node: _Node) -> _Node:
    """Collapse unary nodes and merge children that share the parent level."""

    def resolved(child):
        # a normalized internal node left with one child stands for that child
        if not child.is_leaf and len(child.children) == 1:
            return child.children[0]
        return child

    for parent in reversed(_preorder(node)):
        if parent.is_leaf:
            continue
        merged = []
        for child in map(resolved, parent.children):
            if not child.is_leaf and child.level == parent.level:
                merged.extend(child.children)
            else:
                merged.append(child)
        parent.children = merged
    return resolved(node)


class UltrametricTree:
    """Immutable level-labeled tree over leaves {0..n-1}.

    Node ids: leaves are 0..n-1, internal nodes are numbered n.. in a
    canonical depth-first order (children sorted by smallest contained leaf),
    so two equal trees have identical arrays.
    """

    def __init__(self, n: int, root: _Node):
        if n < 1:
            raise DomainError("need at least one point")
        self.n = n
        nodes = _preorder(_normalize(root))
        size = n + sum(not node.is_leaf for node in nodes)
        self.parent = np.full(size, -1, dtype=np.int64)
        self.level = np.zeros(size, dtype=np.int64)
        self.children: list[list[int]] = [[] for _ in range(size)]
        self._depth = np.zeros(size, dtype=np.int64)
        self.root = self._flatten(nodes)
        self._validate()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _min_leaf(nodes: list) -> dict:
        """Smallest leaf id below each node of a preorder, keyed by id(node)."""
        got: dict[int, int] = {}
        for node in reversed(nodes):
            got[id(node)] = (
                node.leaf
                if node.is_leaf
                # a childless internal node gets a placeholder; _validate rejects it
                else min((got[id(child)] for child in node.children), default=-1)
            )
        return got

    def _flatten(self, nodes: list) -> int:
        """Number internal nodes n.. in depth-first preorder, children sorted
        by smallest leaf, and fill the node arrays; returns the root id.
        `nodes` is a preorder of the normalized tree, root first."""
        min_leaf = self._min_leaf(nodes)
        next_internal = self.n
        # parallel stacks of nodes and their parents' ids
        stack, parents = [nodes[0]], [-1]
        while stack:
            node, parent = stack.pop(), parents.pop()
            if node.is_leaf:
                idx = node.leaf
                if not (0 <= idx < self.n):
                    raise DomainError(f"leaf id {idx} out of range")
            else:
                idx = next_internal
                next_internal += 1
            if parent < 0:
                root_idx = idx
            else:
                self.children[parent].append(idx)
                self._depth[idx] = self._depth[parent] + 1
            self.parent[idx] = parent
            self.level[idx] = node.level
            if not node.is_leaf:
                ordered = sorted(node.children, key=lambda c: min_leaf[id(c)])
                stack.extend(reversed(ordered))
                parents.extend([idx] * len(ordered))
        return root_idx

    def _validate(self):
        seen = [False] * self.n
        stack = [self.root]
        while stack:
            idx = stack.pop()
            if idx < self.n:
                if self.children[idx]:
                    raise DomainError("leaf with children")
                if self.level[idx] != 0:
                    raise DomainError("leaf level must be 0")
                if seen[idx]:
                    raise DomainError(f"duplicate leaf {idx}")
                seen[idx] = True
                continue
            kids = self.children[idx]
            if len(kids) < 2:
                raise DomainError("internal node with fewer than 2 children")
            if self.level[idx] <= 0:
                raise DomainError("internal level must be positive")
            for child in kids:
                if child >= self.n and self.level[child] >= self.level[idx]:
                    raise DomainError("levels must strictly decrease downward")
            stack.extend(kids)
        if not all(seen):
            missing = seen.index(False)
            raise DomainError(f"missing leaf {missing}")

    @classmethod
    def single_leaf(cls) -> "UltrametricTree":
        return cls(1, _Node(leaf=0))

    @classmethod
    def from_nested(cls, n: int, spec) -> "UltrametricTree":
        """Build from nested (level, [child, ...]) tuples; leaves are ints."""

        def build(item):
            if isinstance(item, int):
                return _Node(leaf=item)
            level, children = item
            return _Node(level=int(level), children=[build(c) for c in children])

        return cls(n, build(spec))

    # -- queries --------------------------------------------------------------

    def distance(self, u: int, v: int) -> int:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise DomainError(f"unknown point id in ({u}, {v})")
        if u == v:
            return 0
        a, b = u, v
        while a != b:
            if self._depth[a] >= self._depth[b]:
                a = self.parent[a]
            else:
                b = self.parent[b]
        return int(self.level[a])

    def induced_matrix(self) -> np.ndarray:
        """Full n x n matrix of LCA levels.

        One post-order walk lists the leaves in depth-first order, so every
        subtree's leaves are the contiguous run order[lo:hi]. The matrix is
        filled in that order: at each internal node, the leaves of each
        child but the last meet the leaves to their right at the node's
        level, two slice blocks per child, and every off-diagonal cell is
        written exactly once. The columns and then the rows are put back in
        leaf-id order in place, a sixteenth of the matrix at a time, so that
        the only temporary is one such block and not a second n x n matrix.
        """
        n = self.n
        out = np.zeros((n, n), dtype=np.int64)
        size = len(self.parent)
        order = np.empty(n, dtype=np.int64)
        lo = [0] * size
        hi = [0] * size
        pos = 0
        for idx in self._postorder():
            if idx < n:
                order[pos] = idx
                lo[idx] = pos
                pos += 1
                hi[idx] = pos
                continue
            # post-order visits children left to right, so their runs are
            # consecutive in list order
            kids = self.children[idx]
            lo[idx] = lo[kids[0]]
            end = hi[idx] = hi[kids[-1]]
            lvl = self.level[idx]
            for child in kids[:-1]:
                a, b = lo[child], hi[child]
                out[a:b, b:end] = lvl
                out[b:end, a:b] = lvl
        # where[i] is leaf i's position in the depth-first order
        where = np.empty(n, dtype=np.int64)
        where[order] = np.arange(n)
        step = -(-n // 16)
        for a in range(0, n, step):
            out[a : a + step] = out[a : a + step, where]
        for a in range(0, n, step):
            out[:, a : a + step] = out[where, a : a + step]
        return out

    def _postorder(self):
        order = []
        stack = [self.root]
        while stack:
            idx = stack.pop()
            order.append(idx)
            stack.extend(self.children[idx])
        return reversed(order)

    def internal_levels(self) -> list[int]:
        return [int(self.level[i]) for i in range(self.n, len(self.parent))]

    # -- transforms -----------------------------------------------------------

    def map_levels(self, fn) -> "UltrametricTree":
        """Rebuild with every internal level replaced by fn(level)."""
        nodes = [None] * len(self.parent)
        for idx in self._postorder():
            if idx < self.n:
                nodes[idx] = _Node(leaf=int(idx))
            else:
                nodes[idx] = _Node(
                    level=int(fn(int(self.level[idx]))),
                    children=[nodes[c] for c in self.children[idx]],
                )
        return UltrametricTree(self.n, nodes[self.root])

    def shift_levels(self, delta: int) -> "UltrametricTree":
        return self.map_levels(lambda lvl: lvl + delta)

    # -- comparison / serialization -------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, UltrametricTree)
            and self.n == other.n
            and np.array_equal(self.parent, other.parent)
            and np.array_equal(self.level, other.level)
        )

    __hash__ = None

    def to_jsonable(self, idx=None):
        if idx is None:
            idx = self.root
        if idx < self.n:
            return {"node_id": int(idx), "leaf": True, "level": "0"}
        return {
            "node_id": int(idx),
            "level": fixedpoint.to_decimal(int(self.level[idx])),
            "children": [self.to_jsonable(c) for c in self.children[idx]],
        }

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "root": self.to_jsonable()}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "UltrametricTree":
        doc = json.loads(text)

        def build(obj):
            if obj.get("leaf"):
                return _Node(leaf=int(obj["node_id"]))
            return _Node(
                level=fixedpoint.from_decimal(obj["level"]),
                children=[build(c) for c in obj["children"]],
            )

        return cls(int(doc["n"]), build(doc["root"]))

    def to_newick(self) -> str:
        """Newick text of the tree, written without recursion so that any
        depth renders; children appear in node-id order."""

        # branch length = (parent level - child level) / 2; rendered exactly
        # with eleven fractional digits of headroom for the halving
        def length(parent_level, child_level):
            diff = parent_level - child_level
            whole, frac = divmod(diff * 25, 10**11)
            if frac == 0:
                return str(whole)
            return f"{whole}." + str(frac).rjust(11, "0").rstrip("0")

        if self.root < self.n:
            return f"{self.root};"
        level = self.level.tolist()
        parent = self.parent.tolist()
        out = []
        # node ids still to render, and the literal text between them
        stack = [self.root]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif item < self.n:
                out.append(f"{item}:{length(level[parent[item]], 0)}")
            else:
                if item == self.root:
                    stack.append(")")
                else:
                    stack.append(f"):{length(level[parent[item]], level[item])}")
                kids = self.children[item]
                for child in reversed(kids[1:]):
                    stack.append(child)
                    stack.append(",")
                stack.append(kids[0])
                out.append("(")
        return "".join(out) + ";"


def single_linkage_tree(n: int, edges) -> UltrametricTree:
    """Merge components in ascending weight order; node level = merge weight.

    `edges` is an iterable of (weight, u, v). The edges must connect all n
    points (e.g. a spanning forest of a complete input).
    """
    if n == 1:
        return UltrametricTree.single_leaf()
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    nodes = {i: _Node(leaf=i) for i in range(n)}
    for w, u, v in sorted(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        children = []
        for r in (ru, rv):
            node = nodes.pop(r)
            if not node.is_leaf and node.level == w:
                children.extend(node.children)
            else:
                children.append(node)
        parent[ru] = rv
        nodes[find(rv)] = _Node(level=int(w), children=children)
    if len(nodes) != 1:
        raise DomainError("edges do not connect all points")
    return UltrametricTree(n, next(iter(nodes.values())))


def from_ultrametric_matrix(matrix: np.ndarray) -> UltrametricTree:
    """Tree inducing exactly an ultrametric matrix."""
    matrix = _checked_square(matrix)
    n = matrix.shape[0]
    iu, iv = np.triu_indices(n, k=1)
    edges = zip(matrix[iu, iv].tolist(), iu.tolist(), iv.tolist())
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
    off = matrix[~np.eye(matrix.shape[0], dtype=bool)]
    if off.size and (off.min() < 0 or (not allow_zero_offdiag and off.min() <= 0)):
        raise DomainError("off-diagonal distances must be positive")
    return matrix


def is_ultrametric(matrix: np.ndarray) -> bool:
    """True iff D(uv) <= max(D(uw), D(vw)) for every triple, exactly."""
    matrix = _checked_square(matrix)
    n = matrix.shape[0]
    if n <= 2:
        return True
    # D is ultrametric iff it equals its one-step minimax relaxation
    relaxed = np.full_like(matrix, np.iinfo(np.int64).max)
    for k in range(n):
        np.minimum(
            relaxed, np.maximum.outer(matrix[:, k], matrix[k, :]), out=relaxed
        )
    return bool(np.array_equal(relaxed, matrix))


def four_point_check(matrix: np.ndarray) -> bool:
    """True iff every quadruple satisfies the four-point condition.

    For each quadruple the three pair sums are compared; the largest must be
    attained at least twice.
    """
    matrix = _checked_square(matrix, allow_zero_offdiag=True)
    n = matrix.shape[0]
    if n <= 3:
        return True
    for i in range(n):
        for j in range(i + 1, n):
            a = matrix[i, j] + matrix
            b = np.add.outer(matrix[i], matrix[j])
            c = b.T
            top = np.maximum(np.maximum(a, b), c)
            twice = (
                (a == top).astype(np.int8) + (b == top) + (c == top)
            ) >= 2
            twice[i, :] = twice[j, :] = True
            twice[:, i] = twice[:, j] = True
            np.fill_diagonal(twice, True)
            if not twice.all():
                return False
    return True


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

    def induced_matrix(self) -> np.ndarray:
        """T = U - C, with C subtracted in place: U - 2m + row[i] + row[j]
        off the diagonal, zero on it."""
        out = self.base.induced_matrix()
        row = self.pivot_row
        out -= 2 * self.m_a
        out += row[:, None]
        out += row[None, :]
        np.fill_diagonal(out, 0)
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "base": json.loads(self.base.to_json()),
                "pivot": self.pivot,
                "pivot_row": [fixedpoint.to_decimal(int(v)) for v in self.pivot_row],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TreeMetricRep":
        doc = json.loads(text)
        base = UltrametricTree.from_json(json.dumps(doc["base"]))
        row = [fixedpoint.from_decimal(v) for v in doc["pivot_row"]]
        return cls(base, doc["pivot"], row)
