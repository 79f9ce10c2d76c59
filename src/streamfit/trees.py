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
        return _parse(text, _tree_from_doc)

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
        def build(doc):
            base = _tree_from_doc(doc["base"])
            row = [fixedpoint.from_decimal(v) for v in doc["pivot_row"]]
            return cls(base, doc["pivot"], row)

        return _parse(text, build)
