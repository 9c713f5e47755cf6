"""Full binary trees that schedule basis reductions.

Every internal vertex splits its leaf block into a prefix handled by the
first child and a remainder handled by the second; the prefix size d_v
decides which reduction applies.  A tree is valid for a basis when, at every
internal vertex, the first d_v entries of the vertex basis divided by its
head entry lie in GF(2^d_v); the second child then works on the image basis
produced by delta_of.

Vertices live in a preorder arena: vertex 0 is the root and every subtree
occupies a contiguous id range, so per-vertex data can be kept in flat lists.
The builders raise ValueError unless every leaf count, block size and
allowed degree they take is an integer of at least 1 (field._integers).
"""

from binbasis.basisgen import alpha_of, delta_of, is_independent
from binbasis.field import _integers

LEAF = "*"
# Fields have degree at most 32, so no usable tree has more than 32 leaves
# and none is nested deeper than 31 levels.
MAX_PARSE_DEPTH = 32


class ReductionTree:
    """Immutable full binary tree with per-vertex leaf counts.

    alpha[v]/delta[v] hold child ids (-1 at leaves), size[v] the number of
    leaves under v, and leaf_start[v] the index of the leftmost leaf, with
    leaves numbered left to right (prefix child first).
    """

    __slots__ = ("alpha", "delta", "size", "leaf_start", "n")

    def __init__(self, alpha, delta, size, leaf_start):
        self.alpha = tuple(alpha)
        self.delta = tuple(delta)
        self.size = tuple(size)
        self.leaf_start = tuple(leaf_start)
        self.n = self.size[0] if self.size else 0

    @classmethod
    def from_shape(cls, shape):
        """Build from nested pairs, e.g. ((LEAF, LEAF), LEAF)."""
        alpha, delta, size, leaf_start = [], [], [], []

        def rec(node, first_leaf):
            vid = len(alpha)
            alpha.append(-1)
            delta.append(-1)
            size.append(0)
            leaf_start.append(first_leaf)
            if node == LEAF:
                size[vid] = 1
                return vid, 1
            left, right = node
            a_id, a_sz = rec(left, first_leaf)
            d_id, d_sz = rec(right, first_leaf + a_sz)
            alpha[vid] = a_id
            delta[vid] = d_id
            size[vid] = a_sz + d_sz
            return vid, a_sz + d_sz

        rec(shape, 0)
        return cls(alpha, delta, size, leaf_start)

    def to_shape(self, v=0):
        if self.is_leaf(v):
            return LEAF
        return (self.to_shape(self.alpha[v]), self.to_shape(self.delta[v]))

    def is_leaf(self, v):
        return self.alpha[v] < 0

    def d_of(self, v):
        """Prefix-block size at v: leaves under the first child, 0 at leaves."""
        a = self.alpha[v]
        return self.size[a] if a >= 0 else 0

    def vertices(self):
        return range(len(self.size))

    def internal_vertices(self):
        return (v for v in self.vertices() if not self.is_leaf(v))

    def degree_image(self):
        """Set of d_v over internal vertices (empty for a single leaf)."""
        return {self.d_of(v) for v in self.internal_vertices()}

    def serialize(self, v=0):
        if self.is_leaf(v):
            return LEAF
        return f"({self.serialize(self.alpha[v])},{self.serialize(self.delta[v])})"

    @classmethod
    def parse(cls, text):
        """Tree from its serialize() form, nested at most MAX_PARSE_DEPTH deep."""
        pos = 0

        def node(depth):
            nonlocal pos
            if pos < len(text) and text[pos] == LEAF:
                pos += 1
                return LEAF
            if pos >= len(text) or text[pos] != "(":
                raise ValueError(f"expected '(' or '{LEAF}' at position {pos}")
            if depth == MAX_PARSE_DEPTH:
                raise ValueError(f"tree nested deeper than {MAX_PARSE_DEPTH} at position {pos}")
            pos += 1
            left = node(depth + 1)
            if pos >= len(text) or text[pos] != ",":
                raise ValueError(f"expected ',' at position {pos}")
            pos += 1
            right = node(depth + 1)
            if pos >= len(text) or text[pos] != ")":
                raise ValueError(f"expected ')' at position {pos}")
            pos += 1
            return (left, right)

        shape = node(0)
        if pos != len(text):
            raise ValueError(f"trailing characters at position {pos}")
        return cls.from_shape(shape)

    def __eq__(self, other):
        return isinstance(other, ReductionTree) and self.alpha == other.alpha and \
            self.delta == other.delta and self.size == other.size

    def __hash__(self):
        return hash((self.alpha, self.delta))

    def __repr__(self):
        return f"ReductionTree({self.serialize()!r})"


def vertex_bases(field, tree, beta):
    """Basis at every vertex by preorder id, or None when the tree does not
    schedule only subfield-compatible reductions of beta.  ValueError unless
    the entries are independent field elements."""
    if tree.n != len(beta):
        return None
    beta = tuple(field.elements(beta, "basis entry"))
    if not is_independent(beta):
        raise ValueError("basis entries are dependent")
    bases = [None] * len(tree.size)
    bases[0] = beta
    for v in tree.internal_vertices():
        basis = bases[v]
        d = tree.d_of(v)
        inv0 = field.inv(basis[0])
        for i in range(d):
            q = field.mul(basis[i], inv0)
            # Fixed points of the d-fold Frobenius are exactly the elements
            # of GF(2^d) that exist in this field; no divisibility needed.
            if field.pow2k(q, d) != q:
                return None
        bases[tree.alpha[v]] = alpha_of(basis, d)
        bases[tree.delta[v]] = delta_of(field, basis, d)
    return tuple(bases)


def validate(field, tree, beta):
    """True iff the tree schedules only subfield-compatible reductions of
    beta; ValueError as vertex_bases."""
    return vertex_bases(field, tree, beta) is not None


def _leaf_count(n):
    """n read through _integers; ValueError unless it is at least 1."""
    (n,) = _integers("leaf count", n)
    if n < 1:
        raise ValueError("trees need at least one leaf")
    return n


def _build(n, split):
    """Tree whose vertex with k > 1 leaves puts split(k) of them in its prefix."""
    n = _leaf_count(n)

    def shape(k):
        if k == 1:
            return LEAF
        d = split(k)
        return (shape(d), shape(k - d))

    return ReductionTree.from_shape(shape(n))


def build_trivial(n):
    """Comb with prefix size 1 at every internal vertex; valid for any basis."""
    return _build(n, lambda k: 1)


def build_cantor_tree(n):
    """Split off the largest power of two below n at every vertex."""
    return _build(n, lambda k: 1 << ((k - 1).bit_length() - 1))


def build_max_tree(n, degrees):
    """Prefix size = largest allowed degree below the vertex size."""
    choices = _check_degree_set(degrees)
    return _build(n, lambda k: max(i for i in choices if i < k))


def build_balanced_tree(n, degrees):
    """Prefix size minimizing max(d, size - d); ties go to the larger d."""
    choices = _check_degree_set(degrees)
    return _build(n, lambda k: max((i for i in choices if i < k),
                                   key=lambda i: (-max(i, k - i), i)))


def _check_degree_set(degrees):
    choices = sorted(set(_integers("degree", *degrees)))
    if 1 not in choices:
        raise ValueError("degree set must contain 1")
    if choices[0] < 1:
        raise ValueError("degrees must be positive")
    return choices


def graft_cantor_tree(t, n, base_trees):
    """Halving-shaped outer tree over ceil(n/t) blocks, one base tree each.

    Block i covers leaves [i*t, min((i+1)*t, n)); base_trees[i] must have
    exactly that many leaves.  Earlier blocks sit inside prefix subtrees, so
    every outer split degree is a power of two times t.
    """
    t, n = _integers("block size and dimension", t, n)
    if n < 1 or t < 1:
        raise ValueError("dimension and block size must be positive")
    blocks = -(-n // t)
    if len(base_trees) != blocks:
        raise ValueError(f"expected {blocks} base trees, got {len(base_trees)}")
    for i, tree in enumerate(base_trees):
        want = min(t, n - i * t)
        if tree.n != want:
            raise ValueError(f"base tree {i} has {tree.n} leaves, expected {want}")
    shapes = [tree.to_shape() for tree in base_trees]

    def outer(lo, hi):
        if hi - lo == 1:
            return shapes[lo]
        half = 1 << ((hi - lo - 1).bit_length() - 1)
        return (outer(lo, lo + half), outer(lo + half, hi))

    return ReductionTree.from_shape(outer(0, blocks))


def enumerate_trees(n):
    """Yield every full binary tree with n leaves exactly once (n <= 10)."""
    n = _leaf_count(n)
    if n > 10:
        raise ValueError("enumeration above 10 leaves is refused (Catalan growth)")

    def shapes(k):
        if k == 1:
            yield LEAF
            return
        for a in range(1, k):
            for left in shapes(a):
                for right in shapes(k - a):
                    yield (left, right)

    for shape in shapes(n):
        yield ReductionTree.from_shape(shape)
