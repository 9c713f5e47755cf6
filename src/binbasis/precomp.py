"""Per-vertex bases and the shift map of a reduction tree.

Each vertex v of a reduction tree carries its own basis beta_v: the root
keeps the input basis, an alpha child takes the length-d prefix, and a delta
child takes the image of the suffix under q -> q^(2^d) - q.  build_tables
derives them once per (field, basis, tree) into a PrecompTable, the one
object every conversion reads.  The map phi_v(u, lam) carries an
evaluation shift lam down the same tree to leaf u of v's subtree, and
transport is the one place that computes it, from a table's field, tree and
inverted heads: one pass down v's subtree yields phi_v at every leaf for a
list of values at once.  phi_vector runs it on lam at the root.  phi_v is
GF(2)-linear in lam, so the transforms run it on the basis of a start
vertex to get the lam-free part of every leaf shift
(transforms._lin_columns).
"""

from binbasis.redtree import vertex_bases


def transport(table, v, values):
    """phi_v(u, x) for each x in values, at every leaf u under v.

    One list per leaf, leftmost leaf first.  Each vertex divides the values
    by its head: a leaf keeps the quotients q, an alpha child takes the
    values unchanged and a delta child takes q^(2^d) - q.  ValueError
    unless v is a vertex of the table's tree.
    """
    field, tree = table.field, table.tree
    if type(v) is not int or not 0 <= v < len(tree.size):
        raise ValueError(f"{v!r} is not a vertex of the table's tree")
    qs = [field.mul(x, table.head_inv[v]) for x in values]
    if tree.is_leaf(v):
        return [qs]
    d = tree.d_of(v)
    return (transport(table, tree.alpha[v], values)
            + transport(table, tree.delta[v], [field.pow2k(q, d) ^ q for q in qs]))


class PrecompTable:
    """Per-tree tables consumed by the basis transforms.

    Attributes, all indexed by preorder vertex id:
      bases      basis beta_v at each vertex; beta is the root's, bases[0]
      head       beta_{v,0}
      head_inv   1/beta_{v,0}

    Only leaf_lin and leaf_planes change after construction.  Both are keyed
    by start vertex and start empty; the first call that starts at a vertex
    in a layout stores the lam-free leaf shifts of every leaf under it, as
    a list indexed by leaf offset (leaf_start[leaf] - leaf_start[v]): values
    in the scalar layout and bit-planes in the other.  A table used only for
    counts never fills them.  build_tables is the checked constructor.
    """

    __slots__ = ("field", "tree", "beta", "bases", "head", "head_inv",
                 "leaf_lin", "leaf_planes")

    def __init__(self, field, tree, bases):
        self.field = field
        self.tree = tree
        self.beta = bases[0]
        self.bases = bases
        self.head = tuple(b[0] for b in bases)
        self.head_inv = tuple(field.inv(h) for h in self.head)
        self.leaf_lin = {}
        self.leaf_planes = {}

    def delta_head(self, v):
        """beta_{v_delta,0} for an internal vertex v."""
        return self.head[self.tree.delta[v]]

    def delta_head_inv(self, v):
        return self.head_inv[self.tree.delta[v]]

    def phi_entry_count(self):
        # The table stores no phi values: the transforms derive them.
        return 0


def build_tables(field, tree, beta):
    """The table of basis beta on the tree: its vertex bases and heads; no
    phi is evaluated.  ValueError unless beta holds one independent field
    element per leaf that satisfies the tree's splitting conditions.

    vertex_bases checks that the root basis is independent; the splitting
    conditions it also checks keep every vertex basis so (basisgen.delta_of).
    """
    if len(beta) != tree.n:
        raise ValueError(f"basis has {len(beta)} entries, expected {tree.n}, one per leaf")
    bases = vertex_bases(field, tree, beta)
    if bases is None:
        raise ValueError("basis does not satisfy the tree's splitting conditions")
    return PrecompTable(field, tree, bases)


def phi_vector(table, lam):
    """(phi_root(u, lam)) over all leaves u of the table's tree; the zero
    vector when lam is 0.  ValueError unless lam is a field element."""
    (lam,) = table.field.elements([lam], f"lam {lam}")
    if lam == 0:
        return [0] * table.tree.size[0]
    return [x for (x,) in transport(table, 0, [lam])]


def initial_phi_vector(field, tree, bases, lam):
    """phi_vector of a table of the vertex bases, whose heads it inverts."""
    return phi_vector(PrecompTable(field, tree, bases), lam)
