"""Per-vertex bases and the shift maps of a reduction tree.

Each vertex v of a reduction tree carries its own basis beta_v: the root
keeps the input basis, an alpha child takes the length-d prefix, and a delta
child takes the image of the suffix under q -> q^(2^d) - q.  The map
phi_v(u, lam) transports an evaluation shift lam down to leaf u of v's
subtree.  It is GF(2)-linear in lam, so the transforms need it only at the
basis elements of v; they derive those values from the bases and heads kept
here when a call first needs them (transforms._lin_columns).
"""

from binbasis.basisgen import is_independent
from binbasis.redtree import vertex_bases


def compute_vertex_bases(field, tree, beta):
    """Basis at every vertex, as a tuple indexed by preorder vertex id."""
    bases = vertex_bases(field, tree, beta)
    if bases is None:
        raise ValueError("basis does not satisfy the tree's splitting conditions")
    for b in bases:
        if not is_independent(b):
            raise ValueError("vertex basis lost independence")
    return tuple(bases)


def phi(field, tree, bases, v, u, lam):
    """Shift lam at vertex v transported to leaf u of v's subtree.

    u is a global leaf index.  At a leaf the value is lam/beta_{v,0}; alpha
    children inherit lam unchanged, delta children map it through
    q -> q^(2^d) - q with q = lam/beta_{v,0}.
    """
    lo = tree.leaf_start[v]
    if not lo <= u < lo + tree.size[v]:
        raise ValueError(f"leaf {u} is not under vertex {v}")
    while not tree.is_leaf(v):
        a = tree.alpha[v]
        if u < tree.leaf_start[a] + tree.size[a]:
            v = a
        else:
            q = field.mul(lam, field.inv(bases[v][0]))
            lam = field.pow2k(q, tree.d_of(v)) ^ q
            v = tree.delta[v]
    return field.mul(lam, field.inv(bases[v][0]))


class PrecompTable:
    """Per-tree tables consumed by the basis transforms.

    Attributes, all indexed by preorder vertex id:
      bases      basis beta_v at each vertex
      head       beta_{v,0}
      head_inv   1/beta_{v,0}

    Only leaf_lin and leaf_planes change after construction: they start
    empty, and the executors add the lam-free leaf shifts of each (start
    vertex, leaf) they run, as values in the scalar layout and as bit-planes
    in the other.  A table used only for counts never fills them.
    """

    __slots__ = ("field", "tree", "beta", "bases", "head", "head_inv",
                 "leaf_lin", "leaf_planes")

    def __init__(self, field, tree, beta, bases):
        self.field = field
        self.tree = tree
        self.beta = tuple(beta)
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
    """The vertex bases and heads the transforms read; no phi is evaluated."""
    return PrecompTable(field, tree, beta, compute_vertex_bases(field, tree, beta))


def initial_phi_vector(field, tree, bases, lam):
    """(phi_root(u, lam)) over all leaves u; the zero vector when lam is 0."""
    n = tree.size[0]
    if lam == 0:
        return [0] * n
    return [phi(field, tree, bases, 0, u, lam) for u in range(n)]
