"""In-place basis conversions over a reduction tree, with exact op counts.

The four named bases of the length-ell polynomial space are monomial, Newton,
Lagrange (values at the first ell points of lam + span(beta)), and the graded
basis X_i built from products of the Newton polynomials at power-of-two
indices.  Each conversion walks the reduction tree, viewing the coefficient
vector as a 2^(n_v - d_v) x 2^d_v matrix at vertex v and recursing on full
rows and strided columns.  Every field addition and multiplication performed
on coefficient data, and each addition the paper's executor makes on the
shift vector mu, is counted; everything precomputed is excluded.

Every call runs through _run: the public executors (one transform on a view
of a buffer's first entries), run_transform and convert (its legs and the
x -> beta_0 x twists of the monomial legs, on one vector).  _run checks the
shift vector, moves the values into a kernel layout chosen by the size of
the called vertex, runs the legs and the twists there and moves the values
out once.  Below 2^9 entries _Scalar keeps the entries in a list and
multiplies entry by entry; from 2^9 up bitslice holds them as m bit-planes.
Building either layout is the range check of the entries.  The twist is the
block scaling with blocks of one entry, so it needs no kernel of its own.

One walk, _walk, runs every transform breadth-first in batches, one pass
per split group over every call of a vertex with the same arguments, and
hands the leaf, Taylor and scaling steps to the layout's kernels, charging
the operations they return.  In both layouts a batch is a mask of start
positions and a leaf call's shift is its base plus a lam-free value.  The
first call at a start vertex derives those values for every leaf under it
in one pass of precomp.transport over the vertex basis, and the table
caches them.  The scalar kernels are the reference the tests hold the
bit-plane ones to.  On the scalar layout the walk stops at internal
vertices of at most _SMALL_DIM leaves and runs each call there as one
generated straight-line function, _straight, written once per family,
subtree shape, args and fired scaling guards by a symbolic run of the walk
itself.  The table's values reach it as arguments, so tables of one shape
in any field share it.

Each transform is described once, by a family record: its split, the
steps of its leaf calls, its scratch and phase order, and how (c, ell, b)
packs into its arguments.  Both layouts run those steps, and CountModel
prices them.  A convert is planned once, by _convert_plan: the legs of
each basis from the table _LEGS and the heads of its twists.  convert runs
that plan and CountModel.convert prices it.  _walk and CountModel read one
cached split schedule, _groups, and the replay needs lengths alone: all
counts are data-independent once the table fixes which scaling guards
fire, so sweeps over every ell are cheap even where execution would not be.
One memoized replay serves every CountModel of one tree and one set of
fired guards, so tables of one tree shape in other fields share it.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import compress
from operator import index
from types import SimpleNamespace

from binbasis.field import _integers
from binbasis.precomp import _transport, phi_vector
from binbasis.redtree import ReductionTree

BASIS_KINDS = ("monomial", "newton", "lagrange", "lch")


class OpCounter:
    """Running totals of counted field operations."""

    __slots__ = ("additions", "multiplications", "twist_multiplications")

    def __init__(self):
        self.additions = 0
        self.multiplications = 0
        self.twist_multiplications = 0

    def totals(self):
        return (self.additions, self.multiplications, self.twist_multiplications)

    def __repr__(self):
        return (f"OpCounter(additions={self.additions}, "
                f"multiplications={self.multiplications}, "
                f"twist_multiplications={self.twist_multiplications})")


class CoeffBuffer:
    """Mutable coefficient storage plus the counter charged for it."""

    __slots__ = ("data", "counter")

    def __init__(self, data):
        self.data = list(data)
        self.counter = OpCounter()

    def view(self, length=None):
        if length is None:
            length = len(self.data)
        return CoeffView(self, length)


class CoeffView:
    """Bounds-checked window over the first length entries of a CoeffBuffer."""

    __slots__ = ("buffer", "length")

    def __init__(self, buffer, length):
        (length,) = _integers("view length", length)
        if length < 1:
            raise ValueError("bad view geometry")
        if length > len(buffer.data):
            raise ValueError("view exceeds buffer")
        self.buffer = buffer
        self.length = length

    def __len__(self):
        return self.length

    def __getitem__(self, i):
        if not 0 <= i < self.length:
            raise IndexError(f"view index {i} out of range")
        return self.buffer.data[i]


def _clog2(x):
    return (x - 1).bit_length()


# A split lists the child calls at an internal vertex whose alpha child has
# dimension d.  It is a tuple of phases, each a tuple of groups
# (row, first, count, shift, child args): rows first..first+count-1 of the
# 2^(n_v-d) x 2^d matrix view go to the alpha child, columns to the delta
# child.  Row i of a row group with shift set runs at the alpha shift vector
# advanced after each row j < i by phi_v at beta_{v,d} + ... +
# beta_{v,d+k}, with k the index of the lowest zero bit of j.  The layouts
# read that sum from the lam-free leaf shifts; the counts charge the paper's
# d additions on mu per advance.
# Inverse twins walk the phases of the same split in reverse order.


def graded_split(d, ell):
    """Split of n2x, x2n, x2m and m2x at length ell: rows, then columns."""
    w = 1 << d
    # l1 = ceil(ell/w) - 1, so the last row has 1..w entries.
    l1 = -(-ell // w) - 1
    l2 = ell - w * l1
    return (((True, 0, l1, True, (w,)), (True, l1, 1, False, (l2,))),
            ((False, 0, l2, False, (l1 + 1,)),
             (False, l2, min(w, ell) - l2, False, (l1,))))


def l2x_split(d, c, ell, b):
    """Split of l2x: child args (c, ell, b)."""
    w = 1 << d
    c1, c2 = divmod(c, w)
    l1, l2 = divmod(ell, w)
    bp = min(b + c2, 1)
    s = min(c2, l2)
    t = max(c2, l2)
    return (((True, 0, c1 + bp - 1, True, (w, w, 0)),
             (True, c1 - 1, 1 - bp, False, (w, w, 0))),
            ((False, c2, t - c2, False, (c1, l1 + 1, bp)),
             (False, t, min(w, ell) - t, False, (c1, l1, bp))),
            ((True, c1, bp, False, (c2, min(w, ell), b)),),
            ((False, 0, s, False, (c1 + 1, l1 + 1, 0)),
             (False, s, c2 - s, False, (c1 + 1, l1, 0))))


def x2l_split(d, c, ell):
    """Split of x2l: child args (c, ell)."""
    w = 1 << d
    c1 = -(-c // w) - 1
    l1, l2 = divmod(ell, w)
    l2p = min(w, ell)
    return (((False, 0, l2, False, (c1 + 1, l1 + 1)),
             (False, l2, l2p - l2, False, (c1 + 1, l1))),
            ((True, 0, c1, True, (w, l2p)), (True, c1, 1, False, (c - w * c1, l2p))))


# Every leaf call reads its entries x0 = entry p and x1 = entry p + gap and
# runs at its shift s.  A family's leaf function maps args to the flags
# (pre, mul, mid, post, copy) of the steps the call runs, in this order:
#   1. pre: x1 ^= x0     2. mul: k = s * x1     3. mid: x1 ^= x0
#   4. x0 ^= k, whenever mul runs     5. post: x1 ^= x0     6. copy: x1 = x0
# Both layouts run these steps, and _leaf_cost prices them.


def _graded_leaf(args):
    """Leaf steps of n2x and x2n; args is (ell,)."""
    return (False, args[0] == 2, False, False, False)


def _l2x_leaf(args):
    """Leaf steps of l2x; args is (c, ell, b).  c = 2 adds x0 into x1
    before the product reads it, the known value c = b = 1 after."""
    c, ell, b = args
    known = c == b == 1
    return (c == 2, ell == 2, ell == 2 and known, False, ell != 2 and known)


def _x2l_leaf(args):
    """Leaf steps of x2l; args is (c, ell)."""
    c, ell = args
    return (False, ell == 2, False, ell == 2 and c == 2, ell != 2 and c == 2)


def _leaf_cost(steps):
    """(additions, multiplications) of one leaf call running steps."""
    pre, mul, mid, post, _ = steps
    return (pre + mul + mid + post, int(mul))


# A pack function checks c and b of one call at an nv-dim vertex and packs
# them with ell into the family's args; the transform ignores what it drops.


def _graded_pack(nv, c, ell, b):
    return (ell,)


def _l2x_pack(nv, c, ell, b):
    if not 0 <= c <= ell:
        raise ValueError(f"c {c} out of range for ell {ell}; need 0 <= c <= ell")
    if b not in (0, 1) or not 1 <= b + c <= (1 << nv):
        raise ValueError(f"b {b} out of range for c {c}; "
                         f"need b in (0, 1) and 1 <= b + c <= {1 << nv}")
    return (c, ell, b)


def _x2l_pack(nv, c, ell, b):
    if not 1 <= c <= (1 << nv):
        raise ValueError(f"c {c} out of range at a {nv}-dim vertex; "
                         f"need 1 <= c <= {1 << nv}")
    return (c, ell)


# A family record describes one transform; its split reaches the walk and
# CountModel only as the cached schedule of _groups.  key names its counts
# in CountModel's memo, which inverse twins share, so records that share a
# key must have equal counts.  leaf gives a leaf call's steps; it is None
# for x2m and m2x, whose calls of length 2 or less do nothing.  full says
# whether children see their whole 2^n scratch, and inverse whether the
# phases of the split run in reverse.
_Family = namedtuple("_Family", "key split leaf full inverse pack")

_N2X = _Family("n2x", graded_split, _graded_leaf, False, False, _graded_pack)
_X2N = _N2X._replace(inverse=True)
_L2X = _Family("l2x", l2x_split, _l2x_leaf, True, False, _l2x_pack)
_X2L = _Family("x2l", x2l_split, _x2l_leaf, True, False, _x2l_pack)
_X2M = _Family("x2m", graded_split, None, False, False, _graded_pack)
_M2X = _X2M._replace(inverse=True)

_FAMILIES = {"n2x": _N2X, "x2n": _X2N, "l2x": _L2X, "x2l": _X2L, "x2m": _X2M, "m2x": _M2X}

# The families of each named basis but lch, into the graded basis and out of
# it, and whether they carry the x -> beta_0 x twist.  _convert_plan reads
# them, for convert to run and for CountModel.convert to count.
_LEGS = {"newton": (_N2X, _X2N, False), "lagrange": (_L2X, _X2L, False),
         "monomial": (_M2X, _X2M, True)}


def _args(name, tree, v, c, ell, b):
    """(family, checked args) of one call of transform name at vertex v: the
    one argument check of the executors, run_transform, convert and
    CountModel."""
    fam = _FAMILIES.get(name)
    if fam is None:
        raise ValueError(f"unknown transform {name!r}; choose from {', '.join(_FAMILIES)}")
    v, c, ell, b = _integers("v, c, ell and b", v, c, ell, b)
    if not 0 <= v < len(tree.size):
        raise ValueError(f"vertex {v} out of range for a tree of {len(tree.size)} vertices")
    nv = tree.size[v]
    if not 1 <= ell <= (1 << nv):
        raise ValueError(f"ell {ell} out of range at a {nv}-dim vertex")
    return fam, fam.pack(nv, c, ell, b)


# Schedules are table-free.  4096 entries keep a count sweep's until the
# next table of the same tree shape replays them; 1024 and 2048 did not.
@lru_cache(maxsize=4096)
def _groups(fam, d, dh, args):
    """Child groups of the calls with args at a vertex whose alpha and delta
    children have dimensions d and dh, phase by phase in the order they run.

    Every group is checked against the calls' view length before any is
    run.  Children of l2x and x2l see their whole 2^n scratch, the others
    their ell entries; those never read dh, and callers pass 0 for it so
    that the levels of a comb share entries.  Each group is (row, first,
    count, adds, args), with adds the d additions on mu per call of a
    shifted row, else 0.
    """
    w, height = 1 << d, 1 << dh
    leaf, full = fam.leaf, fam.full
    n = w * height if full else args[0]
    phases = fam.split(d, *args)
    out = []
    for phase in (reversed(phases) if fam.inverse else phases):
        groups = []
        for row, first, count, shift, cargs in phase:
            # Calls of x2m and m2x of length 2 or less do nothing.
            if not count or not (leaf or cargs[0] > 2):
                continue
            if row:
                last = w * (first + count - 1) + (w if full else cargs[0])
            else:
                last = first + count + w * ((height if full else cargs[0]) - 1)
            if first < 0 or last > n:
                raise ValueError("child group exceeds parent view")
            groups.append((row, first, count, d if shift and leaf else 0, cargs))
        out.append(tuple(groups))
    return tuple(out)


def _repunit(count, step):
    """Sum of 2^(step*i) for i < count."""
    return ((1 << step * count) - 1) // ((1 << step) - 1)


# A batch is every call of one vertex with one argument tuple, held as a
# mask whose bits are the calls' start positions in the view; the calls of
# one vertex share one stride 2^e.  The child batch of a split group is the
# parent mask times the repunit over the group's row (or column) starts,
# and a shifted row group charges its d additions per row and call.
#
# A layout holds the entries of one call.  It is built from the call's
# values as layout(table, start, phi_vec, counter, values), which raises
# ValueError if one is not a field element, and zero-pads them to the 2^n
# entries of the start vertex.  Its kernels run on every call of a batch:
# leaves(fam, leaf, batches, gap) on the batches of a leaf, and
# taylor(t, ell, mask, e, expand) as _taylor and scale(w, ell, step, mask, e)
# as _scale_blocks, which return the additions and the multiplications they
# made for the caller to charge.  values(keep) returns the first keep
# entries.  n2x, x2n, x2m and m2x touch only the first ell entries of a
# call (the schedule checks it), so the entries past them keep what they held.
#
# A layout may also run whole subtrees.  At an internal vertex of at most
# small leaves, _walk hands the batches to subtree(fam, v, batches, e),
# which runs every call there and charges it.  The scalar layout sets small
# to _SMALL_DIM and runs generated straight-line code (_straight), fed the
# table's leaf shifts or scaling heads; the bit-plane layout sets it to 0
# and is walked down to its leaves.


def _walk(lay, fam, v, batches, e):
    """The calls of vertex v on layout lay: batches maps args to a mask of
    start positions, at stride 2^e.

    The walk runs in lockstep.  The groups of one phase of a split touch
    disjoint entries, and so do their subtrees, so the child batches of
    every batch of v run together, phase by phase; batches of one child
    with equal args from different parents share one mask.
    """
    table = lay.table
    tree = table.tree
    va = tree.alpha[v]
    ctr = lay.counter
    if va < 0:
        if fam.leaf is not None:
            lay.leaves(fam, v, batches, 1 << e)
            for args, mask in batches.items():
                adds, muls = _leaf_cost(fam.leaf(args))
                span = mask.bit_count()
                ctr.additions += adds * span
                ctr.multiplications += muls * span
        return
    if tree.size[v] <= lay.small:
        lay.subtree(fam, v, batches, e)
        return
    d = tree.size[va]
    dh = tree.size[tree.delta[v]] if fam.full else 0
    phased = [_groups(fam, d, dh, args) for args in batches]
    xm = fam.leaf is None
    if xm:
        # x2m runs its block scaling and Taylor inverse after its children,
        # m2x the Taylor expansion and scaling before them.
        w = 1 << d
        head = (table.delta_head if fam.inverse else table.delta_head_inv)(v)
        if fam.inverse:
            for (ell,), mask in batches.items():
                ctr.additions += lay.taylor(w, ell, mask, e, True)
                ctr.multiplications += lay.scale(w, ell, head, mask, e)
    rstep, cstep = 1 << e + d, 1 << e
    masks = batches.values()
    for phase in zip(*phased):
        rows, cols = {}, {}
        for mask, groups in zip(masks, phase):
            for row, first, count, adds, args in groups:
                if not row:
                    cols[args] = cols.get(args, 0) | mask * _repunit(count, cstep) << cstep * first
                    continue
                if adds:
                    ctr.additions += adds * count * mask.bit_count()
                rows[args] = rows.get(args, 0) | mask * _repunit(count, rstep) << rstep * first
        if rows:
            _walk(lay, fam, va, rows, e)
        if cols:
            _walk(lay, fam, tree.delta[v], cols, e + d)
    if xm and not fam.inverse:
        for (ell,), mask in batches.items():
            ctr.multiplications += lay.scale(w, ell, head, mask, e)
            ctr.additions += lay.taylor(w, ell, mask, e, False)


def _lin_columns(table, v):
    """lin_L(2^j) for each bit j of a position in a call at vertex v, one
    list per leaf L under v, leftmost leaf first.

    The shift of the leaf call at position p is phi_vec[L] ^ lin_L(p), with
    lin_L(p) phi_v at the point of span(beta_v) at the bits of p.  phi_v is
    GF(2)-linear, so column j is phi_v(L, beta_{v,j}), except at the leaf's
    own bit: leaf i marks x1 of the butterflies with bit i, where no call
    starts, and its column i is 0.  Both layouts build their lam-free
    shifts from these columns.
    """
    cols = _transport(table, v, table.bases[v])
    for i, row in enumerate(cols):
        row[i] = 0
    return cols


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _offsets(mask):
    """The set bits of mask, lowest first."""
    if mask == 1:  # a root call and its twists
        return [0]
    bits = bin(mask)[:1:-1].encode().translate(_BITS)
    return list(compress(range(len(bits)), bits))


def _leaf_lins(table, start):
    """lin_L at every position of a call at start, for each leaf L under
    start by leaf offset; built at the first call at start and kept by the
    table."""
    lins = table.leaf_lin.get(start)
    if lins is None:
        lins = table.leaf_lin[start] = []
        for cols in _lin_columns(table, start):
            lin = [0]
            for col in cols:
                lin += [x ^ col for x in lin]
            lins.append(lin)
    return lins


# Internal vertices of this many leaves or fewer run on the scalar layout as
# generated straight-line code, one function per call (_straight).  An n = 3
# transform then costs one lookup and one call instead of a walk whose
# bookkeeping outweighs its dozen field operations.  On converts of the 12
# pairs at n = 4..8 (GF(2^16) cantor/cantor and random:5/trivial, GF(2^32)
# cantor/cantor, full and ragged, min of 5, 2-vCPU VM), 4 took 0.45-0.92x
# the time of 3.  5 took 0.63-0.65x the time of 4 at n = 5, 0.83-0.92x on
# combs and 0.94-1.10x elsewhere, but generating its larger functions made
# the test suite 1.5x slower.
_SMALL_DIM = 4


class _Scalar:
    """The scalar layout: the entries of a call in one list, zero-padded to
    the 2^n_v entries of the start vertex, and kernels that loop over the set
    bits of a batch mask as list offsets."""

    __slots__ = ("table", "start", "phi_vec", "counter", "data")
    small = _SMALL_DIM

    def __init__(self, table, start, phi_vec, counter, values):
        data = table.field.elements(values, "data entry")
        self.table = table
        self.start = start
        self.phi_vec = phi_vec
        self.counter = counter
        self.data = data + [0] * ((1 << table.tree.size[start]) - len(data))

    def values(self, keep):
        return self.data[:keep]

    def leaves(self, fam, leaf, batches, gap):
        table = self.table
        tree = table.tree
        i = tree.leaf_start[leaf] - tree.leaf_start[self.start]
        lin, base = _leaf_lins(table, self.start)[i], self.phi_vec[i]
        data, mul = self.data, table.field.mul
        # Each step of a batch is one loop over its calls' offsets p.
        for args, mask in batches.items():
            pre, prod, mid, post, copy = fam.leaf(args)
            offs = _offsets(mask)
            if pre:
                for p in offs:
                    data[p + gap] ^= data[p]
            if prod:
                ks = [mul(base ^ lin[p], data[p + gap]) for p in offs]
            if mid:
                for p in offs:
                    data[p + gap] ^= data[p]
            if prod:
                for p, k in zip(offs, ks):
                    data[p] ^= k
            if post:
                for p in offs:
                    data[p + gap] ^= data[p]
            if copy:
                for p in offs:
                    data[p + gap] = data[p]

    def subtree(self, fam, v, batches, e):
        """Every call of the batches at v by the generated code of its
        subtree's shape, fed the table's values: the shifts of the leaves
        under v, or the heads of the x2m/m2x scalings."""
        table = self.table
        tree = table.tree
        shape, deltas = _subtree(tree, v)
        if fam.leaf is None:
            heads = table.head if fam.inverse else table.head_inv
            extra = [heads[u] for u in deltas]
            guards = tuple(h != 1 for h in extra)
        else:
            i = tree.leaf_start[v] - tree.leaf_start[self.start]
            j = i + tree.size[v]
            extra = self.phi_vec[i:j] + _leaf_lins(table, self.start)[i:j]
            guards = None
        # Every function is found, and so every schedule checked, before
        # any call writes.
        runs = [(_straight(fam, shape, args, guards), mask) for args, mask in batches.items()]
        data, s, mul, ctr = self.data, 1 << e, table.field.mul, self.counter
        for (run, adds, muls), mask in runs:
            span = mask.bit_count()
            ctr.additions += adds * span
            ctr.multiplications += muls * span
            for o in _offsets(mask):
                run(data, o, s, mul, *extra)

    def taylor(self, t, ell, mask, e, expand):
        return _taylor(t, ell, self.data, _offsets(mask), 1 << e, expand)

    def scale(self, w, ell, step, mask, e):
        return _scale_blocks(self.table.field, self.data, _offsets(mask), 1 << e, w, ell, step)


@lru_cache(maxsize=256)
def _subtree(tree, v):
    """(shape, delta child of each internal vertex in preorder) of the
    subtree at v, which holds the ids v .. v + 2 n_v - 2."""
    inner = (u for u in range(v, v + 2 * tree.size[v] - 1) if tree.alpha[u] >= 0)
    return tree.to_shape(v), tuple(tree.delta[u] for u in inner)


# _straight writes a call's code by running _walk on a scalar layout whose
# entries, leaf shifts, heads and products are _Syms: each XOR or product
# the kernels make appends one assignment to a fresh local.


class _Sym:
    """A value in the code being built, by its source text."""

    __slots__ = ("text", "code")

    def __init__(self, text, code):
        self.text = text
        self.code = code

    def __xor__(self, other):
        return self.code.emit("{} ^ {}", self, other)


class _Lin:
    """lin_L of one leaf as the list its code reads at the call's positions."""

    __slots__ = ("name", "code")

    def __init__(self, name, code):
        self.name = name
        self.code = code

    def __getitem__(self, p):
        return _Sym(f"{self.name}[o + {p} * s]" if p else f"{self.name}[o]", self.code)


class _Code:
    """The statements of one generated function, and the field its symbolic
    run multiplies in."""

    def __init__(self):
        self.lines = []
        self.read = set()

    def emit(self, form, a, b):
        self.read.update((a, b))
        name = f"t{len(self.lines)}"
        self.lines.append(f"    {name} = " + form.format(a.text, b.text))
        return _Sym(name, self)

    def mul(self, a, b):
        return self.emit("mul({}, {})", a, b)

    def elements(self, values, what):
        return list(values)


class _ScalarWalk(_Scalar):
    """The scalar layout walked down to its leaves: the symbolic run of
    _straight, and the reference the tests hold its code to."""

    __slots__ = ()
    small = 0


# One function per (family, shape, args, guards) of the calls that reach
# _Scalar.subtree, about 5 KB each at n = 4.  The cli verify runs of a
# count sweep, at n = 3 on two tree shapes, make 96.
@lru_cache(maxsize=1024)
def _straight(fam, shape, args, guards):
    """(run, additions, multiplications) of a call with args at the root of
    a subtree of the given shape: run(data, o, s, mul, *extra) makes it on
    the entries o + s*p of data, with extra as _Scalar.subtree passes it.

    guards is None for a family with leaf steps, which takes the bases and
    lin_L lists of the subtree's leaves; x2m and m2x take the head of each
    internal vertex's scaling, and guards says which differ from 1.  The
    code holds no table value, and the counts are the walk's.  Generating it
    runs the schedule's checks, so a bad schedule raises here, before any
    call has written.
    """
    tree = ReductionTree.from_shape(shape)
    nv = tree.n
    code = _Code()
    entries = [_Sym(f"x{p}", code) for p in range(1 << nv)]
    bases = lins = heads = None
    if guards is None:
        params = [f"b{i}" for i in range(nv)] + [f"l{i}" for i in range(nv)]
        bases = [_Sym(f"b{i}", code) for i in range(nv)]
        lins = [_Lin(f"l{i}", code) for i in range(nv)]
    else:
        params = [f"h{k}" for k in range(len(guards))]
        inner = (u for u in tree.vertices() if not tree.is_leaf(u))
        heads = {u: _Sym(f"h{k}", code) if fired else 1
                 for k, (u, fired) in enumerate(zip(inner, guards))}.__getitem__
    table = SimpleNamespace(field=code, tree=tree, leaf_lin={0: lins},
                            delta_head=heads, delta_head_inv=heads)
    lay = _ScalarWalk(table, 0, bases, OpCounter(), entries)
    _walk(lay, fam, 0, {args: 1}, 0)
    out = lay.data
    # Load every entry up to the last one read or written, and store every
    # entry up to the last one written.
    loads = 1 + max((p for p, x in enumerate(entries) if x in code.read or out[p] is not x),
                    default=-1)
    stores = 1 + max((p for p, x in enumerate(entries) if out[p] is not x), default=-1)
    lines = [f"def subtree({', '.join(['data', 'o', 's', 'mul', *params])}):"]
    if loads:
        names = ", ".join(x.text for x in entries[:loads])
        lines.append(f"    {names}, = data[o:o + {loads} * s:s]")
    lines += code.lines
    if stores:
        names = ", ".join(x.text for x in out[:stores])
        lines.append(f"    data[o:o + {stores} * s:s] = {names},")
    lines.append("    return")
    scope = {}
    exec("\n".join(lines), scope)
    return scope["subtree"], lay.counter.additions, lay.counter.multiplications


# Calls at vertices with 2^n_v >= 512 entries run on bit-planes (bitslice).
# Planes against the scalar speed, per root call (min of 7, 2-vCPU VM) on
# GF(2^16) cantor/cantor, random:4/trivial and gencantor:2/graft:2 and on
# GF(2^32) random:4/trivial and cantor/cantor.  At n_v = 8, full-length
# transforms and converts ran at 0.99-2.1x on GF(2^16) and 0.99-4.1x on
# GF(2^32), but a ragged l2x at 0.36-0.66x and lagrange->lch at 0.21-0.71x
# (ell = 173), and other ragged calls at 0.80-1.04x on GF(2^16).  At
# n_v = 9 full-length calls ran at 1.7-6.0x, other ragged ones at 1.1-3.6x,
# and a ragged l2x still at 0.33-1.17x (ell = 301).
_PLANES_MIN_DIM = 9


def _run(table, v, legs, keep, phi_vec, values, counter, twist=(1, 1)):
    """Run legs, each (family, args) of a call at vertex v, one after another
    on values; returns the first keep entries.  Every call goes into a
    layout here and comes out again.

    Building the layout checks the values: bit-planes at vertices of 2^9
    entries or more, the scalar list below.  No leg reads an entry at keep
    or up that an earlier leg wrote: only l2x and x2l reach past their
    first ell entries, and in a convert l2x can only be the first leg and
    x2l the last.  twist holds the heads of the substitution x -> head x
    run on the first keep entries before the legs and after them, as block
    scalings with blocks of one entry; the scaling kernel skips a head of 1.
    x2m and m2x ignore phi_vec.
    """
    nv = table.tree.size[v]
    if any(fam.leaf is not None for fam, _ in legs):
        phi_vec = table.field.elements(phi_vec, "shift")
        if len(phi_vec) != nv:
            raise ValueError(f"phi vector length {len(phi_vec)}, expected {nv}")
    if nv >= _PLANES_MIN_DIM:
        # Imported on first use: processes that only run small calls, such
        # as count sweeps and the CLI at small n, never compile it.
        from binbasis.bitslice import _Planes as layout
    else:
        layout = _Scalar
    lay = layout(table, v, phi_vec, counter, values)
    counter.twist_multiplications += lay.scale(1, keep, twist[0], 1, 0)
    for fam, args in legs:
        _walk(lay, fam, v, {args: 1}, 0)
    counter.twist_multiplications += lay.scale(1, keep, twist[1], 1, 0)
    return lay.values(keep)


def _start(name, v, c, ell, b, phi_vec, view, table):
    """Check one call on a view and run it in place."""
    fam, args = _args(name, table.tree, v, c, ell, b)
    want = (1 << table.tree.size[v]) if fam.full else ell
    if view.length != want:
        raise ValueError(f"view length {view.length}, expected {want}")
    data = view.buffer.data
    data[:want] = _run(table, v, [(fam, args)], want, phi_vec, data[:want], view.buffer.counter)


def n2x(v, phi_vec, ell, view, table):
    """Rewrite shifted-Newton coefficients as graded coefficients, in place."""
    _start("n2x", v, ell, ell, 0, phi_vec, view, table)


def x2n(v, phi_vec, ell, view, table):
    """Inverse of n2x: columns first, then rows in the same shift order."""
    _start("x2n", v, ell, ell, 0, phi_vec, view, table)


def l2x(v, phi_vec, c, ell, b, view, table):
    """Lagrange values (and a known coefficient tail) to graded coefficients.

    The view spans the full 2^n_v scratch; entries 0..c-1 hold values f_i,
    entries c..ell-1 hold coefficients h_i.  Afterwards entries 0..c-1 hold
    h_i, and entry c holds the value f_c when b is 1.
    """
    _start("l2x", v, c, ell, b, phi_vec, view, table)


def x2l(v, phi_vec, c, ell, view, table):
    """Graded coefficients to the first c Lagrange values, in place.

    The view spans the full 2^n_v scratch; entries 0..ell-1 hold h_i, and
    afterwards entries 0..c-1 hold the values f_i.  c may exceed ell.
    """
    _start("x2l", v, c, ell, 0, phi_vec, view, table)


@lru_cache(maxsize=256)
def _taylor_levels(t, ell):
    """(block, half, full block pairs, tail) of each Taylor level, lowest first."""
    if t < 2:
        raise ValueError("expansion point requires t >= 2")
    levels = []
    for k in range(_clog2(-(-ell // t))):
        blk = t << k
        l1 = ell // (2 * blk)
        levels.append((blk, 1 << k, l1, ell - 2 * blk * l1))
    return tuple(levels)


def _taylor_adds(t, ell):
    """Additions of one _taylor call on one instance."""
    return sum(blk * l1 + max(l2 - blk, 0) for blk, _, l1, l2 in _taylor_levels(t, ell))


def _taylor(t, ell, data, offs, s, expand):
    """Shared body of taylor_expand and taylor_inverse, on each instance;
    returns the additions made.

    Expanding runs both loop directions high to low: within a block the
    target range overlaps the source range shifted by half a block, and the
    tail of the source must be consumed before it is overwritten.  The
    inverse makes the same updates with both loop orders reversed.  The
    instances touch disjoint entries, so each runs on its own.
    """
    levels = _taylor_levels(t, ell)
    adds = 0
    for blk, half, l1, l2 in (reversed(levels) if expand else levels):
        gap = s * (blk - half)
        for i in range(l1 + 1):
            n = blk if i < l1 else max(l2 - blk, 0)
            dst = s * (2 * blk * i + half)
            for o in offs:
                targets = range(o + dst, o + dst + s * n, s)
                for p in (reversed(targets) if expand else targets):
                    data[p] ^= data[p + gap]
            adds += n
    return adds * len(offs)


def _taylor_view(t, ell, view, expand):
    """_taylor on one view of length ell."""
    t, ell = _integers("t and ell", t, ell)
    if view.length != ell:
        raise ValueError(f"view length {view.length}, expected {ell}")
    buf = view.buffer
    buf.counter.additions += _taylor(t, ell, buf.data, [0], 1, expand)


def taylor_expand(t, ell, view):
    """Coefficients of the expansion at x^t - x, in place."""
    _taylor_view(t, ell, view, True)


def taylor_inverse(t, ell, view):
    """Inverse of taylor_expand, in place."""
    _taylor_view(t, ell, view, False)


def _scale_blocks(field, data, offs, s, w, ell, step):
    """Multiply block i (entries w*i..w*i+w-1) by step^i for each i >= 1;
    returns the multiplications made.

    One multiplication per entry past the first block, and one per power
    of step after the first.  Each instance computes its own powers, as a
    call of its own would.  With w = 1 this is the substitution x -> step x.
    A call with ell <= w or step = 1, as every scaling on a Cantor basis
    is, does nothing and returns 0; its callers do not test for it.
    """
    if ell <= w or step == 1:
        return 0
    mul = field.mul
    muls = 0
    for o in offs:
        acc = step
        for base in range(w, ell, w):
            if base > w:
                acc = mul(acc, step)
                muls += 1
            block = slice(o + s * base, o + s * min(base + w, ell), s)
            data[block] = [mul(acc, x) for x in data[block]]
            muls += min(w, ell - base)
    return muls


def _scale_muls(w, ell, step):
    """Multiplications of one _scale_blocks call, 0 where it skips."""
    return 0 if ell <= w or step == 1 else ell - w + -(-ell // w) - 2


def x2m(v, ell, view, table):
    """Twisted graded coefficients to monomial coefficients, in place."""
    _start("x2m", v, ell, ell, 0, None, view, table)


def m2x(v, ell, view, table):
    """Inverse of x2m: expand, scale blocks up, then columns and rows."""
    _start("m2x", v, ell, ell, 0, None, view, table)


def scale_by_powers(field, view, w):
    """a_i <- w^i a_i with one running power; the substitution x -> wx.

    Multiplications land in the twist counter: this is the move that turns
    the twisted graded basis into the plain one, priced separately.
    """
    if w == 0:
        raise ValueError("scale factor must be nonzero")
    (w,) = field.elements([w], "scale factor")
    buf = view.buffer
    field.elements(buf.data[:len(view)], "data entry")
    buf.counter.twist_multiplications += _scale_blocks(field, buf.data, [0], 1, 1, len(view), w)


def _convert_plan(table, kind_from, kind_to, ell):
    """(legs, twist) of a convert at length ell: the legs of _LEGS, each
    (family, args) of the call at the root with c = ell and b = 0, and the
    heads of the x -> head x twists before the legs and after them, 1
    where none runs."""
    for kind in (kind_from, kind_to):
        if kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {kind!r}")
    (ell,) = _integers("ell", ell)
    n = table.tree.size[0]
    if not 1 <= ell <= (1 << n):
        raise ValueError(f"ell {ell} out of range for dimension {n}")
    legs, twist = [], [1, 1]
    if kind_from != kind_to:
        for side, kind, head in ((0, kind_from, table.head[0]), (1, kind_to, table.head_inv[0])):
            if kind in _LEGS:
                fam, twisted = _LEGS[kind][side], _LEGS[kind][2]
                legs.append((fam, fam.pack(n, ell, ell, 0)))
                if twisted:
                    twist[side] = head
    return legs, twist


def run_transform(name, v, phi_vec, c, ell, b, data, table):
    """Run one raw transform at vertex v on the ell entries of data; returns
    (output, OpCounter).

    l2x and x2l work in a zero-padded scratch of 2^n_v entries.  l2x returns
    its first max(c + b, ell), which include the value f_c when b is 1, and
    x2l its first max(c, ell).  x2l ignores b, the others c and b, and x2m
    and m2x also phi_vec.
    """
    fam, args = _args(name, table.tree, v, c, ell, b)
    if len(data) != ell:
        raise ValueError(f"expected {ell} entries, got {len(data)}")
    # args are (c, ell, b) for l2x and (c, ell) for x2l.
    keep = max(ell, sum(args) - ell) if fam.full else ell
    counter = OpCounter()
    return _run(table, v, [(fam, args)], keep, phi_vec, data, counter), counter


def convert(field, kind_from, kind_to, beta, tree, lam, ell, coeffs, table):
    """Convert between two named bases; returns (coefficients, OpCounter).

    All pairs route through the graded basis, by the legs of _convert_plan.
    The substitution needed by the monomial legs is counted in
    twist_multiplications; lam is ignored by those legs, which carry no
    evaluation shift.  The table fixes the field, basis and tree, and the
    ones passed must match it.

    Both legs and both twists run in one layout at the root, and building
    it checks the coefficients: from 2^9 entries up the vector is
    transposed into bit-planes once and back once.
    """
    if (field, tuple(beta), tree) != (table.field, table.beta, table.tree):
        raise ValueError("field, basis or tree does not match the table")
    legs, twist = _convert_plan(table, kind_from, kind_to, ell)
    ell = index(ell)
    coeffs = list(coeffs)
    if len(coeffs) != ell:
        raise ValueError(f"expected {ell} coefficients, got {len(coeffs)}")
    counter = OpCounter()
    phi_vec = phi_vector(table, lam)
    return _run(table, 0, legs, ell, phi_vec, coeffs, counter, twist), counter


# Counts read nothing from a table but its tree and which x2m/m2x scaling
# guards fire, so every CountModel of one tree and one set of guards shares
# one memo, keyed (family key, v, args).  Two memos are kept: a sweep that
# replays one tree shape in two fields keeps both if their guards differ.
@lru_cache(maxsize=2)
def _memo(tree, guards):
    return {}


class CountModel:
    """Exact operation counts replayed on lengths alone.

    Counts are data-independent: the recursion shape depends only on the
    vertex and length parameters, and the scaling guards only on stored
    table heads.  One memoized replay sums the walk's schedule, _groups, by
    group count and prices leaf calls by the family's leaf cost, so
    whole-range ell sweeps are cheap where executing the transforms would
    not be.  The memo is shared by every model whose table has the same
    tree and the same fired guards, whatever its field or basis.  convert
    prices the plan of _convert_plan that convert runs.  What the
    executors reject raises the same ValueError here.
    """

    def __init__(self, table):
        self.table = table
        self.tree = tree = table.tree
        self._memo = _memo(tree, tuple(table.delta_head(v) != 1 for v in tree.internal_vertices()))

    def _count(self, fam, v, args):
        """(additions, multiplications) of one executor call of a family."""
        key = (fam.key, v, args)
        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        tree = self.tree
        va = tree.alpha[v]
        if va < 0:
            hit = _leaf_cost(fam.leaf(args)) if fam.leaf else (0, 0)
        else:
            vd, d = tree.delta[v], tree.size[va]
            a = m = 0
            for phase in _groups(fam, d, tree.size[vd] if fam.full else 0, args):
                for row, _, count, adds, cargs in phase:
                    # A child's counts are looked up here, and recursed for
                    # only on a miss.
                    u = va if row else vd
                    ca, cm = memo.get((fam.key, u, cargs)) or self._count(fam, u, cargs)
                    a += count * (ca + adds)
                    m += count * cm
            if fam.leaf is None:
                ell, w = args[0], 1 << d
                a += _taylor_adds(w, ell)
                m += _scale_muls(w, ell, self.table.delta_head(v))
            hit = (a, m)
        memo[key] = hit
        return hit

    def transform(self, name, v, c, ell, b):
        """(additions, multiplications, twist_multiplications) of
        run_transform(name, v, phi_vec, c, ell, b, data, table)."""
        fam, args = _args(name, self.tree, v, c, ell, b)
        return self._count(fam, v, args) + (0,)

    def l2x(self, v, c, ell, b):
        return self.transform("l2x", v, c, ell, b)[:2]

    def x2l(self, v, c, ell):
        return self.transform("x2l", v, c, ell, 0)[:2]

    def convert(self, kind_from, kind_to, ell):
        """(additions, multiplications, twist_multiplications) of convert():
        its plan's legs, and 2*ell - 3 per twist by a head other than 1.

        The total is memoized with the legs' counts.  Its key adds whether
        the root head is 1, which the twists read and the memo's guards do
        not; an ell that is not an int is never served from it, so that
        _convert_plan rejects a float or a bool.
        """
        key = None
        if type(ell) is int and kind_from in BASIS_KINDS and kind_to in BASIS_KINDS:
            key = (kind_from, kind_to, ell, self.table.head[0] != 1)
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        legs, twist = _convert_plan(self.table, kind_from, kind_to, ell)
        a = m = 0
        for fam, args in legs:
            da, dm = self._count(fam, 0, args)
            a, m = a + da, m + dm
        ell = index(ell)
        total = (a, m, _scale_muls(1, ell, twist[0]) + _scale_muls(1, ell, twist[1]))
        if key is not None:
            self._memo[key] = total
        return total
