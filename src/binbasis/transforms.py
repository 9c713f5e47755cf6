"""In-place basis conversions over a reduction tree, with exact op counts.

The four named bases of the length-ell polynomial space are monomial, Newton,
Lagrange (values at the first ell points of lam + span(beta)), and the graded
basis X_i built from products of the Newton polynomials at power-of-two
indices.  Each conversion walks the reduction tree, viewing the coefficient
vector as a 2^(n_v - d_v) x 2^d_v matrix at vertex v and recursing on full
rows and strided columns.  The public executors take a strided view and
check it; below them the recursion runs breadth-first in batches, one pass
per split group over every call of a vertex with the same arguments.
Every field addition and multiplication performed on buffer data, or on
the shift vector mu, increments the buffer's counter; everything
precomputed is excluded.

CountModel replays the executors' own splits on lengths alone: all counts
are data-independent once the table fixes which scaling guards fire, so
sweeps over every ell are cheap even where execution would not be.
"""

from functools import lru_cache

from binbasis.precomp import build_tables, initial_phi_vector

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

    def __init__(self, data, counter=None):
        self.data = list(data)
        self.counter = counter if counter is not None else OpCounter()

    def view(self, length=None):
        if length is None:
            length = len(self.data)
        return StridedView(self, 0, 1, length)


class StridedView:
    """Bounds-checked strided window over a CoeffBuffer."""

    __slots__ = ("buffer", "offset", "stride", "length")

    def __init__(self, buffer, offset, stride, length):
        if offset < 0 or stride < 1 or length < 1:
            raise ValueError("bad view geometry")
        if offset + stride * (length - 1) >= len(buffer.data):
            raise ValueError("view exceeds buffer")
        self.buffer = buffer
        self.offset = offset
        self.stride = stride
        self.length = length

    def __len__(self):
        return self.length

    def __getitem__(self, i):
        if not 0 <= i < self.length:
            raise IndexError(f"view index {i} out of range")
        return self.buffer.data[self.offset + self.stride * i]

    def __setitem__(self, i, value):
        if not 0 <= i < self.length:
            raise IndexError(f"view index {i} out of range")
        self.buffer.data[self.offset + self.stride * i] = value

    def sub(self, start, stride_mult, length):
        """View of every stride_mult-th entry, beginning at index start."""
        if start < 0 or stride_mult < 1 or length < 1:
            raise ValueError("bad subview geometry")
        if start + stride_mult * (length - 1) >= self.length:
            raise ValueError("subview exceeds parent view")
        return StridedView(self.buffer, self.offset + self.stride * start,
                           self.stride * stride_mult, length)


def ruler_delta(i):
    """Index of the lowest zero bit of i."""
    if i < 0:
        raise ValueError("ruler sequence is defined for nonnegative indices")
    return ((i + 1) & ~i).bit_length() - 1


def _clog2(x):
    return (x - 1).bit_length()


def _check_args(tree, v, phi_vec, ell, length, full_view):
    nv = tree.size[v]
    if not 1 <= ell <= (1 << nv):
        raise ValueError(f"ell {ell} out of range at a {nv}-dim vertex")
    want = (1 << nv) if full_view else ell
    if length != want:
        raise ValueError(f"view length {length}, expected {want}")
    if phi_vec is not None and len(phi_vec) != nv:
        raise ValueError(f"phi vector length {len(phi_vec)}, expected {nv}")


# A split lists the child calls at an internal vertex whose alpha child has
# dimension d.  It is a tuple of phases, each a tuple of groups
# (row, first, count, shift, child args): rows first..first+count-1 of the
# 2^(n_v-d) x 2^d matrix view go to the alpha child, columns to the delta
# child.  A row group with shift set advances the alpha shift vector by
# phi_alpha[v][.][ruler_delta(i)] after row i, at d additions; row i always
# runs with the vector advanced i times.  Inverse twins walk the phases of
# the same split in reverse order.


@lru_cache(maxsize=256)
def graded_split(d, ell):
    """Split of n2x, x2n, x2m and m2x at length ell: rows, then columns."""
    w = 1 << d
    # l1 = ceil(ell/w) - 1, so the last row has 1..w entries.
    l1 = -(-ell // w) - 1
    l2 = ell - w * l1
    return (((True, 0, l1, True, (w,)), (True, l1, 1, False, (l2,))),
            ((False, 0, l2, False, (l1 + 1,)),
             (False, l2, min(w, ell) - l2, False, (l1,))))


@lru_cache(maxsize=256)
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


@lru_cache(maxsize=256)
def x2l_split(d, c, ell):
    """Split of x2l: child args (c, ell)."""
    w = 1 << d
    c1 = -(-c // w) - 1
    l1, l2 = divmod(ell, w)
    l2p = min(w, ell)
    return (((False, 0, l2, False, (c1 + 1, l1 + 1)),
             (False, l2, l2p - l2, False, (c1 + 1, l1))),
            ((True, 0, c1, True, (w, l2p)), (True, c1, 1, False, (c - w * c1, l2p))))


# A batch is every call of one vertex with one argument tuple.  Its
# instances share one stride s and start at the buffer indices offs; for the
# shifted families phis[r][j] is component r of instance j's shift vector,
# and it is None for x2m and m2x.  Each group of a split runs once for the
# whole batch: its child batch holds one instance per row (or column) and
# parent instance, row outer and instance inner, and a shifted row group
# charges its d additions per row and instance.


def _row_shifts(shifts, phis, rows):
    """Alpha shift vectors of rows 0..rows-1 of every instance, component-major
    and row outer: row i carries the vector advanced i times (see the split)."""
    out = []
    for row, sh in zip(phis, shifts):
        col = list(row)
        for i in range(rows - 1):
            a = sh[((i + 1) & ~i).bit_length() - 1]
            row = [x ^ a for x in row]
            col += row
        out.append(col)
    return out


# A leaf kernel runs every call of a leaf in a batch: call j reads its
# entries 0 and 1 at buffer indices offs[j] and offs[j] + gap and runs at
# leaf shift phs[j].


def _graded_leaves(buf, mul, offs, gap, phs, args):
    """Leaf calls of n2x and x2n; args is (ell,)."""
    if args[0] == 2:
        data = buf.data
        for p, ph in zip(offs, phs):
            data[p] ^= mul(ph, data[p + gap])
        ctr = buf.counter
        ctr.additions += len(offs)
        ctr.multiplications += len(offs)


def _l2x_leaves(buf, mul, offs, gap, phs, args):
    """Leaf calls of l2x; args is (c, ell, b)."""
    c, ell, b = args
    data = buf.data
    for p, ph in zip(offs, phs):
        q = p + gap
        if c == 2:
            data[q] ^= data[p]
            data[p] ^= mul(ph, data[q])
        elif ell == 2 and c == b == 1:
            known = mul(ph, data[q])
            data[q] ^= data[p]
            data[p] ^= known
        elif ell == 2:
            data[p] ^= mul(ph, data[q])
        elif c == b == 1:
            data[q] = data[p]
    if ell == 2:
        ctr = buf.counter
        ctr.additions += (2 if c == 2 or c == b == 1 else 1) * len(offs)
        ctr.multiplications += len(offs)


def _x2l_leaves(buf, mul, offs, gap, phs, args):
    """Leaf calls of x2l; args is (c, ell)."""
    c, ell = args
    data = buf.data
    for p, ph in zip(offs, phs):
        q = p + gap
        if ell == 2:
            data[p] ^= mul(ph, data[q])
            if c == 2:
                data[q] ^= data[p]
        elif c == 2:
            data[q] = data[p]
    if ell == 2:
        ctr = buf.counter
        ctr.additions += (2 if c == 2 else 1) * len(offs)
        ctr.multiplications += len(offs)


# A family is (split, leaf kernel, whether children see their whole 2^n
# scratch, whether the phases run in reverse).  x2m and m2x have no leaf
# kernel: their calls of length 2 or less do nothing.
_N2X = (graded_split, _graded_leaves, False, False)
_X2N = (graded_split, _graded_leaves, False, True)
_L2X = (l2x_split, _l2x_leaves, True, False)
_X2L = (x2l_split, _x2l_leaves, True, False)
_X2M = (graded_split, None, False, False)
_M2X = (graded_split, None, False, True)


def _run(fam, v, args, offs, s, phis, buf, table):
    """Every call of vertex v with args in the batch (offs, s, phis)."""
    split, leaves, full, inverse = fam
    tree = table.tree
    if leaves is None:
        _xm(fam, v, args[0], offs, s, buf, table)
    elif tree.alpha[v] < 0:
        leaves(buf, table.field.mul, offs, s, phis[0], args)
    else:
        phases = split(tree.size[tree.alpha[v]], *args)
        _walk(fam, v, reversed(phases) if inverse else phases,
              (1 << tree.size[v]) if full else args[0], offs, s, phis, buf, table)


def _walk(fam, v, phases, n, offs, s, phis, buf, table):
    """Child batches of internal vertex v over the given phases of its split.

    Every group is checked against the instances' view length n before the
    first write.  Children of l2x and x2l see their whole 2^n scratch, the
    others their ell entries.
    """
    tree = table.tree
    va, vd = tree.alpha[v], tree.delta[v]
    d = tree.size[va]
    w = 1 << d
    height = 1 << tree.size[vd]
    leaves, full = fam[1], fam[2]
    groups = []
    rows = 0
    for phase in phases:
        for row, first, count, shift, args in phase:
            # Calls of x2m and m2x of length 2 or less do nothing.
            if not count or not (leaves or args[0] > 2):
                continue
            if row:
                rows = max(rows, first + count)
                last = w * (first + count - 1) + (w if full else args[0])
            else:
                last = first + count + w * ((height if full else args[0]) - 1)
            if first < 0 or last > n:
                raise ValueError("child group exceeds parent view")
            # Neighbouring groups with one argument tuple run as one batch;
            # shifted counts the rows that charge an advance.
            shifted = count if shift else 0
            prev = groups[-1] if groups else None
            if (prev and prev[0] == row and prev[4] == args
                    and prev[1] + prev[2] == first):
                groups[-1] = (row, prev[1], prev[2] + count, prev[3] + shifted, args)
            else:
                groups.append((row, first, count, shifted, args))
    if phis is not None and rows:
        row_phis = _row_shifts(table.phi_alpha[v], phis, rows)
    span = len(offs)
    for row, first, count, shifted, args in groups:
        if row:
            child, step, cs = va, s * w, s
            cphis = None
            if phis is not None:
                cphis = [c[span * first:span * (first + count)] for c in row_phis]
                buf.counter.additions += d * shifted * span
        else:
            child, step, cs = vd, s, s * w
            cphis = None if phis is None else [nu * count for nu in phis[d:]]
        starts = range(step * first, step * (first + count), step)
        coffs = [o + k for k in starts for o in offs]
        _run(fam, child, args, coffs, cs, cphis, buf, table)


def _start(fam, v, args, ell, phi_vec, view, table):
    """Check one call on a view, then run it as a batch of one."""
    _check_args(table.tree, v, phi_vec, ell, view.length, fam[2])
    phis = None if phi_vec is None else list(zip(phi_vec))
    _run(fam, v, args, [view.offset], view.stride, phis, view.buffer, table)


def n2x(v, phi_vec, ell, view, table):
    """Rewrite shifted-Newton coefficients as graded coefficients, in place."""
    _start(_N2X, v, (ell,), ell, phi_vec, view, table)


def x2n(v, phi_vec, ell, view, table):
    """Inverse of n2x: columns first, then rows in the same shift order."""
    _start(_X2N, v, (ell,), ell, phi_vec, view, table)


def l2x(v, phi_vec, c, ell, b, view, table):
    """Lagrange values (and a known coefficient tail) to graded coefficients.

    The view spans the full 2^n_v scratch; entries 0..c-1 hold values f_i,
    entries c..ell-1 hold coefficients h_i.  Afterwards entries 0..c-1 hold
    h_i, and entry c holds the value f_c when b is 1.
    """
    nv = table.tree.n_of(v)
    if not 0 <= c <= ell:
        raise ValueError(f"c {c} out of range for ell {ell}")
    if b not in (0, 1) or not 1 <= b + c <= (1 << nv):
        raise ValueError(f"b {b} out of range for c {c}")
    _start(_L2X, v, (c, ell, b), ell, phi_vec, view, table)


def x2l(v, phi_vec, c, ell, view, table):
    """Graded coefficients to the first c Lagrange values, in place.

    The view spans the full 2^n_v scratch; entries 0..ell-1 hold h_i, and
    afterwards entries 0..c-1 hold the values f_i.  c may exceed ell.
    """
    nv = table.tree.n_of(v)
    if not 1 <= c <= (1 << nv):
        raise ValueError(f"c {c} out of range at a {nv}-dim vertex")
    _start(_X2L, v, (c, ell), ell, phi_vec, view, table)


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


def _taylor(t, ell, buf, offs, s, expand):
    """Shared body of taylor_expand and taylor_inverse, on each instance.

    Expanding runs both loop directions high to low: within a block the
    target range overlaps the source range shifted by half a block, and the
    tail of the source must be consumed before it is overwritten.  The
    inverse makes the same updates with both loop orders reversed.
    """
    levels = _taylor_levels(t, ell)
    data = buf.data
    adds = 0
    for blk, half, l1, l2 in (reversed(levels) if expand else levels):
        gap = s * (blk - half)
        for i in range(l1 + 1):
            n = blk if i < l1 else max(l2 - blk, 0)
            dst = s * (2 * blk * i + half)
            if n >= len(offs):
                for o in offs:
                    targets = range(o + dst, o + dst + s * n, s)
                    for p in (reversed(targets) if expand else targets):
                        data[p] ^= data[p + gap]
            else:
                # Rows shorter than the batch: one pass over every instance.
                targets = range(dst, dst + s * n, s)
                for p in [o + r for r in (reversed(targets) if expand else targets)
                          for o in offs]:
                    data[p] ^= data[p + gap]
            adds += n
    buf.counter.additions += adds * len(offs)


def _taylor_view(t, ell, view, expand):
    """_taylor on one view of length ell."""
    if view.length != ell:
        raise ValueError(f"view length {view.length}, expected {ell}")
    _taylor(t, ell, view.buffer, [view.offset], view.stride, expand)


def taylor_expand(t, ell, view):
    """Coefficients of the expansion at x^t - x, in place."""
    _taylor_view(t, ell, view, True)


def taylor_inverse(t, ell, view):
    """Inverse of taylor_expand, in place."""
    _taylor_view(t, ell, view, False)


def _scale_blocks(field, buf, offs, s, w, ell, step):
    """Multiply block i (entries w*i..w*i+w-1) by step^i for each i >= 1.

    One multiplication per entry past the first block, and one per power
    of step after the first.  Each instance computes its own powers, as a
    call of its own would.
    """
    data = buf.data
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
    buf.counter.multiplications += muls


def _xm(fam, v, ell, offs, s, buf, table):
    """x2m or m2x on a batch; child groups of length 2 or less do nothing."""
    if ell <= 2:
        return
    d = table.tree.d_of(v)
    w = 1 << d
    inverse = fam[3]
    phases = graded_split(d, ell)
    step = (table.delta_head if inverse else table.delta_head_inv)(v)
    scale = ell > w and step != 1
    if inverse:
        _taylor(w, ell, buf, offs, s, True)
        if scale:
            _scale_blocks(table.field, buf, offs, s, w, ell, step)
    _walk(fam, v, reversed(phases) if inverse else phases, ell, offs, s, None, buf, table)
    if not inverse:
        if scale:
            _scale_blocks(table.field, buf, offs, s, w, ell, step)
        _taylor(w, ell, buf, offs, s, False)


def x2m(v, ell, view, table):
    """Twisted graded coefficients to monomial coefficients, in place."""
    _start(_X2M, v, (ell,), ell, None, view, table)


def m2x(v, ell, view, table):
    """Inverse of x2m: expand, scale blocks up, then columns and rows."""
    _start(_M2X, v, (ell,), ell, None, view, table)


def scale_by_powers(field, view, w):
    """a_i <- w^i a_i with one running power; the substitution x -> wx.

    Multiplications land in the twist counter: this is the move that turns
    the twisted graded basis into the plain one, priced separately.
    """
    if w == 0:
        raise ValueError("scale factor must be nonzero")
    ell = len(view)
    if w == 1 or ell < 2:
        return
    data, o, s = view.buffer.data, view.offset, view.stride
    mul = field.mul
    data[o + s] = mul(w, data[o + s])
    acc = w
    for p in range(o + 2 * s, o + s * ell, s):
        acc = mul(acc, w)
        data[p] = mul(acc, data[p])
    view.buffer.counter.twist_multiplications += 1 + 2 * (ell - 2)


def _check_convert(kind_from, kind_to, tree, ell):
    for kind in (kind_from, kind_to):
        if kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {kind!r}")
    n = tree.size[0]
    if not 1 <= ell <= (1 << n):
        raise ValueError(f"ell {ell} out of range for dimension {n}")


def run_transform(name, v, phi_vec, c, ell, b, data, table):
    """Run one raw transform at vertex v on data; returns (output, OpCounter).

    l2x and x2l work in a zero-padded scratch of 2^n_v entries.  l2x returns
    its first max(c + b, ell), which include the value f_c when b is 1, and
    x2l its first max(c, ell).  x2l ignores b, the others c and b, and x2m
    and m2x also phi_vec.
    """
    if name == "l2x":
        buf = CoeffBuffer(list(data) + [0] * ((1 << table.tree.n_of(v)) - ell))
        l2x(v, phi_vec, c, ell, b, buf.view(), table)
        return buf.data[:max(c + b, ell)], buf.counter
    if name == "x2l":
        buf = CoeffBuffer(list(data) + [0] * ((1 << table.tree.n_of(v)) - ell))
        x2l(v, phi_vec, c, ell, buf.view(), table)
        return buf.data[:max(c, ell)], buf.counter
    buf = CoeffBuffer(data)
    if name in ("x2m", "m2x"):
        (x2m if name == "x2m" else m2x)(v, ell, buf.view(), table)
    else:
        {"n2x": n2x, "x2n": x2n}[name](v, phi_vec, ell, buf.view(), table)
    return buf.data, buf.counter


def convert(field, kind_from, kind_to, beta, tree, lam, ell, coeffs, table=None):
    """Convert between two named bases; returns (coefficients, OpCounter).

    All pairs route through the graded basis.  The substitution needed by
    the monomial legs is counted in twist_multiplications; lam is ignored
    by those legs, which carry no evaluation shift.  A given table fixes
    the field, basis and tree, and the ones passed must match it.
    """
    if table is None:
        table = build_tables(field, tree, beta)
    elif (field, tuple(beta), tree) != (table.field, table.beta, table.tree):
        raise ValueError("field, basis or tree does not match the table")
    field, beta, tree = table.field, table.beta, table.tree
    _check_convert(kind_from, kind_to, tree, ell)
    n = tree.size[0]
    coeffs = list(coeffs)
    if len(coeffs) != ell:
        raise ValueError(f"expected {ell} coefficients, got {len(coeffs)}")
    if min(coeffs) < 0 or max(coeffs) >= field.order:
        raise ValueError(f"coefficient outside GF(2^{field.degree})")
    if not 0 <= lam < field.order:
        raise ValueError(f"lam {lam} outside GF(2^{field.degree})")
    counter = OpCounter()
    if kind_from == kind_to:
        return coeffs, counter
    phi_vec = initial_phi_vector(field, tree, table.bases, lam)

    if kind_from == "lch":
        work = coeffs
    elif kind_from == "newton":
        buf = CoeffBuffer(coeffs, counter)
        n2x(0, phi_vec, ell, buf.view(), table)
        work = buf.data
    elif kind_from == "lagrange":
        buf = CoeffBuffer(coeffs + [0] * ((1 << n) - ell), counter)
        l2x(0, phi_vec, ell, ell, 0, buf.view(), table)
        work = buf.data[:ell]
    else:
        buf = CoeffBuffer(coeffs, counter)
        scale_by_powers(field, buf.view(), beta[0])
        m2x(0, ell, buf.view(), table)
        work = buf.data

    if kind_to == "lch":
        return work, counter
    if kind_to == "newton":
        buf = CoeffBuffer(work, counter)
        x2n(0, phi_vec, ell, buf.view(), table)
        return buf.data, counter
    if kind_to == "lagrange":
        buf = CoeffBuffer(work + [0] * ((1 << n) - ell), counter)
        x2l(0, phi_vec, ell, ell, buf.view(), table)
        return buf.data[:ell], counter
    buf = CoeffBuffer(work, counter)
    x2m(0, ell, buf.view(), table)
    scale_by_powers(field, buf.view(), field.inv(beta[0]))
    return buf.data, counter


class CountModel:
    """Exact operation counts replayed on lengths alone.

    Counts are data-independent: the recursion shape depends only on the
    vertex and length parameters, and the scaling guards only on stored
    table heads.  One memoized replay sums each family's split by group
    multiplicity, so whole-range ell sweeps are cheap where executing the
    transforms would not be.
    """

    # Family, named by one of its executors -> (split, whether rows advance
    # a shift vector).  x2n counts as n2x does, and m2x as x2m.
    _FAMILIES = {"n2x": (graded_split, True), "x2m": (graded_split, False),
                 "l2x": (l2x_split, True), "x2l": (x2l_split, True)}

    def __init__(self, table):
        self.table = table
        self.tree = table.tree
        self._memo = {}

    def _count(self, family, v, args):
        """(additions, multiplications) of one executor call of a family."""
        key = (family, v, args)
        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        tree = self.tree
        if tree.alpha[v] < 0 or family == "x2m" and args[0] <= 2:
            # A call without child calls costs the same at every vertex.
            hit = memo.get((family, None, args))
            if hit is None:
                hit = memo[family, None, args] = self._run_on_zeros(family, v, args)
        else:
            split, shifted = self._FAMILIES[family]
            va, vd = tree.alpha[v], tree.delta[v]
            d = tree.size[va]
            a = m = 0
            for phase in split(d, *args):
                for group in phase:
                    count = group[2]
                    if count:
                        ca, cm = self._count(family, va if group[0] else vd, group[4])
                        a += count * (ca + d * (group[3] and shifted))
                        m += count * cm
            if family == "x2m":
                ell, w = args[0], 1 << d
                a += self.taylor(w, ell)
                if ell > w and self.table.delta_head(v) != 1:
                    m += ell - w + -(-ell // w) - 2  # _scale_blocks
            hit = (a, m)
        memo[key] = hit
        return hit

    def _run_on_zeros(self, family, v, args):
        """Counts of a call without child calls, read off one run on zeros."""
        # args as run_transform takes them: (c, ell, b).
        c, ell, b = {"l2x": args, "x2l": args + (0,)}.get(family, args * 2 + (0,))
        _, ctr = run_transform(family, v, [0], c, ell, b, [0] * ell, self.table)
        return ctr.totals()[:2]

    def nx(self, v, ell):
        """(additions, multiplications) of n2x and of x2n."""
        return self._count("n2x", v, (ell,))

    def l2x(self, v, c, ell, b):
        return self._count("l2x", v, (c, ell, b))

    def x2l(self, v, c, ell):
        return self._count("x2l", v, (c, ell))

    def xm(self, v, ell):
        """(additions, multiplications) of x2m and of m2x."""
        return self._count("x2m", v, (ell,))

    def taylor(self, t, ell):
        """Additions of taylor_expand and of taylor_inverse."""
        return sum(blk * l1 + max(l2 - blk, 0)
                   for blk, _, l1, l2 in _taylor_levels(t, ell))

    def twist(self, ell):
        """Multiplications of the x -> beta_0 x substitution."""
        if self.table.beta[0] == 1 or ell < 2:
            return 0
        return 2 * ell - 3

    def convert(self, kind_from, kind_to, ell):
        """(additions, multiplications, twist_multiplications) of convert()."""
        _check_convert(kind_from, kind_to, self.tree, ell)
        if kind_from == kind_to:
            return (0, 0, 0)
        a = m = tw = 0
        for kind, into in ((kind_from, False), (kind_to, True)):
            if kind == "lch":
                continue
            if kind == "newton":
                da, dm = self.nx(0, ell)
            elif kind == "lagrange":
                da, dm = self.l2x(0, ell, ell, 0) if not into else self.x2l(0, ell, ell)
            else:
                da, dm = self.xm(0, ell)
                tw += self.twist(ell)
            a += da
            m += dm
        return (a, m, tw)
