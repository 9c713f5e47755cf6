"""Bit-plane kernels for the transforms, in the McBits layout.

A view of N entries of GF(2^m) is held as m bit-planes: plane b is one
Python int whose bit p is bit b of entry p.  transforms._walk runs the
splits and hands each batch, a mask of start positions at one stride, to
the kernels here.  A level of butterflies then costs a fixed number of
shifts, masks and XORs per plane, whatever the batch size, and a lane-wise
product is an m x m AND/XOR schoolbook on planes reduced by the modulus
taps.  At a leaf, each of the family's leaf steps is one masked pass over
the lanes of every batch that runs it, so one product serves them all; a
Taylor level is two masked shift-XOR passes.

The shift of a leaf call at position p is phi_vec[L] ^ lin_L(p) for its
leaf L, with lin_L GF(2)-linear in the bits of p; transforms._lin_columns
gives its value at each bit for every leaf under the start vertex.  The m
planes of lin_L depend on the table and the start vertex only, so the
first call at a vertex builds them for all its leaves and the table keeps
them; a call adds its own base.  The scalar layout in transforms runs the
same walk and charges the same counts, and stays the reference.
"""

import sys
from array import array
from functools import reduce
from operator import and_, xor

from binbasis.transforms import (_BITS, _lin_columns, _repunit, _scale_muls, _taylor_adds,
                                 _taylor_levels, _walk)

# _CHARS[j] maps a byte to ASCII '1' where its bit j is set, else '0'.
_CHARS = tuple(bytes(48 + (x >> j & 1) for x in range(256)) for j in range(8))


def _typecode(m):
    """An array typecode whose items hold m bits."""
    return next(code for code in "BHILQ" if array(code).itemsize * 8 >= m)


def to_planes(values, m):
    """The m bit-planes of values, elements of GF(2^m)."""
    raw = array(_typecode(m), values)
    size = raw.itemsize
    if sys.byteorder == "big":
        raw.byteswap()
    raw = raw.tobytes()
    return [int(raw[b >> 3::size].translate(_CHARS[b & 7])[::-1], 2) for b in range(m)]


def from_planes(planes, m, count):
    """The first count values held by m bit-planes; inverse of to_planes."""
    out = array(_typecode(m))
    size = out.itemsize
    raw = bytearray(size * count)
    for k in range(0, m, 8):
        # One byte per entry: bit j of byte p is bit k + j of entry p.
        acc = 0
        for j, plane in enumerate(planes[k:k + 8]):
            bits = format(plane, f"0{count}b").encode()[::-1].translate(_BITS)
            acc |= int.from_bytes(bits, "little") << j
        raw[k >> 3::size] = acc.to_bytes(count, "little")
    out.frombytes(raw)
    if sys.byteorder == "big":
        out.byteswap()
    return out.tolist()


# _TERMS[m][k] slices the factors of the degree-k terms of an m x m
# schoolbook: a[i0:i1] pairs with the reversed b[j0:j1].
_TERMS = tuple(tuple((max(k - m + 1, 0), k + 1, max(m - 1 - k, 0), 2 * m - 1 - k)
                     for k in range(2 * m - 1)) for m in range(33))


def _product(a, b, taps):
    """Lane-wise product of two plane lists modulo x^m + sum of x^t, t in taps."""
    m = len(a)
    rb = b[::-1]
    z = [reduce(xor, map(and_, a[i0:i1], rb[j0:j1])) for i0, i1, j0, j1 in _TERMS[m]]
    for k in range(2 * m - 2, m - 1, -1):
        top = z[k]
        for t in taps:
            z[k - m + t] ^= top
    return z[:m]


def leaf_planes(table, v):
    """The m planes of lin_L over the 2^n_v positions of a call at v, for
    each leaf L under v by leaf offset; built from transforms._lin_columns
    at the first call at v and kept by the table."""
    planes = table.leaf_planes.get(v)
    if planes is None:
        planes = table.leaf_planes[v] = []
        for cols in _lin_columns(table, v):
            lin, width = [0] * table.field.degree, 1
            for col in cols:
                ones = (1 << width) - 1
                lin = [p | (p ^ ones if col >> b & 1 else p) << width for b, p in enumerate(lin)]
                width <<= 1
            planes.append(lin)
    return planes


def run(fam, v, args, phi_vec, view, table):
    """One call of fam at vertex v on the view, on bit-planes."""
    data = view.buffer.data
    m = table.field.degree
    lay = _Planes(table, v, phi_vec, view.buffer.counter, to_planes(data[:view.length], m))
    _walk(lay, fam, v, {args: 1}, 0)
    data[:view.length] = from_planes(lay.planes, m, view.length)


class _Planes:
    """The bit-plane layout of transforms._walk: the planes of one call's
    view, and its kernels on them."""

    __slots__ = ("table", "start", "phi_vec", "counter", "planes", "taps", "shifts")

    def __init__(self, table, start, phi_vec, counter, planes):
        self.table = table
        self.start = start
        self.phi_vec = phi_vec
        self.counter = counter
        self.planes = planes
        modulus = table.field.modulus
        self.taps = [t for t in range(table.field.degree) if modulus >> t & 1]
        self.shifts = {}

    def leaves(self, fam, leaf, batches, gap):
        """The leaf steps of every batch, {args: lanes}: the batches touch
        disjoint entries, so each step is one pass over the lanes that run it."""
        steps = (0,) * 5
        for args, lanes in batches.items():
            steps = [mask | lanes * flag for mask, flag in zip(steps, fam.leaf(args))]
        pre, prod, mid, post, copy = steps
        self.copy_up(pre, gap, True)
        z = self.shifted_product(leaf, prod, gap) if prod else ()
        self.copy_up(mid, gap, True)
        self.add(z)
        self.copy_up(post, gap, True)
        self.copy_up(copy, gap, False)

    def shifted_product(self, leaf, lanes, gap):
        """shift(p) * entry p + gap at each lane p of the mask lanes, 0 elsewhere."""
        shift = self.shifts.get(leaf)
        if shift is None:
            tree = self.table.tree
            i = tree.leaf_start[leaf] - tree.leaf_start[self.start]
            base, lin = self.phi_vec[i], leaf_planes(self.table, self.start)[i]
            ones = (1 << (1 << tree.size[self.start])) - 1
            shift = self.shifts[leaf] = [p ^ ones if base >> b & 1 else p
                                         for b, p in enumerate(lin)]
        return self.product(shift, lanes, gap)

    def product(self, consts, lanes, gap=0):
        """consts[p] * entry p + gap at each lane p of the mask lanes, 0
        elsewhere; the schoolbook runs on the span of the lanes only."""
        lo = (lanes & -lanes).bit_length() - 1
        crop = lanes >> lo
        z = _product([c >> lo for c in consts],
                     [x >> lo + gap & crop for x in self.planes], self.taps)
        return [x << lo for x in z]

    def copy_up(self, lanes, gap, add):
        """Entry p + gap becomes entry p (add: entry p + gap ^ entry p), p in lanes."""
        if lanes:
            x = self.planes
            for b, plane in enumerate(x):
                low = plane if add else plane ^ plane >> gap
                x[b] = plane ^ (low & lanes) << gap

    def add(self, z):
        x = self.planes
        for b, plane in enumerate(z):
            x[b] ^= plane

    def taylor(self, t, ell, mask, e, expand):
        """transforms._taylor on every call of the batch.

        Within a block, the targets r >= blk - half read sources past the
        targets, and the rest read those.  Expanding reads the updated
        sources, so it runs the upper targets first; the inverse reads the
        old ones and runs them last.
        """
        s = 1 << e
        x = self.planes
        for blk, half, l1, l2 in _taylor_levels(t, ell)[::-1 if expand else 1]:
            tail = max(l2 - blk, 0)
            blocks = _repunit(l1, 2 * blk * s)
            split = blk - half
            steps = []
            for r0, r1 in ((split, blk), (0, split)):
                # Targets r0 <= r < r1 of the full blocks and of the tail.
                full = blocks * _repunit(r1 - r0, s) << s * (half + r0)
                part = _repunit(max(min(r1, tail) - r0, 0), s) << s * (2 * blk * l1 + half + r0)
                steps.append(mask * (full | part))
            gap = s * split
            for targets in (steps if expand else steps[::-1]):
                for b, plane in enumerate(x):
                    x[b] = plane ^ (plane >> gap & targets)
        self.counter.additions += _taylor_adds(t, ell) * mask.bit_count()

    def scale(self, w, ell, step, mask, e):
        """transforms._scale_blocks: block i of each call times step^i, as one
        product with constant planes."""
        s = 1 << e
        mul = self.table.field.mul
        powers = [0, step]
        for _ in range(2, -(-ell // w)):
            powers.append(mul(powers[-1], step))
        # Bit i of a power plane belongs to block i; spread it to position
        # s*w*i and fill the block.
        fill = _repunit(w, s)
        lanes = _repunit(ell - w, s) << s * w
        gaps = "0" * (s * w - 1)
        consts = [mask * (int(gaps.join(format(p, "b")), 2) * fill & lanes)
                  for p in to_planes(powers, len(self.planes))]
        lanes *= mask
        x = self.planes
        z = self.product(consts, lanes)
        for b, plane in enumerate(x):
            x[b] = plane ^ (plane & lanes) ^ z[b]
        self.counter.multiplications += _scale_muls(w, ell) * mask.bit_count()
