"""Bit-plane kernels for the transforms, in the McBits layout.

A view of N entries of GF(2^m) is held as m bit-planes: plane b is one
Python int whose bit p is bit b of entry p.  to_planes packs the entries
into w-bit words (w = 8, 16, 32 or 64, the smallest that holds m bits)
with one struct call, reads them as one int and transposes every w x w
bit block of it at once, in log2(w) masked swap steps; plane b is then
the words k*w + b of every block k, gathered by byte slicing.  The packing
rejects a negative entry or one of w bits or more, and planes m..w-1 must
come out zero, so the transposition is also the range check of the
entries.  from_planes scatters the planes into words and runs the same
transpose, which is its own inverse.  _Planes transposes the values of
one transforms._run call in when it is built and back in values(), so a
convert moves its vector in once, runs both legs and both twists on that
one plane set, and moves it back once.

transforms._walk runs the splits and hands each batch, a mask of start
positions at one stride, to the kernels here.  A level of butterflies
then costs a fixed number of shifts, masks and XORs per plane, whatever
the batch size, and a lane-wise product is an m x m AND/XOR schoolbook on
planes reduced by the modulus taps.  _product writes that schoolbook out
as one straight-line function per (m, taps), generated once, so a product
on a few lanes pays little more than its 2m^2 big-int operations.  At a
leaf, each of the family's leaf steps is one masked pass over the lanes of
every batch that runs it, so one product serves them all; a Taylor level
is two masked shift-XOR passes.

The shift of a leaf call at position p is phi_vec[L] ^ lin_L(p) for its
leaf L, with lin_L GF(2)-linear in the bits of p; transforms._lin_columns
gives its value at each bit for every leaf under the start vertex.  The m
planes of lin_L depend on the table and the start vertex only, so the
first call at a vertex builds them for all its leaves and the table keeps
them; a call adds its own base.  The scalar layout in transforms runs the
same walk and charges the same counts, and stays the reference.
"""

import struct
from functools import lru_cache

from binbasis.transforms import (_lin_columns, _repunit, _scale_muls, _taylor_adds,
                                 _taylor_levels)


def _word(m):
    """(struct code, width w) of the smallest unsigned word, of 8 bits or
    more, that holds m bits."""
    w = max(8, 1 << (m - 1).bit_length())
    return "BHIQ"[w.bit_length() - 4], w


@lru_cache(maxsize=16)
def _masks(w, blocks):
    """(d, mask) of each step of the transpose of a run of w x w bit
    blocks: step j swaps bit (r, c) = r*w + c of every block, where bit j
    of r is clear and bit j of c set, with bit (r + 2^j, c - 2^j), d bits
    above.  The masks are only ANDed, so those of more blocks serve fewer;
    _transpose asks for a power of two blocks."""
    steps = []
    for j in (1 << k for k in range(w.bit_length() - 1)):
        cols = sum(1 << c for c in range(w) if c & j)
        block = sum(cols << w * r for r in range(w) if not r & j)
        steps.append((j * (w - 1), block * _repunit(blocks, w * w)))
    return steps


def _transpose(x, w, size):
    """x, read as size w-bit words, with each block of w words transposed
    as a w x w bit matrix; the transpose is its own inverse."""
    for d, mask in _masks(w, 1 << (size // w - 1).bit_length()):
        t = (x ^ x >> d) & mask
        x ^= t ^ t << d
    return x


def to_planes(values, m):
    """The m bit-planes of values, elements of GF(2^m); ValueError if any
    value is not one."""
    code, w = _word(m)
    size = -(-len(values) // w) * w
    try:
        raw = struct.pack(f"<{len(values)}{code}", *values)
    except struct.error:
        raise ValueError(f"data entry outside GF(2^{m})") from None
    # Bit p*w + b is bit b of entry p; after the transpose, word k*w + b
    # holds plane b over entries k*w..k*w + w - 1.
    x = _transpose(int.from_bytes(raw, "little"), w, size)
    words = memoryview(x.to_bytes(size * w >> 3, "little")).cast(code)
    planes = [int.from_bytes(words[b::w], "little") for b in range(w)]
    if any(planes[m:]):
        raise ValueError(f"data entry outside GF(2^{m})")
    return planes[:m]


def from_planes(planes, m, count):
    """The first count values held by m bit-planes, whose bits at and above
    count are ignored; inverse of to_planes."""
    code, w = _word(m)
    size = -(-count // w) * w
    keep = (1 << count) - 1
    raw = bytearray(size * w >> 3)
    words = memoryview(raw).cast(code)
    for b, plane in enumerate(planes):
        words[b::w] = memoryview((plane & keep).to_bytes(size >> 3, "little")).cast(code)
    x = _transpose(int.from_bytes(raw, "little"), w, size)
    return list(struct.unpack_from(f"<{count}{code}", x.to_bytes(size * w >> 3, "little")))


@lru_cache(maxsize=8)
def _product(m, taps):
    """The lane-wise product of two lists of m planes modulo x^m + sum of
    x^t, t in taps: one straight-line m x m AND/XOR schoolbook, whose term
    z_k is the XOR of a_i & b_(k-i), reduced from the top term down.  Its
    source is built from the ints m and taps alone."""
    a = ", ".join(f"a{i}" for i in range(m))
    b = ", ".join(f"b{i}" for i in range(m))
    lines = ["def product(a, b):", f"    {a}, = a", f"    {b}, = b"]
    for k in range(2 * m - 1):
        terms = (f"a{i} & b{k - i}" for i in range(max(k - m + 1, 0), min(k, m - 1) + 1))
        lines.append(f"    z{k} = {' ^ '.join(terms)}")
    for k in range(2 * m - 2, m - 1, -1):
        lines += (f"    z{k - m + t} ^= z{k}" for t in taps)
    lines.append(f"    return [{', '.join(f'z{k}' for k in range(m))}]")
    scope = {}
    exec("\n".join(lines), scope)
    return scope["product"]


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


class _Planes:
    """The bit-plane layout of transforms._walk: the planes of one call's
    values, and its kernels on them.  Building it transposes the values,
    which raises ValueError if one is outside the field."""

    __slots__ = ("table", "start", "phi_vec", "counter", "planes", "kernel", "shifts")

    def __init__(self, table, start, phi_vec, counter, values):
        self.table = table
        self.start = start
        self.phi_vec = phi_vec
        self.counter = counter
        self.planes = to_planes(values, table.field.degree)
        m, modulus = table.field.degree, table.field.modulus
        self.kernel = _product(m, tuple(t for t in range(m) if modulus >> t & 1))
        self.shifts = {}

    def values(self, keep):
        return from_planes(self.planes, self.table.field.degree, keep)

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
        z = self.kernel([c >> lo for c in consts], [x >> lo + gap & crop for x in self.planes])
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
        return _taylor_adds(t, ell) * mask.bit_count()

    def scale(self, w, ell, step, mask, e):
        """transforms._scale_blocks: block i of each call times step^i, as one
        product with constant planes; none where _scale_muls prices it at 0."""
        muls = _scale_muls(w, ell, step) * mask.bit_count()
        if not muls:
            return 0
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
        return muls
