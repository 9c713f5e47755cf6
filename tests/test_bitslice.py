"""The bit-plane layout against the scalar one: outputs, counts, shifts."""

import random
from itertools import accumulate
from operator import xor

import pytest

from binbasis import bitslice
from binbasis.cli import build_basis, build_tree
from binbasis.field import canonical_modulus, get_field
from binbasis.precomp import build_tables, initial_phi_vector, phi_vector, transport
from binbasis.transforms import (
    BASIS_KINDS,
    CoeffBuffer,
    CountModel,
    OpCounter,
    _PLANES_MIN_DIM,
    _Scalar,
    _args,
    _scale_blocks,
    _scale_muls,
    _walk,
    convert,
    run_transform,
    scale_by_powers,
)

# (degree, basis, tree, n) per configuration; Cantor and gencantor:2 bases
# over GF(2^12) stop at n = 4.
CONFIGS = [
    (12, "cantor", "cantor", 4),
    (12, "random:3", "trivial", 5),
    (12, "gencantor:2", "graft:2", 4),
    (16, "cantor", "cantor", 5),
    (16, "random:4", "trivial", 5),
    (16, "gencantor:2", "graft:2", 5),
    (32, "cantor", "cantor", 5),
    (32, "random:5", "trivial", 5),
    (32, "gencantor:2", "graft:2", 5),
]


def make_table(degree, basis, tree, n):
    field = get_field(degree)
    return build_tables(field, build_tree(tree, n), build_basis(field, basis, n))


def calls(table, v, size):
    """(name, c, ell, b) of every call at a 2^n-entry vertex: the graded
    transforms at every ell, l2x at every (c, b) and x2l at every c."""
    for ell in range(1, size + 1):
        for name in ("n2x", "x2n", "x2m", "m2x"):
            yield name, ell, ell, 0
        for c in range(ell + 1):
            for b in (0, 1):
                if 1 <= b + c <= size:
                    yield "l2x", c, ell, b
        for c in range(1, size + 1):
            yield "x2l", c, ell, 0


def execute(table, name, v, phi_vec, c, ell, b, data, planes):
    """One call on data, forced onto bit-planes or not; returns (the entries
    of its view, counter totals)."""
    fam, args = _args(name, table.tree, v, c, ell, b)
    length = (1 << table.tree.size[v]) if fam.full else ell
    counter = OpCounter()
    lay = (bitslice._Planes if planes else _Scalar)(table, v, phi_vec, counter, data)
    _walk(lay, fam, v, {args: 1}, 0)
    return lay.values(length), counter.totals()


def shift_vectors(table, v, rng):
    """phi_vec of vertex v for lam = 0, 1 and a random lam."""
    tree, field = table.tree, table.field
    lo = tree.leaf_start[v]
    for lam in (0, 1, rng.randrange(2, field.order)):
        yield initial_phi_vector(field, tree, table.bases, lam)[lo:lo + tree.size[v]]


@pytest.mark.parametrize("config", CONFIGS, ids=["-".join(map(str, c)) for c in CONFIGS])
def test_planes_match_scalar(config):
    # Every internal vertex, every call shape; the shift vector cycles
    # through lam = 0, 1 and a random lam from call to call.
    table = make_table(*config)
    tree, field = table.tree, table.field
    rng = random.Random(str(config))
    mismatches = []
    for v in tree.internal_vertices():
        phis = list(shift_vectors(table, v, rng))
        for i, (name, c, ell, b) in enumerate(calls(table, v, 1 << tree.size[v])):
            phi_vec = phis[i % 3]
            data = [rng.randrange(field.order) for _ in range(ell)]
            want = execute(table, name, v, phi_vec, c, ell, b, data, False)
            got = execute(table, name, v, phi_vec, c, ell, b, data, True)
            if got != want:
                mismatches.append((v, name, c, ell, b, i % 3))
    assert not mismatches, mismatches[:5]


def ruler_delta(i):
    """Index of the lowest zero bit of i."""
    return ((i + 1) & ~i).bit_length() - 1


def ruler_shifts(table, v, phi_vec):
    """{(leaf, position): shift} of every leaf call of a full-length call at
    v, derived by the split's ruler rule: row i of an alpha child runs with
    the alpha part of the shift vector advanced after each row j < i by
    phi_u(leaf r of the alpha child, beta_{u,d} + ... + beta_{u,d+k}) in
    component r, for k = ruler_delta(j); columns keep the delta part."""
    tree, bases = table.tree, table.bases
    steps = {}
    for u in tree.internal_vertices():
        a = tree.alpha[u]
        sums = list(accumulate(bases[u][tree.size[a]:], xor))
        steps[u] = transport(table, u, sums)[:tree.size[a]]
    out = {}

    def visit(u, pos, stride, vec):
        a = tree.alpha[u]
        if a < 0:
            out[(u, pos)] = vec[0]
            return
        d = tree.size[a]
        w = 1 << d
        row = list(vec[:d])
        for i in range(1 << tree.size[tree.delta[u]]):
            if i:
                row = [x ^ sh[ruler_delta(i - 1)] for x, sh in zip(row, steps[u])]
            visit(a, pos + stride * w * i, stride, row)
        for j in range(w):
            visit(tree.delta[u], pos + stride * j, stride * w, vec[d:])

    visit(v, 0, 1, phi_vec)
    return out


@pytest.mark.parametrize("config", CONFIGS[3:6], ids=["-".join(map(str, c)) for c in CONFIGS[3:6]])
def test_leaf_planes_equal_scalar_shifts(config):
    # Both layouts read a leaf call's shift as its base plus the table's
    # lam-free values (scalar) or planes (bit-planes) at its position; both
    # must equal the ruler-rule shift at every leaf position, from the root
    # and from non-root vertices.
    table = make_table(*config)
    tree, field = table.tree, table.field
    rng = random.Random(7)
    for v in (0, tree.alpha[0], tree.delta[0]):
        nv = tree.size[v]
        if nv < 2:
            continue
        for phi_vec in shift_vectors(table, v, rng):
            want = ruler_shifts(table, v, phi_vec)
            assert len(want) == nv << nv - 1
            # A scalar call at v fills the table's lam-free values for v.
            execute(table, "l2x", v, phi_vec, 1 << nv, 1 << nv, 0, [1] * (1 << nv), False)
            for (leaf, p), shift in want.items():
                i = tree.leaf_start[leaf] - tree.leaf_start[v]
                base, lin = phi_vec[i], table.leaf_lin[v][i][p]
                planes = bitslice.leaf_planes(table, v)[i]
                assert lin == sum((plane >> p & 1) << bit for bit, plane in enumerate(planes))
                assert base ^ lin == shift, (v, leaf, p)
    assert all(len(planes) == field.degree
               for lins in table.leaf_planes.values() for planes in lins)


@pytest.mark.parametrize("m", range(1, 33))
def test_layout_round_trip(m):
    rng = random.Random(m)
    top = (1 << m) - 1
    for count in (1, 2, 9, 64, 515):
        values = [rng.randrange(top + 1) for _ in range(count)]
        values[rng.randrange(count)] = top
        values[0] = top if count == 1 else 0
        planes = bitslice.to_planes(values, m)
        assert len(planes) == m
        for b, plane in enumerate(planes):
            assert plane == sum((x >> b & 1) << p for p, x in enumerate(values))
        assert bitslice.from_planes(planes, m, count) == values


# Every degree with get_field's modulus, and a dense non-canonical one.
MODULI = [(m, canonical_modulus(m)) for m in range(1, 33)] + [(16, 0x1FFED)]


@pytest.mark.parametrize("m, modulus", MODULI, ids=[f"{m}-{p:x}" for m, p in MODULI])
def test_product_kernel_matches_field_mul(m, modulus):
    # The generated schoolbook of (m, taps), lane by lane against Field.mul.
    field = get_field(m, modulus)
    kernel = bitslice._product(m, tuple(t for t in range(m) if modulus >> t & 1))
    rng = random.Random(modulus)
    for lanes in (1, 65, 4096):
        a = [rng.randrange(field.order) for _ in range(lanes)]
        b = [rng.randrange(field.order) for _ in range(lanes)]
        z = kernel(bitslice.to_planes(a, m), bitslice.to_planes(b, m))
        assert len(z) == m and not any(plane >> lanes for plane in z), lanes
        assert bitslice.from_planes(z, m, lanes) == list(map(field.mul, a, b)), lanes


@pytest.mark.parametrize("degree", [12, 16, 32])
def test_plane_product_on_sparse_lanes(degree):
    # product crops the planes to the span of a sparse mask whose lowest
    # lane is above 0, reads entry p + gap for lane p, and leaves the
    # layout's planes alone.
    table = make_table(degree, "cantor", "cantor", 3)
    field = table.field
    rng = random.Random(degree)
    size, gap = 300, 7
    values = [rng.randrange(field.order) for _ in range(size)]
    consts = [rng.randrange(field.order) for _ in range(size)]
    lanes = sum(1 << p for p in rng.sample(range(5, size - gap), 40))
    lay = bitslice._Planes(table, 0, [0] * 3, OpCounter(), values)
    z = lay.product(bitslice.to_planes(consts, degree), lanes, gap)
    assert not any(plane >> size - gap for plane in z)
    assert bitslice.from_planes(z, degree, size) == [
        field.mul(consts[p], values[p + gap]) if lanes >> p & 1 else 0 for p in range(size)]
    assert lay.values(size) == values


@pytest.mark.parametrize("m", [1, 12, 16, 31, 32])
def test_layout_rejects_values_outside_field(m):
    # A value of m bits or more, or a negative one, is not an element: the
    # transposition raises rather than dropping its high bits.
    for bad in (1 << m, (1 << m) + 1, 1 << 32, -1):
        for count in (1, 2, 515):
            values = [1] * count
            values[count // 2] = bad
            with pytest.raises(ValueError, match="outside GF"):
                bitslice.to_planes(values, m)


def test_from_planes_ignores_bits_past_count():
    assert bitslice.from_planes([0b100], 1, 2) == [0, 0]
    assert bitslice.from_planes([0b101, 0b110], 2, 2) == [1, 2]
    assert bitslice.from_planes([-1] * 16, 16, 3) == [0xffff] * 3


@pytest.mark.parametrize("n", [_PLANES_MIN_DIM - 1, _PLANES_MIN_DIM])
def test_size_dispatch(n):
    # Calls at 2^n_v >= 512 entries run on planes, smaller ones do not;
    # both give the scalar layout's outputs and CountModel's counts.  On the
    # non-Cantor trees too this checks the planes' shifts one way, which a
    # round trip cannot.  On the GF(2^16) tower the x2m/m2x scaling guard
    # fires at the top internal vertices only (two at n = 9): the planes
    # then run a table with both kinds of head.
    for basis, tree in (("cantor", "cantor"), ("random:4", "trivial"), ("gencantor:2", "graft:2"),
                        ("tower:1-2-4-8-16", "max:1-2-4-8-16")):
        table = make_table(16, basis, tree, n)
        field, size = table.field, 1 << n
        model = CountModel(table)
        rng = random.Random(n)
        phi_vec = initial_phi_vector(field, table.tree, table.bases, rng.randrange(field.order))
        half = size // 2 + 45
        for name, c, ell, b in (("n2x", size, size, 0), ("x2n", half, half, 0),
                                ("l2x", half, size - 3, 1), ("x2l", size, half, 0),
                                ("x2m", size - 5, size - 5, 0), ("m2x", size, size, 0)):
            data = [rng.randrange(field.order) for _ in range(ell)]
            out, ctr = run_transform(name, 0, phi_vec, c, ell, b, data, table)
            want, totals = execute(table, name, 0, phi_vec, c, ell, b, data, False)
            assert out == want[:len(out)], (basis, tree, name)
            assert ctr.totals() == totals == model.transform(name, 0, c, ell, b)
        assert bool(table.leaf_planes) == (n >= _PLANES_MIN_DIM)


@pytest.mark.parametrize("config", [(16, "random:2", "trivial", 9), (32, "random:4", "trivial", 9)],
                         ids=["gf16-random-comb-n9", "gf32-random-comb-n9"])
def test_plane_scale_matches_scalar_reference(config):
    # The twist x -> head x is the block scaling with blocks of one entry.
    # On planes, at w = 1 and at the block width of every internal vertex,
    # scale must give _scale_blocks' entries and multiplications, which are
    # _scale_muls(w, ell, head).  For ell <= w there is no block past the
    # first, a head of 1 (every head of a Cantor basis) scales by 1, and an
    # empty mask holds no call: each returns 0 and leaves the entries alone.
    table = make_table(*config)
    field, tree, n = table.field, table.tree, config[3]
    size = 1 << n
    rng = random.Random(str(config))
    heads = {1: (table.head[0], table.head_inv[0])}
    for v in tree.internal_vertices():
        heads[1 << tree.size[tree.alpha[v]]] = (table.delta_head(v), table.delta_head_inv(v))
    for w, pair in heads.items():
        assert 1 not in pair
        for head in pair + (1,):
            for ell in sorted({1, w, w + 1, size - (w + 1) // 2, size}):
                data = [rng.randrange(field.order) for _ in range(ell)]
                want = list(data)
                muls = _scale_blocks(field, want, [0], 1, w, ell, head)
                lay = bitslice._Planes(table, 0, [0] * n, OpCounter(), data)
                assert lay.scale(w, ell, head, 1, 0) == muls, (w, ell)
                assert muls == _scale_muls(w, ell, head), (w, ell)
                assert (muls == 0 and want == data) == (ell <= w or head == 1), (w, ell)
                assert lay.values(ell) == want, (w, ell)
                assert lay.scale(w, ell, head, 0, 0) == 0 and lay.values(ell) == want, (w, ell)


# The transforms into the graded basis and out of it, per named basis.
LEGS = {"newton": ("n2x", "x2n"), "lagrange": ("l2x", "x2l"), "monomial": ("m2x", "x2m")}


def convert_by_legs(table, kind_from, kind_to, lam, coeffs):
    """convert's result, with each leg a run_transform of its own and each
    twist a scale_by_powers: (output, counter totals)."""
    field, ell = table.field, len(coeffs)
    phi_vec = initial_phi_vector(field, table.tree, table.bases, lam)
    buf = CoeffBuffer(coeffs)
    if kind_from == "monomial":
        scale_by_powers(field, buf.view(), table.head[0])
    counters, data = [buf.counter], buf.data
    names = [LEGS[kind_from][0]] if kind_from in LEGS else []
    names += [LEGS[kind_to][1]] if kind_to in LEGS else []
    for name in names:
        data, ctr = run_transform(name, 0, phi_vec, ell, ell, 0, data, table)
        counters.append(ctr)
    buf = CoeffBuffer(data)
    if kind_to == "monomial":
        scale_by_powers(field, buf.view(), table.head_inv[0])
    counters.append(buf.counter)
    return buf.data, tuple(map(sum, zip(*(ctr.totals() for ctr in counters))))


@pytest.mark.parametrize("config", [(16, "cantor", "cantor", 9), (32, "random:4", "trivial", 9)],
                         ids=["gf16-cantor-cantor-n9", "gf32-random-comb-n9"])
def test_convert_one_plane_set_matches_legs(config):
    # convert runs both legs on one plane set between one transposition in
    # and one out; leg by leg, each transform moves its own vector.  Both
    # give the same outputs and counts, twist included.  On the comb tree
    # the heads are not 1, so the twists and the block scalings run.
    table = make_table(*config)
    field, tree, n = table.field, table.tree, config[3]
    assert n >= _PLANES_MIN_DIM
    assert (table.head[0] != 1) == (config[1] != "cantor")
    model = CountModel(table)
    rng = random.Random(str(config))
    for kind_from in BASIS_KINDS:
        for kind_to in BASIS_KINDS:
            if kind_from == kind_to:
                continue
            for ell in (1 << n, (1 << n - 1) + 3, (1 << n) - 1):
                for lam in (0, 1, rng.randrange(2, field.order)):
                    coeffs = [rng.randrange(field.order) for _ in range(ell)]
                    out, ctr = convert(field, kind_from, kind_to, table.beta, tree, lam, ell,
                                       coeffs, table)
                    want, totals = convert_by_legs(table, kind_from, kind_to, lam, coeffs)
                    assert out == want, (kind_from, kind_to, ell, lam)
                    assert ctr.totals() == totals == model.convert(kind_from, kind_to, ell)


@pytest.mark.parametrize("config", [(16, "cantor", "cantor", 5), (16, "cantor", "cantor", 9),
                                    (32, "random:4", "trivial", 5), (32, "random:4", "trivial", 9)],
                         ids=["gf16-cantor-cantor-n5", "gf16-cantor-cantor-n9",
                              "gf32-random-comb-n5", "gf32-random-comb-n9"])
def test_convert_legs_need_no_truncation(config):
    # _run clears nothing between the legs of a convert.  So n2x, x2n, x2m
    # and m2x must leave the entries at ell and up as they found them and
    # read none of them: planted junk stays, and the first ell outputs and
    # the counts equal those of a zero-padded run, on either layout.  Then
    # every convert pair equals its legs run as separate calls.
    table = make_table(*config)
    field, tree, n = table.field, table.tree, config[3]
    size = 1 << n
    layout = bitslice._Planes if n >= _PLANES_MIN_DIM else _Scalar
    rng = random.Random(str(config))
    lam = rng.randrange(2, field.order)
    phi_vec = phi_vector(table, lam)
    for ell in ((size >> 1) + 3, size - 5):
        data = [rng.randrange(field.order) for _ in range(ell)]
        junk = [rng.randrange(1, field.order) for _ in range(size - ell)]
        for name in ("n2x", "x2n", "x2m", "m2x"):
            fam, args = _args(name, tree, 0, ell, ell, 0)
            runs = []
            for values in (data, data + junk):
                counter = OpCounter()
                lay = layout(table, 0, phi_vec, counter, values)
                _walk(lay, fam, 0, {args: 1}, 0)
                runs.append((lay.values(size), counter.totals()))
            (padded, totals), (planted, planted_totals) = runs
            assert planted[ell:] == junk, (name, ell)
            assert planted[:ell] == padded[:ell] and planted_totals == totals, (name, ell)
        for kind_from in BASIS_KINDS:
            for kind_to in BASIS_KINDS:
                if kind_from != kind_to:
                    out, ctr = convert(field, kind_from, kind_to, table.beta, tree, lam, ell,
                                       data, table)
                    want, totals = convert_by_legs(table, kind_from, kind_to, lam, data)
                    assert out == want and ctr.totals() == totals, (kind_from, kind_to, ell)


@pytest.mark.parametrize("config", [(16, "cantor", "cantor", 9), (32, "random:4", "trivial", 9)],
                         ids=["gf16-cantor-cantor-n9", "gf32-random-comb-n9"])
def test_convert_on_planes_rejects_entries_outside_field(config):
    # On planes the transposition is the coefficients' range check, and it
    # runs before a twist by a head other than 1 reads them.
    table = make_table(*config)
    field, tree, size = table.field, table.tree, 1 << config[3]
    for kind_from, kind_to in (("newton", "lagrange"), ("monomial", "lch"), ("lch", "lagrange"),
                               ("lagrange", "lagrange")):
        for bad in (field.order, -1):
            coeffs = [1] * size
            coeffs[size // 2] = bad
            with pytest.raises(ValueError, match="outside GF"):
                convert(field, kind_from, kind_to, table.beta, tree, 3, size, coeffs, table)
