"""The bit-plane layout against the scalar one: outputs, counts, shifts."""

import random
from itertools import accumulate
from operator import xor

import pytest

from binbasis import bitslice
from binbasis.cli import build_basis, build_tree
from binbasis.field import get_field
from binbasis.precomp import build_tables, initial_phi_vector, transport
from binbasis.transforms import (
    CoeffBuffer,
    CountModel,
    _PLANES_MIN_DIM,
    _Scalar,
    _args,
    _walk,
    ruler_delta,
    run_transform,
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
    """One call on a copy of data, forced onto bit-planes or not; returns
    (buffer entries, counter totals)."""
    fam, args = _args(name, table.tree, v, c, ell, b)
    nv = table.tree.size[v]
    length = (1 << nv) if fam.full else ell
    buf = CoeffBuffer(list(data) + [0] * (length - len(data)))
    if planes:
        bitslice.run(fam, v, args, phi_vec, buf.view(), table)
    else:
        _walk(_Scalar(table, v, phi_vec, buf), fam, v, {args: 1}, 0)
    return buf.data, buf.counter.totals()


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


def ruler_shifts(table, v, phi_vec):
    """{(leaf, position): shift} of every leaf call of a full-length call at
    v, derived by the split's ruler rule: row i of an alpha child runs with
    the alpha part of the shift vector advanced after each row j < i by
    phi_u(leaf r of the alpha child, beta_{u,d} + ... + beta_{u,d+k}) in
    component r, for k = ruler_delta(j); columns keep the delta part."""
    tree, field, bases = table.tree, table.field, table.bases
    steps = {}
    for u in tree.internal_vertices():
        a = tree.alpha[u]
        sums = list(accumulate(bases[u][tree.size[a]:], xor))
        steps[u] = transport(field, tree, table.head_inv, u, sums)[:tree.size[a]]
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


@pytest.mark.parametrize("n", [_PLANES_MIN_DIM - 1, _PLANES_MIN_DIM])
def test_size_dispatch(n):
    # Calls at 2^n_v >= 512 entries run on planes, smaller ones do not;
    # both give the scalar layout's outputs and CountModel's counts.  On the
    # non-Cantor trees too this checks the planes' shifts one way, which a
    # round trip cannot.
    for basis, tree in (("cantor", "cantor"), ("random:4", "trivial"), ("gencantor:2", "graft:2")):
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
