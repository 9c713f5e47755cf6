"""Property tests: transforms against the dense oracle over drawn configurations.

Each example draws a field, a basis family (optionally scaled, so non-unit
heads occur), a reduction tree that validates for the basis, and the
conversion parameters.  Outputs must equal the oracle's exactly, and
executed counts must equal CountModel's.  The profile loaded in
conftest.py makes the draws deterministic.
"""

import random

from hypothesis import assume, given, strategies as st

from binbasis.cli import build_basis, resolve_field
from binbasis.oracle import get_oracle, oracle_convert, oracle_l2x_mixed, poly_eval
from binbasis.precomp import build_tables, initial_phi_vector
from binbasis.redtree import (
    LEAF,
    ReductionTree,
    build_cantor_tree,
    build_trivial,
    enumerate_trees,
    validate,
)
from binbasis.transforms import BASIS_KINDS, CountModel, convert, run_transform

# Basis sources (cli.build_basis spec strings) per field spec; random:<seed>
# gets its seed drawn.  GF(2^32) has no log tables, so its products run
# through the multiply kernel; 0x187c56473 is a dense modulus.  Each source
# builds bases up to n = 10, except those over GF(2^8), which stop at
# n = 8, and Cantor bases over GF(2^12), which stop at n = 4.
FAMILIES = {
    "8": ("cantor", "gencantor:2", "gencantor:4", "tower:1-2-4-8", "random"),
    "12": ("cantor", "gencantor:3", "tower:1-2-4-12", "tower:1-3-12", "random"),
    "16": ("cantor", "gencantor:4", "tower:1-2-4-16", "random"),
    "32": ("cantor", "gencantor:2", "tower:1-2-4-8-16-32", "tower:1-2!-4!-8!-16!-32!",
           "random"),
    "32:0x187c56473": ("cantor", "random"),
}


@st.composite
def shapes(draw, leaves):
    """A full binary tree shape with the given number of leaves."""
    if leaves == 1:
        return LEAF
    d = draw(st.integers(1, leaves - 1))
    return (draw(shapes(d)), draw(shapes(leaves - d)))


@st.composite
def tables(draw, max_n=5):
    """A PrecompTable over a drawn field, basis family, scale and valid tree.

    Up to n = 5 the tree comes from every tree of that size; above, from a
    drawn shape, the Cantor tree and the comb, whichever validate.
    """
    spec = draw(st.sampled_from(sorted(FAMILIES)))
    field = resolve_field(spec)
    family = draw(st.sampled_from(FAMILIES[spec]))
    if family == "random":
        family = f"random:{draw(st.integers(0, 999))}"
    n = draw(st.integers(1, max_n))
    try:
        beta = build_basis(field, family, n)
    except ValueError:
        assume(False)
    scale = draw(st.one_of(st.just(1), st.integers(1, field.order - 1)))
    beta = tuple(field.mul(scale, b) for b in beta)
    if n <= 5:
        candidates = enumerate_trees(n)
    else:
        candidates = (ReductionTree.from_shape(draw(shapes(n))),
                      build_cantor_tree(n), build_trivial(n))
    trees = [t for t in candidates if validate(field, t, beta)]
    return build_tables(field, draw(st.sampled_from(trees)), beta)


def elements(field, count):
    return st.lists(st.integers(0, field.order - 1), min_size=count, max_size=count)


@given(st.data())
def test_convert_matches_oracle_and_model(data):
    table = data.draw(tables())
    field, beta, tree = table.field, table.beta, table.tree
    ell = data.draw(st.integers(1, 1 << tree.n))
    lam = data.draw(st.one_of(st.just(0), st.integers(0, field.order - 1)))
    kind_from = data.draw(st.sampled_from(BASIS_KINDS))
    kind_to = data.draw(st.sampled_from(BASIS_KINDS))
    coeffs = data.draw(elements(field, ell))
    out, ctr = convert(field, kind_from, kind_to, beta, tree, lam, ell, coeffs, table)
    assert out == oracle_convert(field, kind_from, kind_to, beta, lam, ell, coeffs)
    assert ctr.totals() == CountModel(table).convert(kind_from, kind_to, ell)


@given(st.data())
def test_convert_round_trip_up_to_n10(data):
    table = data.draw(tables(max_n=10))
    field, beta, tree = table.field, table.beta, table.tree
    size = 1 << tree.n
    ell = data.draw(st.one_of(st.just(size), st.integers(1, size)))
    lam = data.draw(st.integers(0, field.order - 1))
    kind_from = data.draw(st.sampled_from(BASIS_KINDS))
    kind_to = data.draw(st.sampled_from([k for k in BASIS_KINDS if k != kind_from]))
    # Up to 1024 coefficients: a seeded generator keeps the example small.
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    coeffs = [rng.randrange(field.order) for _ in range(ell)]
    model = CountModel(table)
    there, ctr = convert(field, kind_from, kind_to, beta, tree, lam, ell, coeffs, table)
    assert ctr.totals() == model.convert(kind_from, kind_to, ell)
    back, ctr = convert(field, kind_to, kind_from, beta, tree, lam, ell, there, table)
    assert ctr.totals() == model.convert(kind_to, kind_from, ell)
    assert back == coeffs


@given(st.data())
def test_raw_l2x_every_c_and_b(data):
    table = data.draw(tables())
    field, beta, tree = table.field, table.beta, table.tree
    size = 1 << tree.n
    ell = data.draw(st.integers(1, size))
    lam = data.draw(st.integers(0, field.order - 1))
    inputs = data.draw(elements(field, ell))
    phi = initial_phi_vector(field, tree, table.bases, lam)
    model = CountModel(table)
    for c in range(ell + 1):
        for b in (0, 1):
            if not 1 <= b + c <= size:
                continue
            out, ctr = run_transform("l2x", 0, phi, c, ell, b, inputs, table)
            expect = oracle_l2x_mixed(field, beta, lam, c, ell, b, inputs)
            assert out[:c] == expect[:c], (c, b)
            if b:
                assert out[c] == expect[-1], (c, b)
            assert ctr.totals()[:2] == model.l2x(0, c, ell, b), (c, b)


@given(st.data())
def test_raw_x2l_every_c(data):
    table = data.draw(tables())
    field, beta, tree = table.field, table.beta, table.tree
    size = 1 << tree.n
    ell = data.draw(st.integers(1, size))
    lam = data.draw(st.integers(0, field.order - 1))
    coeffs = data.draw(elements(field, ell))
    phi = initial_phi_vector(field, tree, table.bases, lam)
    ora = get_oracle(field, beta)
    poly = ora.combine("lch", coeffs)
    values = [poly_eval(field, poly, point) for point in ora.points(lam)]
    model = CountModel(table)
    for c in range(1, size + 1):
        out, ctr = run_transform("x2l", 0, phi, c, ell, 0, coeffs, table)
        assert out[:c] == values[:c], c
        assert ctr.totals()[:2] == model.x2l(0, c, ell), c
