"""Property tests: transforms against the dense oracle over drawn configurations.

Each example draws a field degree, a basis family (optionally scaled, so
non-unit heads occur), a reduction tree from enumerate_trees that validates
for the basis, and the conversion parameters.  Outputs must equal the
oracle's exactly, and executed counts must equal CountModel's.  The profile
loaded in conftest.py makes the draws deterministic.
"""

from hypothesis import assume, given, strategies as st

from binbasis.cli import build_basis
from binbasis.field import get_field
from binbasis.oracle import get_oracle, oracle_convert, oracle_l2x_mixed, poly_eval
from binbasis.precomp import build_tables, initial_phi_vector
from binbasis.redtree import enumerate_trees, validate
from binbasis.transforms import BASIS_KINDS, CountModel, convert, run_transform

# Basis sources (cli.build_basis spec strings) per field degree; random:<seed>
# gets its seed drawn.  Each builds bases up to n = 5, except Cantor-type
# bases over GF(2^12), which stop at n = 4.
FAMILIES = {
    8: ("cantor", "gencantor:2", "gencantor:4", "tower:1-2-4-8", "random"),
    12: ("cantor", "gencantor:3", "tower:1-2-4-12", "tower:1-3-12", "random"),
    16: ("cantor", "gencantor:4", "tower:1-2-4-16", "random"),
}


@st.composite
def tables(draw):
    """A PrecompTable over a drawn field, basis family, scale and valid tree."""
    degree = draw(st.sampled_from(sorted(FAMILIES)))
    field = get_field(degree)
    family = draw(st.sampled_from(FAMILIES[degree]))
    if family == "random":
        family = f"random:{draw(st.integers(0, 999))}"
    n = draw(st.integers(1, 5))
    try:
        beta = build_basis(field, family, n)
    except ValueError:
        assume(False)
    scale = draw(st.one_of(st.just(1), st.integers(1, field.order - 1)))
    beta = tuple(field.mul(scale, b) for b in beta)
    trees = [t for t in enumerate_trees(n) if validate(field, t, beta)]
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
