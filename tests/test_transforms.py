"""Transforms against the dense oracle, and executed counts against the model."""

import random

import pytest

from binbasis.basisgen import (
    construct_cantor,
    construct_tower_basis,
    random_basis,
    tower_from_string,
)
from binbasis.field import get_field
from binbasis.oracle import (
    bound,
    get_oracle,
    oracle_convert,
    oracle_l2x_mixed,
    poly_add,
    poly_eval,
    poly_mul,
    poly_trim,
)
from binbasis.precomp import build_tables, initial_phi_vector
from binbasis.redtree import (
    build_cantor_tree,
    build_max_tree,
    build_trivial,
    enumerate_trees,
    validate,
)
from binbasis.transforms import (
    BASIS_KINDS,
    CoeffBuffer,
    CountModel,
    OpCounter,
    _N2X,
    _X2M,
    _Scalar,
    _taylor_adds,
    _groups,
    _memo,
    _walk,
    convert,
    graded_split,
    l2x,
    m2x,
    n2x,
    run_transform,
    scale_by_powers,
    taylor_expand,
    taylor_inverse,
    x2l,
    x2m,
    x2n,
)

GF8 = get_field(8)
GF12 = get_field(12)
GF13 = get_field(13)
GF16 = get_field(16)


def rand_elems(rng, field, count):
    return [rng.randrange(field.order) for _ in range(count)]


def run_graded(table, lam, coeffs, forward):
    buf = CoeffBuffer(coeffs)
    phi = initial_phi_vector(table.field, table.tree, table.bases, lam)
    (n2x if forward else x2n)(0, phi, len(coeffs), buf.view(), table)
    return buf.data, buf.counter


def run_l2x(table, lam, c, ell, b, inputs):
    size = 1 << table.tree.size[0]
    buf = CoeffBuffer(list(inputs) + [0] * (size - len(inputs)))
    phi = initial_phi_vector(table.field, table.tree, table.bases, lam)
    l2x(0, phi, c, ell, b, buf.view(), table)
    return buf.data, buf.counter


def run_x2l(table, lam, c, ell, coeffs):
    size = 1 << table.tree.size[0]
    buf = CoeffBuffer(list(coeffs) + [0] * (size - len(coeffs)))
    phi = initial_phi_vector(table.field, table.tree, table.bases, lam)
    x2l(0, phi, c, ell, buf.view(), table)
    return buf.data, buf.counter


def run_xm(table, coeffs, forward):
    buf = CoeffBuffer(coeffs)
    (x2m if forward else m2x)(0, len(coeffs), buf.view(), table)
    return buf.data, buf.counter


def scaled_cantor(field, n, factor):
    return tuple(field.mul(factor, b) for b in construct_cantor(field, n))


def valid_random_basis(field, n, seed):
    # Walk seeds until validate accepts the trivial tree; deterministic.
    while True:
        beta = random_basis(field, n, random.Random(seed))
        if validate(field, build_trivial(n), beta):
            return beta
        seed += 1


def small_tables():
    """All valid trees over small bases, including non-unit heads."""
    out = []
    for n in (1, 2, 3, 4):
        beta = construct_cantor(GF8, n)
        for tree in enumerate_trees(n):
            if validate(GF8, tree, beta):
                out.append(build_tables(GF8, tree, beta))
    g = GF8.primitive_element()
    out.append(build_tables(GF8, build_cantor_tree(3), scaled_cantor(GF8, 3, g)))
    tower = tower_from_string(GF12, "1-2-4-12")
    beta = construct_tower_basis(GF12, tower, 4)
    out.append(build_tables(GF12, build_max_tree(4, tower.degrees), beta))
    out.append(build_tables(GF13, build_trivial(4), valid_random_basis(GF13, 4, 5)))
    return out


def medium_tables():
    """n = 6 configurations used for full-range sweeps."""
    beta = construct_cantor(GF16, 6)
    out = [
        build_tables(GF16, build_trivial(6), beta),
        build_tables(GF16, build_cantor_tree(6), beta),
    ]
    tower = tower_from_string(GF12, "1-2-4-12")
    tbeta = construct_tower_basis(GF12, tower, 6)
    out.append(build_tables(GF12, build_max_tree(6, tower.degrees), tbeta))
    return out


SMALL = small_tables()
MEDIUM = medium_tables()


def lam_choices(table, rng):
    return (0, rng.randrange(1, table.field.order))


def test_strided_view_geometry():
    buf = CoeffBuffer(list(range(8)))
    view = buf.view()
    assert len(view) == 8 and view[3] == 3
    head = buf.view(4)
    assert [head[i] for i in range(4)] == [0, 1, 2, 3]
    with pytest.raises(IndexError):
        head[4]
    with pytest.raises(ValueError):
        buf.view(9)
    # A float length was accepted and x2m then ran on it, scale_by_powers on
    # one raised TypeError from len(), and a str length raised TypeError.
    table = build_tables(GF8, build_cantor_tree(2), construct_cantor(GF8, 2))
    for length in (3.0, "2"):
        with pytest.raises(ValueError, match="expected integer view length"):
            buf.view(length)
    with pytest.raises(ValueError, match="expected integer view length"):
        x2m(0, 3, CoeffBuffer([1, 2, 3, 4]).view(3.0), table)
    with pytest.raises(ValueError, match="expected integer view length"):
        scale_by_powers(GF8, CoeffBuffer([1, 2, 3]).view(2.0), 3)
    assert type(buf.view(Index(3)).length) is int


def test_scale_by_powers():
    g = GF8.primitive_element()
    buf = CoeffBuffer([1, 1, 1, 1])
    scale_by_powers(GF8, buf.view(), g)
    expect = [1, g, GF8.mul(g, g), GF8.mul(g, GF8.mul(g, g))]
    assert buf.data == expect
    assert buf.counter.totals() == (0, 0, 5)

    for ell in range(1, 7):
        buf = CoeffBuffer(rand_elems(random.Random(ell), GF8, ell))
        scale_by_powers(GF8, buf.view(), g)
        assert buf.counter.twist_multiplications == max(2 * ell - 3, 0)

    buf = CoeffBuffer([3, 5])
    scale_by_powers(GF8, buf.view(), 1)
    assert buf.data == [3, 5] and buf.counter.totals() == (0, 0, 0)

    buf = CoeffBuffer([7])
    scale_by_powers(GF8, buf.view(), g)
    assert buf.data == [7] and buf.counter.totals() == (0, 0, 0)

    with pytest.raises(ValueError):
        scale_by_powers(GF8, CoeffBuffer([1, 2]).view(), 0)


@pytest.mark.parametrize("degree", [16, 32])
def test_scale_by_powers_rejects_elements_outside_field(degree):
    # Out-of-field entries and factors raised IndexError, scaled silently or,
    # for a -1 entry over GF(2^32), never returned.
    field = get_field(degree)
    top = 1 << degree
    for data, w in (([1, top, 2], 3), ([1, 2, -1], 3), ([1, 2, 3], top), ([1, 2, 3], -1)):
        buf = CoeffBuffer(data)
        with pytest.raises(ValueError, match="outside GF"):
            scale_by_powers(field, buf.view(), w)
        assert buf.data == data and buf.counter.totals() == (0, 0, 0)


def test_graded_leaf_shift():
    rng = random.Random(11)
    beta = (GF8.primitive_element(),)
    table = build_tables(GF8, build_trivial(1), beta)
    lam = rng.randrange(1, GF8.order)
    f0, f1 = rand_elems(rng, GF8, 2)
    out, ctr = run_graded(table, lam, [f0, f1], True)
    phi = GF8.mul(lam, GF8.inv(beta[0]))
    assert out == [f0 ^ GF8.mul(phi, f1), f1]
    assert ctr.totals() == (1, 1, 0)
    back, ctr2 = run_graded(table, lam, out, False)
    assert back == [f0, f1] and ctr2.totals() == (1, 1, 0)

    one, ctr = run_graded(table, lam, [f0], True)
    assert one == [f0] and ctr.totals() == (0, 0, 0)


def test_graded_matches_oracle_small():
    rng = random.Random(101)
    for table in SMALL:
        field, beta = table.field, table.beta
        size = 1 << table.tree.size[0]
        for lam in lam_choices(table, rng):
            for ell in range(1, size + 1):
                g = rand_elems(rng, field, ell)
                out, ctr = run_graded(table, lam, g, True)
                assert out == oracle_convert(field, "newton", "lch", beta, lam, ell, g)
                back, ctr2 = run_graded(table, lam, out, False)
                assert back == g
                assert ctr.totals() == ctr2.totals()


def test_lagrange_full_matches_oracle_small():
    rng = random.Random(303)
    for table in SMALL:
        field, beta = table.field, table.beta
        size = 1 << table.tree.size[0]
        for lam in lam_choices(table, rng):
            for ell in range(1, size + 1):
                f = rand_elems(rng, field, ell)
                out, _ = run_l2x(table, lam, ell, ell, 0, f)
                expect = oracle_convert(field, "lagrange", "lch", beta, lam, ell, f)
                assert out[:ell] == expect
                back, _ = run_x2l(table, lam, ell, ell, out[:ell])
                assert back[:ell] == f


def test_mixed_l2x_matches_oracle():
    rng = random.Random(404)
    tables = [t for t in SMALL if t.tree.size[0] == 4][:2]
    for table in tables:
        field, beta = table.field, table.beta
        size = 1 << table.tree.size[0]
        for lam in lam_choices(table, rng):
            for ell in range(1, size + 1):
                for c in range(ell + 1):
                    for b in (0, 1):
                        if not 1 <= b + c <= size:
                            continue
                        inputs = rand_elems(rng, field, ell)
                        out, _ = run_l2x(table, lam, c, ell, b, inputs)
                        expect = oracle_l2x_mixed(field, beta, lam, c, ell, b, inputs)
                        assert out[:c] == expect[:c]
                        if b:
                            assert out[c] == expect[-1]


def test_x2l_value_counts_beyond_ell():
    rng = random.Random(505)
    table = next(t for t in SMALL if t.tree.size[0] == 3)
    field, beta = table.field, table.beta
    ora = get_oracle(field, beta)
    for lam in lam_choices(table, rng):
        points = ora.points(lam)
        for ell in range(1, 9):
            for c in range(1, 9):
                h = rand_elems(rng, field, ell)
                out, _ = run_x2l(table, lam, c, ell, h)
                poly = ora.combine("lch", h)
                assert out[:c] == [poly_eval(field, poly, points[j]) for j in range(c)]


def test_lagrange_leaf_cases():
    rng = random.Random(606)
    beta = (GF8.primitive_element(),)
    table = build_tables(GF8, build_trivial(1), beta)
    lam = rng.randrange(1, GF8.order)
    phi = GF8.mul(lam, GF8.inv(beta[0]))
    cases = [
        (2, 2, 0, (2, 1)),
        (1, 2, 1, (2, 1)),
        (1, 2, 0, (1, 1)),
        (0, 2, 1, (1, 1)),
        (1, 1, 1, (0, 0)),
        (1, 1, 0, (0, 0)),
        (0, 1, 1, (0, 0)),
    ]
    for c, ell, b, ops in cases:
        inputs = rand_elems(rng, GF8, ell)
        out, ctr = run_l2x(table, lam, c, ell, b, inputs)
        expect = oracle_l2x_mixed(GF8, beta, lam, c, ell, b, inputs)
        assert out[:c] == expect[:c]
        if b:
            assert out[c] == expect[-1]
        assert (ctr.additions, ctr.multiplications) == ops

    h0, h1 = rand_elems(rng, GF8, 2)
    out, ctr = run_x2l(table, lam, 2, 2, [h0, h1])
    assert out[0] == h0 ^ GF8.mul(phi, h1)
    assert out[1] == out[0] ^ h1
    assert (ctr.additions, ctr.multiplications) == (2, 1)
    out, ctr = run_x2l(table, lam, 2, 1, [h0])
    assert out[:2] == [h0, h0] and ctr.totals() == (0, 0, 0)


def test_taylor_small_example():
    buf = CoeffBuffer([0, 0, 0, 1])
    taylor_expand(2, 4, buf.view())
    assert buf.data == [0, 1, 1, 1]
    assert buf.counter.additions == 2
    taylor_inverse(2, 4, buf.view())
    assert buf.data == [0, 0, 0, 1]
    assert buf.counter.additions == 4


def test_taylor_reconstruction():
    # Blocks of size t are coefficients on powers of x^t - x.
    rng = random.Random(707)
    for t in (2, 4, 8):
        for ell in (1, 2, 3, t, t + 1, 2 * t, 3 * t + 2, 5 * t + 1):
            data = rand_elems(rng, GF8, ell)
            buf = CoeffBuffer(data)
            taylor_expand(t, ell, buf.view())
            base = [0] * t + [1]
            base[1] ^= 1
            acc, power = [], (1,)
            for i in range(0, ell, t):
                block = tuple(buf.data[i:i + t])
                acc.append(poly_mul(GF8, poly_trim(block), power))
                power = poly_mul(GF8, power, tuple(base))
            total = ()
            for piece in acc:
                total = poly_add(total, piece)
            expect = list(total) + [0] * (ell - len(total))
            assert data == expect

            assert buf.counter.additions == _taylor_adds(t, ell)
            assert buf.counter.additions <= bound("taylor_add", ell=ell, t=t)
            taylor_inverse(t, ell, buf.view())
            assert buf.data == data
            assert buf.counter.additions == 2 * _taylor_adds(t, ell)


def test_monomial_matches_oracle_small():
    rng = random.Random(808)
    for table in SMALL:
        field, beta = table.field, table.beta
        size = 1 << table.tree.size[0]
        for ell in range(1, size + 1):
            h = rand_elems(rng, field, ell)
            out, ctr = run_xm(table, h, True)
            assert out == oracle_convert(
                field, "lch_twisted", "monomial", beta, 0, ell, h)
            back, ctr2 = run_xm(table, out, False)
            assert back == h
            assert ctr.totals() == ctr2.totals()


def test_monomial_mul_free_on_unit_heads():
    # All delta heads are 1 on a Cantor basis, so no scaling fires.
    for table in MEDIUM[:2]:
        for ell in range(1, 65):
            h = rand_elems(random.Random(ell), table.field, ell)
            _, ctr = run_xm(table, h, True)
            assert ctr.multiplications == 0
            assert ctr.twist_multiplications == 0


def test_monomial_scaling_fires_on_tower():
    table = MEDIUM[2]
    _, ctr = run_xm(table, rand_elems(random.Random(1), table.field, 64), True)
    assert ctr.multiplications > 0


def test_counts_match_model_graded_and_lagrange():
    rng = random.Random(909)
    for table in SMALL + MEDIUM:
        size = 1 << table.tree.size[0]
        model = CountModel(table)
        lam = rng.randrange(table.field.order)
        for ell in range(1, size + 1):
            out, ctr = run_graded(table, lam, rand_elems(rng, table.field, ell), True)
            assert ctr.totals() == model.transform("n2x", 0, ell, ell, 0)
            _, ctr = run_graded(table, lam, out, False)
            assert ctr.totals() == model.transform("n2x", 0, ell, ell, 0)
            _, ctr = run_xm(table, rand_elems(rng, table.field, ell), True)
            assert ctr.totals() == model.transform("x2m", 0, ell, ell, 0)
            _, ctr = run_xm(table, rand_elems(rng, table.field, ell), False)
            assert ctr.totals() == model.transform("x2m", 0, ell, ell, 0)
            _, ctr = run_x2l(table, lam, ell, ell, rand_elems(rng, table.field, ell))
            assert (ctr.additions, ctr.multiplications) == model.x2l(0, ell, ell)


def test_counts_match_model_mixed():
    rng = random.Random(111)
    for table in SMALL:
        size = 1 << table.tree.size[0]
        model = CountModel(table)
        lam = rng.randrange(table.field.order)
        for ell in range(1, size + 1):
            for c in range(ell + 1):
                for b in (0, 1):
                    if not 1 <= b + c <= size:
                        continue
                    inputs = rand_elems(rng, table.field, ell)
                    _, ctr = run_l2x(table, lam, c, ell, b, inputs)
                    assert (ctr.additions, ctr.multiplications) == \
                        model.l2x(0, c, ell, b)
            for c in range(1, size + 1):
                h = rand_elems(rng, table.field, ell)
                _, ctr = run_x2l(table, lam, c, ell, h)
                assert (ctr.additions, ctr.multiplications) == model.x2l(0, c, ell)


def test_counts_match_model_sampled_large():
    rng = random.Random(222)
    beta = construct_cantor(GF16, 9)
    for tree in (build_trivial(9), build_cantor_tree(9)):
        table = build_tables(GF16, tree, beta)
        model = CountModel(table)
        lam = rng.randrange(GF16.order)
        for ell in sorted(rng.sample(range(1, 513), 6)) + [512]:
            _, ctr = run_graded(table, lam, rand_elems(rng, GF16, ell), True)
            assert ctr.totals() == model.transform("n2x", 0, ell, ell, 0)
            _, ctr = run_xm(table, rand_elems(rng, GF16, ell), False)
            assert ctr.totals() == model.transform("x2m", 0, ell, ell, 0)


def test_convert_all_pairs_match_oracle():
    rng = random.Random(333)
    tables = [next(t for t in SMALL if t.tree.size[0] == 3),
              SMALL[-3],  # scaled Cantor head, nontrivial twist
              next(t for t in SMALL if t.field is GF12)]
    for table in tables:
        field, beta = table.field, table.beta
        tree = table.tree
        size = 1 << tree.size[0]
        model = CountModel(table)
        lam = rng.randrange(field.order)
        for ell in (1, 2, 3, size // 2 + 1, size):
            coeffs = rand_elems(rng, field, ell)
            for kf in BASIS_KINDS:
                for kt in BASIS_KINDS:
                    out, ctr = convert(
                        field, kf, kt, beta, tree, lam, ell, coeffs, table)
                    expect = oracle_convert(field, kf, kt, beta, lam, ell, coeffs)
                    assert out == expect, (kf, kt, ell)
                    assert ctr.totals() == model.convert(kf, kt, ell)
                    if kf == kt:
                        assert ctr.totals() == (0, 0, 0)


def test_convert_rejects_mismatched_table():
    beta = construct_cantor(GF8, 4)
    tree = build_cantor_tree(4)
    table = build_tables(GF8, tree, beta)
    coeffs = rand_elems(random.Random(5), GF8, 16)
    scaled = scaled_cantor(GF8, 4, GF8.primitive_element())
    for field, basis, shape in ((GF8, scaled, tree), (GF8, beta, build_trivial(4)),
                                (GF16, beta, tree)):
        for kf, kt in (("lagrange", "monomial"), ("monomial", "newton")):
            with pytest.raises(ValueError):
                convert(field, kf, kt, basis, shape, 0, 16, coeffs, table)
    out, _ = convert(GF8, "lagrange", "monomial", list(beta), tree, 0, 16, coeffs, table)
    assert out == oracle_convert(GF8, "lagrange", "monomial", beta, 0, 16, coeffs)


def test_convert_rejects_elements_outside_field():
    table = next(t for t in SMALL if t.tree.size[0] == 2)
    for coeffs in ([300, 1, 2, 3], [0, 1, 2, -1]):
        with pytest.raises(ValueError):
            convert(GF8, "newton", "lch", table.beta, table.tree, 0, 4, coeffs, table)
    for lam in (256, 300, -1):
        with pytest.raises(ValueError):
            convert(GF8, "newton", "lagrange", table.beta, table.tree, lam, 4,
                    [0, 1, 2, 3], table)


@pytest.mark.parametrize("n", [3, 9])
def test_executors_reject_elements_outside_field(n):
    # One check serves the scalar executor (n = 3) and the bit-plane one
    # (n = 9), which would otherwise drop the bits above m silently.
    table = build_tables(GF12, build_trivial(n), valid_random_basis(GF12, n, 9))
    size = 1 << n
    good = [1] * n
    for bad in (5000, 1 << 12, -1):
        data = [7] * size
        data[size // 2] = bad
        for name in ("n2x", "x2n", "l2x", "x2l", "x2m", "m2x"):
            with pytest.raises(ValueError, match="data entry outside GF"):
                run_transform(name, 0, good, size, size, 0, data, table)
        for name in ("n2x", "x2n", "l2x", "x2l"):
            phi = good[:-1] + [bad]
            with pytest.raises(ValueError, match="shift outside GF"):
                run_transform(name, 0, phi, size, size, 0, [7] * size, table)
        buf = CoeffBuffer(data)
        with pytest.raises(ValueError, match="data entry outside GF"):
            n2x(0, good, size, buf.view(), table)
        with pytest.raises(ValueError, match="shift outside GF"):
            l2x(0, good[:-1] + [bad], size, size, 0, CoeffBuffer([7] * size).view(), table)
        with pytest.raises(ValueError, match="data entry outside GF"):
            m2x(0, size, buf.view(), table)
        assert buf.data == data



class Index:
    """An integer type other than int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("degree", [16, 32])
@pytest.mark.parametrize("n", [3, 9])
def test_non_integers_raise_value_error(n, degree):
    # A float entry raised TypeError below 512 entries and ValueError from
    # 512 up; a float shift or lam raised TypeError at both sizes.
    field = get_field(degree)
    beta = valid_random_basis(field, n, 1)
    tree = build_trivial(n)
    table = build_tables(field, tree, beta)
    size = 1 << n
    for name in ("n2x", "l2x", "x2m"):
        with pytest.raises(ValueError, match="data entry outside GF"):
            run_transform(name, 0, [1] * n, size, size, 0, [1, 2.5] + [3] * (size - 2), table)
    for name in ("n2x", "x2n", "l2x", "x2l"):
        with pytest.raises(ValueError, match="shift outside GF"):
            run_transform(name, 0, [1.0] + [1] * (n - 1), size, size, 0, [3] * size, table)
    with pytest.raises(ValueError, match="data entry outside GF"):
        convert(field, "lch", "lagrange", beta, tree, 0, 3, [1, 2.5, 3], table)
    for lam in (2.5, 1.0, "1"):
        with pytest.raises(ValueError, match=f"lam {lam} outside GF"):
            convert(field, "lch", "lagrange", beta, tree, lam, 3, [1, 2, 3], table)
    # Both layouts read any other integer type by its __index__.
    out, ctr = run_transform("n2x", 0, [Index(1)] * n, size, size, 0, [Index(3)] * size, table)
    want, totals = run_transform("n2x", 0, [1] * n, size, size, 0, [3] * size, table)
    assert out == want and ctr.totals() == totals.totals()
    assert all(type(x) is int for x in out)


def test_float_arguments_do_not_poison_caches():
    # A float v, c, ell or b reached the shared split caches and the count
    # memo: CountModel returned float counts, and later calls with the equal
    # int, whose cache keys match, raised TypeError or returned floats too.
    table = build_tables(GF16, build_cantor_tree(4), construct_cantor(GF16, 4))
    field, beta, tree = table.field, table.beta, table.tree
    phi, data = [0] * 4, [1, 2, 3]
    model = CountModel(table)
    with pytest.raises(ValueError, match="expected integer ell, got 3.0"):
        model.convert("newton", "lch", 3.0)
    with pytest.raises(ValueError, match="expected integer ell, got 3.0"):
        convert(field, "newton", "lch", beta, tree, 0, 3.0, data, table)
    for v, c, ell, b in ((0.0, 3, 3, 0), (0, 3.0, 3, 0), (0, 3, 3.0, 0), (0, 2, 3, 1.0)):
        for name in ("n2x", "l2x", "x2m"):
            with pytest.raises(ValueError, match="expected integer v, c, ell and b"):
                model.transform(name, v, c, ell, b)
            with pytest.raises(ValueError, match="expected integer v, c, ell and b"):
                run_transform(name, v, phi, c, ell, b, data, table)
    counts = CountModel(table).convert("newton", "lch", 3)
    assert all(type(x) is int for x in counts)
    assert CountModel(table).convert("newton", "lch", Index(3)) == counts
    out, ctr = convert(field, "newton", "lch", beta, tree, 0, 3, data, table)
    assert ctr.totals() == counts
    assert convert(field, "newton", "lch", beta, tree, 0, Index(3), data, table)[0] == out
    assert run_transform("n2x", 0, phi, 3, 3, 0, data, table)[1].totals() == \
        model.transform("n2x", 0, 3, 3, 0)
    # A float Taylor t or ell raised AttributeError from _clog2.
    for t, ell in ((2, 4.0), (2.0, 4)):
        for run in (taylor_expand, taylor_inverse):
            buf = CoeffBuffer([1, 2, 3, 4])
            with pytest.raises(ValueError, match="expected integer t and ell"):
                run(t, ell, buf.view())
            assert buf.data == [1, 2, 3, 4] and buf.counter.totals() == (0, 0, 0)
    buf, want = CoeffBuffer([1, 2, 3, 4]), CoeffBuffer([1, 2, 3, 4])
    taylor_expand(Index(2), Index(4), buf.view())
    taylor_expand(2, 4, want.view())
    assert buf.data == want.data and buf.counter.totals() == want.counter.totals()


def test_missing_shift_vector_raises_value_error():
    # A shifted transform given no shift vector raised TypeError from len().
    table = build_tables(GF16, build_trivial(4), valid_random_basis(GF16, 4, 2))
    for name in ("n2x", "x2n", "l2x", "x2l"):
        with pytest.raises(ValueError, match="shift outside GF"):
            run_transform(name, 0, None, 5, 5, 0, [1] * 5, table)
    with pytest.raises(ValueError, match="shift outside GF"):
        n2x(0, None, 5, CoeffBuffer([1] * 5).view(), table)
    # x2m and m2x read no shift vector.
    assert run_transform("x2m", 0, None, 5, 5, 0, [1] * 5, table)[0] == \
        run_transform("x2m", 0, [0] * 4, 5, 5, 0, [1] * 5, table)[0]


def test_convert_twist_counter():
    rng = random.Random(444)
    scaled = SMALL[-3]
    assert scaled.beta[0] != 1
    for ell in (1, 2, 5, 8):
        coeffs = rand_elems(rng, GF8, ell)
        _, ctr = convert(GF8, "lch", "monomial", scaled.beta, scaled.tree,
                         0, ell, coeffs, scaled)
        assert ctr.twist_multiplications == max(2 * ell - 3, 0)
    plain = next(t for t in SMALL if t.tree.size[0] == 3)
    assert plain.beta[0] == 1
    _, ctr = convert(GF8, "monomial", "lagrange", plain.beta, plain.tree,
                     3, 8, rand_elems(rng, GF8, 8), plain)
    assert ctr.twist_multiplications == 0


def test_convert_chain_roundtrip():
    rng = random.Random(555)
    table = MEDIUM[2]
    field, beta, tree = table.field, table.beta, table.tree
    lam = rng.randrange(field.order)
    start = rand_elems(rng, field, 23)
    chain = ("monomial", "newton", "lagrange", "lch", "monomial")
    coeffs = start
    for kf, kt in zip(chain, chain[1:]):
        coeffs, _ = convert(field, kf, kt, beta, tree, lam, 23, coeffs, table)
    assert coeffs == start


def test_model_counts_within_bounds():
    beta = construct_cantor(GF16, 8)
    for tree in (build_trivial(8), build_cantor_tree(8)):
        model = CountModel(build_tables(GF16, tree, beta))
        for ell in range(1, 257):
            a, m = model.transform("n2x", 0, ell, ell, 0)[:2]
            assert a <= bound("newton_add", ell=ell)
            assert m <= bound("newton_mul", ell=ell)
            a, m = model.l2x(0, ell, ell, 0)
            assert a <= bound("lagrange_add", ell=ell)
            assert m <= bound("lagrange_mul", ell=ell)
            a, m = model.transform("x2m", 0, ell, ell, 0)[:2]
            assert a <= bound("monomial_add", ell=ell)
            assert m <= bound("monomial_mul", ell=ell)
    model = CountModel(build_tables(GF16, build_cantor_tree(8), beta))
    for ell in range(1, 257):
        assert model.transform("n2x", 0, ell, ell, 0)[0] <= bound("cantor_newton_add", ell=ell)
        assert model.transform("x2m", 0, ell, ell, 0)[0] <= bound("cantor_monomial_add", ell=ell)
        assert model.transform("x2m", 0, ell, ell, 0)[1] == 0


def test_mixed_bounds_hold():
    beta = construct_cantor(GF16, 6)
    model = CountModel(build_tables(GF16, build_cantor_tree(6), beta))
    for ell in range(1, 65):
        for c in range(ell + 1):
            for b in (0, 1):
                if not 1 <= b + c <= 64:
                    continue
                a, m = model.l2x(0, c, ell, b)
                assert a <= bound("l2x_add", c=c, b=b, ell=ell, n=6)
                assert m <= bound("l2x_mul", c=c, b=b, ell=ell, n=6)
        for c in range(1, 65):
            a, m = model.x2l(0, c, ell)
            assert a <= bound("x2l_add", c=c, ell=ell, n=6)
            assert m <= bound("x2l_mul", c=c, ell=ell, n=6)


def test_cantor_tree_never_worse_smoke():
    beta = construct_cantor(GF16, 8)
    triv = CountModel(build_tables(GF16, build_trivial(8), beta))
    cant = CountModel(build_tables(GF16, build_cantor_tree(8), beta))
    for ell in range(1, 257):
        assert triv.transform("n2x", 0, ell, ell, 0)[0] >= cant.transform("n2x", 0, ell, ell, 0)[0]
        assert triv.l2x(0, ell, ell, 0)[0] >= cant.l2x(0, ell, ell, 0)[0]
        assert triv.x2l(0, ell, ell)[0] >= cant.x2l(0, ell, ell)[0]


def test_transform_argument_errors():
    table = next(t for t in SMALL if t.tree.size[0] == 3)
    phi = [0, 0, 0]
    with pytest.raises(ValueError):
        n2x(0, phi, 0, CoeffBuffer([0]).view(), table)
    with pytest.raises(ValueError):
        n2x(0, phi, 9, CoeffBuffer([0] * 9).view(), table)
    with pytest.raises(ValueError):
        n2x(0, phi, 4, CoeffBuffer([0] * 8).view(), table)
    with pytest.raises(ValueError):
        n2x(0, [0], 4, CoeffBuffer([0] * 4).view(), table)
    with pytest.raises(ValueError):
        l2x(0, phi, 5, 4, 0, CoeffBuffer([0] * 8).view(), table)
    with pytest.raises(ValueError):
        l2x(0, phi, 0, 4, 0, CoeffBuffer([0] * 8).view(), table)
    with pytest.raises(ValueError):
        l2x(0, phi, 4, 4, 2, CoeffBuffer([0] * 8).view(), table)
    with pytest.raises(ValueError):
        l2x(0, phi, 4, 4, 0, CoeffBuffer([0] * 4).view(), table)
    with pytest.raises(ValueError):
        x2l(0, phi, 0, 4, CoeffBuffer([0] * 8).view(), table)
    with pytest.raises(ValueError):
        x2l(0, phi, 9, 4, CoeffBuffer([0] * 8).view(), table)
    with pytest.raises(ValueError):
        taylor_expand(1, 4, CoeffBuffer([0] * 4).view())
    with pytest.raises(ValueError):
        taylor_inverse(2, 3, CoeffBuffer([0] * 4).view())
    with pytest.raises(ValueError):
        x2m(0, 3, CoeffBuffer([0] * 4).view(), table)
    with pytest.raises(ValueError, match="expected 4 entries, got 3"):
        run_transform("n2x", 0, phi, 4, 4, 0, [0] * 3, table)
    with pytest.raises(ValueError):
        convert(GF8, "lch", "fourier", table.beta, table.tree, 0, 4,
                [0] * 4, table)
    with pytest.raises(ValueError):
        convert(GF8, "lch", "newton", table.beta, table.tree, 0, 4,
                [0] * 3, table)
    model = CountModel(table)
    with pytest.raises(ValueError):
        model.convert("lch", "fourier", 4)
    with pytest.raises(ValueError):
        model.convert("lch", "newton", 9)


@pytest.mark.parametrize("field, make_basis, make_tree, n", [
    (GF16, construct_cantor, build_cantor_tree, 8),
    (get_field(32), lambda f, n: random_basis(f, n, random.Random(1)), build_trivial, 8),
    (GF16, construct_cantor, build_cantor_tree, 9),
    (GF16, lambda f, n: random_basis(f, n, random.Random(1)), build_trivial, 9),
], ids=["gf16-cantor-cantor", "gf32-random-comb", "gf16-cantor-cantor-n9", "gf16-random-comb-n9"])
def test_all_pairs_match_oracle_at_n8(field, make_basis, make_tree, n):
    # At n = 8 a vertex's batch holds up to 128 calls, far more than the
    # property tests reach at n <= 5.  At n = 9 the root's calls run on
    # bit-planes, so the oracle checks that layout's shifts too.
    beta = make_basis(field, n)
    table = build_tables(field, make_tree(n), beta)
    model = CountModel(table)
    rng = random.Random(8)
    for ell in (1 << n, (1 << n) - 53):
        lam = rng.randrange(1, field.order)
        coeffs = rand_elems(rng, field, ell)
        for a in BASIS_KINDS:
            for b in BASIS_KINDS:
                if a == b:
                    continue
                out, ctr = convert(field, a, b, beta, table.tree, lam, ell, coeffs, table)
                assert out == oracle_convert(field, a, b, beta, lam, ell, coeffs), (a, b, ell)
                assert ctr.totals() == model.convert(a, b, ell), (a, b, ell)


@pytest.mark.parametrize("name", ["n2x", "x2n", "l2x", "x2l", "x2m", "m2x"])
@pytest.mark.parametrize("n", [1, 3])
def test_executor_rejects_bad_views_and_parameters(name, n):
    # n = 1: the root is a leaf and runs its leaf kernel directly.
    beta = construct_cantor(GF8, n)
    table = build_tables(GF8, build_cantor_tree(n), beta)
    size = 1 << n
    phi = [1] * n
    full = name in ("l2x", "x2l")

    def execute(c, ell, b, length):
        view = CoeffBuffer([0] * length).view()
        if name in ("n2x", "x2n"):
            (n2x if name == "n2x" else x2n)(0, phi, ell, view, table)
        elif name in ("x2m", "m2x"):
            (x2m if name == "x2m" else m2x)(0, ell, view, table)
        elif name == "l2x":
            l2x(0, phi, c, ell, b, view, table)
        else:
            x2l(0, phi, c, ell, view, table)

    model = CountModel(table)

    def run(c, ell, b, length):
        # CountModel takes no view, but must reject every other argument the
        # executor rejects, with the executor's message.
        try:
            execute(c, ell, b, length)
        except ValueError as exc:
            if not str(exc).startswith("view length"):
                with pytest.raises(ValueError) as counted:
                    model.transform(name, 0, c, ell, b)
                assert str(counted.value) == str(exc)
            raise
        model.transform(name, 0, c, ell, b)

    run(size, size, 0, size)
    with pytest.raises(ValueError, match="view length"):
        run(size, size, 0, size - 1)
    for ell in (0, size + 1):
        c = {"l2x": min(ell, size), "x2l": 1}.get(name, 0)
        b = 1 if name == "l2x" and c == 0 else 0
        with pytest.raises(ValueError, match=f"ell {ell} out of range"):
            run(c, ell, b, size if full else max(ell, 1))
    if name == "l2x":
        for c, b in ((size + 1, 0), (size, 1), (size, 2)):
            with pytest.raises(ValueError, match=f"{'c' if b == 0 else 'b'} .* out of range"):
                run(c, size, b, size)
        with pytest.raises(ValueError, match=f"c {size} out of range for ell {size // 2}"):
            run(size, size // 2, 0, size)
    if name == "x2l":
        for c in (0, size + 1):
            with pytest.raises(ValueError, match=f"c {c} out of range"):
                run(c, size, 0, size)


def test_leaf_group_range_check():
    # A split for a longer ell than the view holds must fail at the group
    # that would leave the view, before the first write.
    # Each fake has a key of its own: a record that shares a key shares the
    # memo of CountModel, and the real n2x replayed first on an equal table
    # would serve the fake's call from it.
    table = build_tables(GF8, build_cantor_tree(2), construct_cantor(GF8, 2))
    assert CountModel(table)._count(_N2X, 0, (3,)) == (3, 2)
    rows, columns = graded_split(1, 4)
    for phase in (rows, columns):
        fam = _N2X._replace(key="n2x-faulty", split=lambda d, ell: (phase,))
        lay = _Scalar(table, 0, [1, 1], OpCounter(), [5, 6, 7])
        with pytest.raises(ValueError, match="group exceeds parent view"):
            _walk(lay, fam, 0, {(3,): 1}, 0)
        assert lay.values(3) == [5, 6, 7]
        # The replay reads the same checked schedule, so it rejects it too.
        with pytest.raises(ValueError, match="child group exceeds parent view"):
            CountModel(table)._count(fam, 0, (3,))


@pytest.mark.parametrize("family", ["n2x", "x2m"])
def test_internal_child_group_range_check(family):
    # At n = 4 both children of the Cantor root are internal; a row group
    # within the view comes first, so a lazy check would have written.
    n = 4
    table = build_tables(GF8, build_cantor_tree(n), construct_cantor(GF8, n))
    size = 1 << n
    rows, columns = graded_split(table.tree.d_of(0), size)
    rng = random.Random(4)
    real = _N2X if family == "n2x" else _X2M
    CountModel(table)._count(real, 0, (size - 1,))
    for phase in (rows, columns):
        fam = real._replace(key=f"{family}-faulty", split=lambda d, ell: (phase,))
        data = rand_elems(rng, GF8, size - 1)
        lay = _Scalar(table, 0, [3] * n, OpCounter(), data)
        with pytest.raises(ValueError, match="group exceeds parent view"):
            _walk(lay, fam, 0, {(size - 1,): 1}, 0)
        assert lay.values(size - 1) == data
        with pytest.raises(ValueError, match="child group exceeds parent view"):
            CountModel(table)._count(fam, 0, (size - 1,))


@pytest.mark.parametrize("n", [6, 9])
def test_schedule_cache_is_keyed_by_what_it_reads(n):
    # _groups is shared across tables, keyed by the children's dimensions
    # and the call's args.  Two tables of one n with other trees and fields,
    # run interleaved on a warm cache, must give what a cold cache gives.
    f32 = get_field(32)
    tables = [build_tables(GF16, build_cantor_tree(n), construct_cantor(GF16, n)),
              build_tables(f32, build_trivial(n), random_basis(f32, n, random.Random(5)))]
    rng = random.Random(n)
    calls = []
    for a in BASIS_KINDS:
        for b in BASIS_KINDS:
            if a != b:
                for ell in ((1 << n), (1 << n - 1) + 3, rng.randrange(2, 1 << n)):
                    for table in tables:
                        calls.append((table, a, b, ell, rand_elems(rng, table.field, ell)))

    def run(table, a, b, ell, coeffs):
        out, ctr = convert(table.field, a, b, table.beta, table.tree, 5, ell, coeffs, table)
        return out, ctr.totals(), CountModel(table).convert(a, b, ell)

    warm = [run(*call) for call in calls]
    for call, got in zip(calls, warm):
        _groups.cache_clear()
        _memo.cache_clear()
        assert run(*call) == got
        assert got[1] == got[2]


def test_schedule_of_graded_families_is_shared_across_levels():
    # n2x, x2n, x2m and m2x never read the delta child's dimension, so it
    # does not key their schedule: on a comb, where every level has d = 1,
    # a length seen at one level reuses the entry made at another.
    n = 16
    table = build_tables(GF16, build_trivial(n), random_basis(GF16, n, random.Random(3)))
    rng = random.Random(16)
    ells = [rng.randrange(2, 1 << n) for _ in range(8)]
    _groups.cache_clear()
    _memo.cache_clear()
    model = CountModel(table)
    for a in BASIS_KINDS:
        for b in BASIS_KINDS:
            if a != b:
                for ell in ells:
                    model.convert(a, b, ell)
    assert _groups.cache_info().hits >= 20


@pytest.mark.parametrize("n", [6, 9])
def test_count_memo_is_keyed_by_the_scaling_guards(n):
    # CountModels of one tree share a memo only if the same x2m/m2x scaling
    # guards fire.  On GF(2^16) trivial trees the Cantor basis fires none of
    # them and random:5 fires every one, so the two tables' counts differ.
    tables = [build_tables(GF16, build_trivial(n), basis)
              for basis in (construct_cantor(GF16, n), random_basis(GF16, n, random.Random(5)))]
    if n == 6:
        assert [CountModel(t).convert("lagrange", "monomial", 61) for t in tables] == \
            [(937, 188, 0), (937, 527, 119)]
    rng = random.Random(n)
    calls = []
    for a in BASIS_KINDS:
        for b in BASIS_KINDS:
            if a != b:
                for ell in ((1 << n), (1 << n - 1) + 3, rng.randrange(2, 1 << n)):
                    calls.extend((table, a, b, ell) for table in tables)
    replayed = [CountModel(table).convert(a, b, ell) for table, a, b, ell in calls]
    for (table, a, b, ell), got in zip(calls, replayed):
        coeffs = rand_elems(rng, GF16, ell)
        _, ctr = convert(GF16, a, b, table.beta, table.tree, 0, ell, coeffs, table)
        assert ctr.totals() == got
        _memo.cache_clear()
        assert CountModel(table).convert(a, b, ell) == got


@pytest.mark.parametrize("n", [1, 3])
def test_bad_transform_names_and_vertices_raise_value_error(n):
    # An unknown name once raised KeyError, vertex -1 ran at the last vertex
    # (or counted nothing), and a vertex past the tree raised IndexError.
    table = build_tables(GF8, build_cantor_tree(n), construct_cantor(GF8, n))
    model = CountModel(table)
    with pytest.raises(ValueError, match="unknown transform 'foo'"):
        run_transform("foo", 0, [1] * n, 2, 2, 0, [0, 0], table)
    with pytest.raises(ValueError, match="unknown transform 'foo'"):
        model.transform("foo", 0, 2, 2, 0)
    vertices = len(table.tree.size)
    for v in (-1, vertices, vertices + 4):
        message = f"vertex {v} out of range"
        for name in ("n2x", "x2n", "l2x", "x2l", "x2m", "m2x"):
            with pytest.raises(ValueError, match=message):
                run_transform(name, v, [1], 1, 1, 0, [0], table)
            with pytest.raises(ValueError, match=message):
                model.transform(name, v, 1, 1, 0)
        with pytest.raises(ValueError, match=message):
            n2x(v, [1], 1, CoeffBuffer([0]).view(), table)
        with pytest.raises(ValueError, match=message):
            x2m(v, 1, CoeffBuffer([0]).view(), table)
