import random

import pytest

from binbasis.basisgen import (
    alpha_of,
    basis_from_string,
    construct_cantor,
    construct_gen_cantor,
    construct_tower_basis,
    delta_of,
    enumerate_point,
    is_independent,
    make_quadratic_trace_basis,
    make_tower,
    random_basis,
    subfield_basis_powers,
    tower_from_string,
)
from binbasis.field import get_field


def test_enumerate_point_definition():
    g = 0x6
    beta = (1, g)
    assert enumerate_point(beta, 0) == 0
    assert enumerate_point(beta, 1) == 1
    assert enumerate_point(beta, 2) == g
    assert enumerate_point(beta, 3) == 1 ^ g
    with pytest.raises(ValueError):
        enumerate_point(beta, 4)


def test_enumerate_point_is_bijective():
    f = get_field(12)
    rng = random.Random(10)
    for n in (1, 4, 8, 12):
        beta = random_basis(f, n, rng)
        points = {enumerate_point(beta, i) for i in range(1 << n)}
        assert len(points) == 1 << n


def test_alpha_is_prefix():
    assert alpha_of((3, 5, 9), 2) == (3, 5)
    assert alpha_of((3, 5), 1) == (3,)
    with pytest.raises(ValueError):
        alpha_of((3, 5), 2)
    with pytest.raises(ValueError):
        alpha_of((3, 5), 0)


def test_delta_formula_dim_two():
    f = get_field(8)
    g = f.primitive_element()
    assert delta_of(f, (1, g), 1) == (f.mul(g, g) ^ g,)


def test_delta_of_independent_input_stays_independent():
    f = get_field(12)
    rng = random.Random(11)
    for _ in range(20):
        beta = random_basis(f, 6, rng)
        # d=1 keeps the subfield condition trivially (b_0/b_0 = 1).
        out = delta_of(f, beta, 1)
        assert len(out) == 5
        assert is_independent(out)


def test_is_independent():
    assert is_independent((1, 2, 4))
    assert not is_independent((3, 3))
    assert not is_independent((3, 5, 3 ^ 5))
    assert not is_independent((0, 1))


def test_cantor_basis_chain_relation():
    for m, n in ((2, 2), (4, 4), (8, 8), (16, 8)):
        f = get_field(m)
        beta = construct_cantor(f, n)
        assert beta[0] == 1
        assert is_independent(beta)
        for i in range(n - 1):
            nxt = beta[i + 1]
            assert beta[i] == f.mul(nxt, nxt) ^ nxt


def test_cantor_basis_dim_one_and_errors():
    f = get_field(8)
    assert construct_cantor(f, 1) == (1,)
    with pytest.raises(ValueError):
        construct_cantor(get_field(12), 8)  # needs 8 | 12
    for n in (0, 2.0):  # 2.0 once raised AttributeError
        with pytest.raises(ValueError):
            construct_cantor(f, n)


def test_cantor_delta_is_plain_prefix():
    # With b_0 = 1 and power-of-two split degree, the delta map just drops
    # the top d entries.
    f = get_field(8)
    beta = construct_cantor(f, 8)
    for k in range(3):
        d = 1 << k
        assert delta_of(f, beta, d) == beta[: 8 - d]


def test_gen_cantor_prefix_is_theta():
    f = get_field(8)
    theta = subfield_basis_powers(f, 1, 2)
    beta = construct_gen_cantor(f, 2, 2, theta)
    assert len(beta) == 8
    assert beta[:2] == theta


def test_gen_cantor_block_subfield_membership():
    f = get_field(8)
    for t, m_levels in ((1, 3), (2, 2)):
        theta = subfield_basis_powers(f, 1, t)
        beta = construct_gen_cantor(f, m_levels, t, theta)
        assert is_independent(beta)
        for k in range(m_levels + 1):
            block = (1 << k) * t
            for b in beta[:block]:
                assert f.in_subfield(b, block)


def test_gen_cantor_stride_relations():
    f = get_field(16)
    theta = subfield_basis_powers(f, 1, 2)
    beta = construct_gen_cantor(f, 3, 2, theta)
    t = 2
    for k in range(3):
        stride = (1 << k) * t
        for i in range(len(beta) - stride):
            hi = beta[i + stride]
            assert beta[i] == f.pow2k(hi, stride) ^ hi


def test_gen_cantor_binomial_sums():
    # b_i equals the sum over r of C(j, r) b_{i+jt}^(2^(rt)), mod-2 binomials.
    from math import comb

    f = get_field(8)
    theta = subfield_basis_powers(f, 1, 2)
    beta = construct_gen_cantor(f, 2, 2, theta)
    t = 2
    for j in range(5):
        for i in range(len(beta) - j * t):
            acc = 0
            for r in range(j + 1):
                if comb(j, r) & 1:
                    acc ^= f.pow2k(beta[i + j * t], r * t)
            assert acc == beta[i]


def test_gen_cantor_rejects_bad_inputs():
    f = get_field(8)
    with pytest.raises(ValueError):
        construct_gen_cantor(f, 4, 1, (1,))  # needs 16 | 8
    with pytest.raises(ValueError):
        construct_gen_cantor(f, 1, 2, (1, 1))  # dependent theta
    with pytest.raises(ValueError):
        construct_gen_cantor(f, 0, 1, (1,))
    with pytest.raises(ValueError, match="expected integer"):  # once TypeError
        construct_gen_cantor(f, 2, 2.0, subfield_basis_powers(f, 1, 2))


def test_tower_basis_mixed_radix_products():
    f = get_field(4)
    tower = make_tower(f, (1, 2, 4))
    beta = construct_tower_basis(f, tower, 4)
    th0, th1 = tower.level_bases
    assert beta[0] == f.mul(th0[0], th1[0])
    assert beta[1] == f.mul(th0[1], th1[0])
    assert beta[2] == f.mul(th0[0], th1[1])
    assert beta[3] == f.mul(th0[1], th1[1])


def test_tower_single_level_is_the_level_basis():
    f = get_field(12)
    tower = make_tower(f, (1, 12))
    beta = construct_tower_basis(f, tower, 12)
    assert beta == tower.level_bases[0]


def test_tower_bases_independent_for_all_towers_of_12():
    f = get_field(12)
    towers = [
        (1, 12), (1, 2, 12), (1, 3, 12), (1, 4, 12), (1, 6, 12),
        (1, 2, 4, 12), (1, 2, 6, 12), (1, 3, 6, 12),
    ]
    for degrees in towers:
        tower = make_tower(f, degrees)
        for n in range(1, 13):
            assert is_independent(construct_tower_basis(f, tower, n))


def test_tower_string_round_trip():
    f = get_field(12)
    tower = tower_from_string(f, "1-2!-4-12")
    assert tower.degrees == (1, 2, 4, 12)
    assert tower.level_bases[0] == make_quadratic_trace_basis(f, 1)
    assert tower.level_bases[1] == subfield_basis_powers(f, 2, 4)
    assert tower.level_bases[2] == subfield_basis_powers(f, 4, 12)
    with pytest.raises(ValueError):
        tower_from_string(f, "1!-2-12")
    with pytest.raises(ValueError):
        tower_from_string(f, "1-3!-12")  # step 1 -> 3 is not quadratic
    with pytest.raises(ValueError):
        tower_from_string(f, "2-4")
    with pytest.raises(ValueError):
        tower_from_string(f, "1-5-12")  # 5 does not divide 12


def test_quadratic_trace_basis():
    for m, s in ((4, 2), (8, 4), (12, 1), (12, 3)):
        f = get_field(m)
        one, theta = make_quadratic_trace_basis(f, s)
        assert one == 1
        assert f.in_subfield(theta, 2 * s)
        assert not f.in_subfield(theta, s)
        assert f.trace_rel(theta, s, 2 * s) == 1
    for s in (4, 0, -1, 2.0):  # 0 once raised ZeroDivisionError, 2.0 TypeError
        with pytest.raises(ValueError):
            make_quadratic_trace_basis(get_field(12), s)


def test_subfield_basis_powers():
    f = get_field(12)
    assert subfield_basis_powers(f, 12, 12) == (1,)
    xi = f.subfield_generator(6)
    assert subfield_basis_powers(f, 2, 6) == (1, xi, f.mul(xi, xi))
    assert len(subfield_basis_powers(f, 1, 6)) == 6
    with pytest.raises(ValueError):
        subfield_basis_powers(f, 2, 5)
    with pytest.raises(ValueError):
        subfield_basis_powers(f, 1, 5)
    # A zero degree once raised ZeroDivisionError, and 4.0 TypeError.
    for d_sub, d_sup in ((0, 4), (1, 0), (0, 0), (1, 4.0)):
        with pytest.raises(ValueError):
            subfield_basis_powers(get_field(16), d_sub, d_sup)


def test_random_basis_is_independent_and_deterministic():
    f = get_field(13)
    a = random_basis(f, 10, random.Random(99))
    b = random_basis(f, 10, random.Random(99))
    assert a == b
    assert is_independent(a)
    assert all(x for x in a)
    with pytest.raises(ValueError, match="expected integer"):  # once TypeError
        random_basis(f, 2.0, random.Random(99))


def test_basis_serialization_round_trip():
    beta = (1, 0x1A, 0xFF)
    assert basis_from_string("1,1a,ff") == beta
    assert basis_from_string(" 1, 1a ,ff ") == beta
