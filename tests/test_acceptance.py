"""Acceptance sweep: one test per numbered criterion, exact equality only.

Each test prints a single `criterion N PASS/FAIL <label>` line (shown under
-s or -rP) in addition to the usual pytest outcome. The sweeps favor breadth
over depth; the per-module tests hold the fine-grained cases.
"""

import random
from contextlib import contextmanager

import pytest

from binbasis.basisgen import (
    alpha_of,
    construct_cantor,
    construct_gen_cantor,
    construct_tower_basis,
    delta_of,
    enumerate_point,
    gf2_rank,
    is_independent,
    make_quadratic_trace_basis,
    random_basis,
    subfield_basis_powers,
    tower_from_string,
)
from binbasis.field import get_field
from binbasis.oracle import (
    basis_poly,
    bound,
    get_oracle,
    oracle_convert,
    oracle_l2x_mixed,
    poly_compose,
    poly_mul,
    poly_shift,
    poly_trim,
)
from binbasis.precomp import build_tables, initial_phi_vector
from binbasis.redtree import (
    ReductionTree,
    build_balanced_tree,
    build_cantor_tree,
    build_max_tree,
    build_trivial,
    enumerate_trees,
    graft_cantor_tree,
    validate,
)
from binbasis.transforms import (
    BASIS_KINDS,
    CoeffBuffer,
    CountModel,
    _lin_columns,
    _taylor_adds,
    convert,
    l2x,
    m2x,
    taylor_expand,
    taylor_inverse,
    x2m,
)

GF8 = get_field(8)
GF12 = get_field(12)
GF13 = get_field(13)
GF16 = get_field(16)

CONVERT_PAIRS = tuple((a, b) for a in BASIS_KINDS for b in BASIS_KINDS if a != b)
TOWER_TUPLES = ("1-2-12", "1-3-12", "1-4-12", "1-6-12",
                "1-2-4-12", "1-2-6-12", "1-3-6-12")


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL {label}")
        raise
    print(f"criterion {num} PASS {label}")


def rand_elems(rng, field, count):
    return [rng.randrange(field.order) for _ in range(count)]


def graft_blocks(t, n):
    return [build_trivial(min(t, n - i * t)) for i in range(-(-n // t))]


def basis_configs(n):
    """(label, field, basis, {tree name: tree}) for every construction that
    fits the field degree, with known-valid strategies asserted present."""
    configs = []
    rng = random.Random(100 + n)
    tower = tower_from_string(GF12, "1-2-4-12")
    entries = [
        ("random", GF12, random_basis(GF12, n, rng), ("trivial",)),
        ("tower", GF12, construct_tower_basis(GF12, tower, n),
         ("trivial", "max", "balanced")),
        ("cantor", GF8, construct_cantor(GF8, n) if n <= 6 else None,
         ("trivial", "cantor")),
        ("gencantor", GF8, None, ("trivial", "graft")),
    ]
    t = 2
    m_levels = max(((n - 1) // t).bit_length(), 1)
    theta = subfield_basis_powers(GF8, 1, t)
    entries[3] = ("gencantor", GF8,
                  construct_gen_cantor(GF8, m_levels, t, theta)[:n],
                  ("trivial", "graft"))
    if n <= 2:
        entries.append(("cantor12", GF12, construct_cantor(GF12, n),
                        ("trivial", "cantor")))
    for label, field, beta, expected in entries:
        if beta is None:
            continue
        candidates = {"trivial": build_trivial(n),
                      "cantor": build_cantor_tree(n),
                      "graft": graft_cantor_tree(t, n, graft_blocks(t, n))}
        if label == "tower":
            candidates["max"] = build_max_tree(n, tower.degrees)
            candidates["balanced"] = build_balanced_tree(n, tower.degrees)
        valid = {name: tree for name, tree in candidates.items()
                 if validate(field, tree, beta)}
        assert set(expected) <= set(valid), (label, n, sorted(valid))
        configs.append((label, field, beta, valid))
    return configs


def test_criterion_1_oracle_equivalence():
    with criterion(1, "every conversion matches the dense oracle"):
        for n in range(1, 7):
            size = 1 << n
            for label, field, beta, trees in basis_configs(n):
                rng = random.Random(7000 + n)
                tables = {name: build_tables(field, tree, beta)
                          for name, tree in trees.items()}
                lams = [0, rng.randrange(field.order), rng.randrange(field.order)]
                for ell in range(1, size + 1):
                    for lam in lams:
                        coeffs = rand_elems(rng, field, ell)
                        for kf, kt in CONVERT_PAIRS:
                            want = oracle_convert(field, kf, kt, beta, lam,
                                                  ell, coeffs)
                            for name, table in tables.items():
                                got, _ = convert(field, kf, kt, beta,
                                                 trees[name], lam, ell,
                                                 coeffs, table)
                                assert got == want, (label, name, kf, kt,
                                                     n, ell, lam)
                    coeffs = rand_elems(rng, field, ell)
                    fwd = oracle_convert(field, "lch_twisted", "monomial",
                                         beta, 0, ell, coeffs)
                    rev = oracle_convert(field, "monomial", "lch_twisted",
                                         beta, 0, ell, coeffs)
                    for name, table in tables.items():
                        buf = CoeffBuffer(coeffs)
                        x2m(0, ell, buf.view(ell), table)
                        assert buf.data == fwd, (label, name, n, ell)
                        buf = CoeffBuffer(coeffs)
                        m2x(0, ell, buf.view(ell), table)
                        assert buf.data == rev, (label, name, n, ell)


def test_criterion_2_mixed_l2x():
    with criterion(2, "all truncated/mixed L2X shapes match the oracle"):
        families = []
        for n in range(1, 6):
            families.append((GF16, construct_cantor(GF16, n),
                             build_cantor_tree(n)))
            families.append((GF13, random_basis(GF13, n, random.Random(n)),
                             build_trivial(n)))
        for field, beta, tree in families:
            table = build_tables(field, tree, beta)
            n = len(beta)
            size = 1 << n
            rng = random.Random(2000 + n)
            for lam in (0, rng.randrange(field.order)):
                phi = initial_phi_vector(field, tree, table.bases, lam)
                for ell in range(1, size + 1):
                    for c in range(ell + 1):
                        for b in (0, 1):
                            if not 1 <= b + c <= size:
                                continue
                            inputs = rand_elems(rng, field, ell)
                            want = oracle_l2x_mixed(field, beta, lam, c, ell,
                                                    b, inputs)
                            buf = CoeffBuffer(inputs + [0] * (size - ell))
                            l2x(0, list(phi), c, ell, b, buf.view(), table)
                            assert buf.data[:c] == want[:c], (n, lam, c, ell, b)
                            if b:
                                assert buf.data[c] == want[-1], (n, lam, c,
                                                                 ell, b)


def test_criterion_3_round_trips():
    with criterion(3, "inverse pairs compose to the identity"):
        pairs = (("newton", "lch"), ("lagrange", "lch"), ("monomial", "lch"),
                 ("monomial", "newton"), ("monomial", "lagrange"))
        for n in range(1, 11):
            size = 1 << n
            beta = construct_cantor(GF16, n)
            tree = build_cantor_tree(n)
            table = build_tables(GF16, tree, beta)
            rng = random.Random(3000 + n)
            for ka, kb in pairs:
                for trial in range(100):
                    # Cycle ell below 2^7 so small n sweep every length.
                    ell = (trial % size) + 1 if n <= 6 \
                        else rng.randrange(1, size + 1)
                    lam = rng.randrange(GF16.order)
                    coeffs = rand_elems(rng, GF16, ell)
                    mid, _ = convert(GF16, ka, kb, beta, tree, lam, ell,
                                     coeffs, table)
                    back, _ = convert(GF16, kb, ka, beta, tree, lam, ell,
                                      mid, table)
                    assert back == coeffs, (ka, kb, n, ell)
            for trial in range(100):
                ell = (trial % size) + 1 if n <= 6 \
                    else rng.randrange(1, size + 1)
                coeffs = rand_elems(rng, GF16, ell)
                buf = CoeffBuffer(coeffs)
                x2m(0, ell, buf.view(ell), table)
                m2x(0, ell, buf.view(ell), table)
                assert buf.data == coeffs, (n, ell)
                t = 2 << random.Random(trial).randrange(max(n - 1, 1))
                data = list(coeffs)
                view = CoeffBuffer(data).view(ell)
                taylor_expand(t, ell, view)
                taylor_inverse(t, ell, view)
                assert [view[i] for i in range(ell)] == coeffs, (n, ell, t)


def test_criterion_4_count_bounds():
    with criterion(4, "counts stay within the closed-form bounds"):
        for n in range(1, 16):
            beta = construct_cantor(GF16, n)
            for tree in (build_trivial(n), build_cantor_tree(n)):
                model = CountModel(build_tables(GF16, tree, beta))
                for ell in range(1, (1 << n) + 1):
                    adds, muls = model.transform("n2x", 0, ell, ell, 0)[:2]
                    assert adds <= bound("newton_add", ell=ell)
                    assert muls <= bound("newton_mul", ell=ell)
                    adds, muls = model.l2x(0, ell, ell, 0)
                    assert adds <= bound("lagrange_add", ell=ell)
                    assert muls <= bound("lagrange_mul", ell=ell)
                    adds, muls = model.x2l(0, ell, ell)
                    assert adds <= bound("x2l_add", c=ell, ell=ell, n=n)
                    assert muls <= bound("x2l_mul", c=ell, ell=ell, n=n)
                    adds, muls = model.transform("x2m", 0, ell, ell, 0)[:2]
                    assert adds <= bound("monomial_add", ell=ell)
                    assert muls <= bound("monomial_mul", ell=ell)
        for ell in range(1, (1 << 15) + 1):
            t = 2
            while t <= max(ell, 2):
                assert _taylor_adds(t, ell) <= bound("taylor_add", ell=ell, t=t)
                t <<= 1


def test_criterion_5_cantor_sharpenings():
    with criterion(5, "Cantor-basis sharpened bounds hold, with zero muls"):
        for n in range(1, 16):
            beta = construct_cantor(GF16, n)
            model = CountModel(build_tables(GF16, build_cantor_tree(n), beta))
            for ell in range(1, (1 << n) + 1):
                adds, _ = model.transform("n2x", 0, ell, ell, 0)[:2]
                assert adds <= bound("cantor_newton_add", ell=ell)
                adds, muls = model.transform("x2m", 0, ell, ell, 0)[:2]
                assert adds <= bound("cantor_monomial_add", ell=ell)
                assert muls == 0


def daggered_variants(field, text):
    """Tuples with one quadratic step switched to the trace-one pair, kept
    only when that pair differs from the default power pair."""
    degs = [int(tok) for tok in text.split("-")]
    out = []
    for k, (lo, hi) in enumerate(zip(degs, degs[1:])):
        if hi != 2 * lo:
            continue
        if make_quadratic_trace_basis(field, lo) == \
                subfield_basis_powers(field, lo, hi):
            continue
        toks = [str(d) for d in degs]
        toks[k + 1] += "!"
        out.append("-".join(toks))
    return out


def test_criterion_6_curve_ordering():
    with criterion(6, "tree and basis choices order the curves as expected"):
        beta15 = construct_cantor(GF16, 15)
        trivial = CountModel(build_tables(GF16, build_trivial(15), beta15))
        cantor = CountModel(build_tables(GF16, build_cantor_tree(15), beta15))
        for ell in range(1, (1 << 15) + 1):
            assert trivial.transform("n2x", 0, ell, ell, 0)[0] >= \
                cantor.transform("n2x", 0, ell, ell, 0)[0]
            assert trivial.l2x(0, ell, ell, 0)[0] >= cantor.l2x(0, ell, ell, 0)[0]
            assert trivial.x2l(0, ell, ell)[0] >= cantor.x2l(0, ell, ell)[0]

        strict_found = False
        for text in TOWER_TUPLES:
            tower = tower_from_string(GF12, text)
            beta = construct_tower_basis(GF12, tower, 12)
            tree_max = build_max_tree(12, tower.degrees)
            flat = CountModel(build_tables(GF12, build_trivial(12), beta))
            best = CountModel(build_tables(GF12, tree_max, beta))
            for ell in range(1, 4097):
                assert best.transform("n2x", 0, ell, ell, 0)[0] <= \
                    flat.transform("n2x", 0, ell, ell, 0)[0], (text, ell)
                assert best.l2x(0, ell, ell, 0)[0] <= \
                    flat.l2x(0, ell, ell, 0)[0], (text, ell)
                assert best.x2l(0, ell, ell)[0] <= \
                    flat.x2l(0, ell, ell)[0], (text, ell)
                assert best.transform("x2m", 0, ell, ell, 0)[0] <= \
                    flat.transform("x2m", 0, ell, ell, 0)[0], (text, ell)
            for var in daggered_variants(GF12, text):
                dag_tower = tower_from_string(GF12, var)
                dag_beta = construct_tower_basis(GF12, dag_tower, 12)
                dag = CountModel(build_tables(GF12, tree_max, dag_beta))
                strict = False
                for ell in range(1, 4097):
                    plain_m = best.transform("x2m", 0, ell, ell, 0)[1]
                    dag_m = dag.transform("x2m", 0, ell, ell, 0)[1]
                    assert dag_m <= plain_m, (var, ell)
                    strict = strict or dag_m < plain_m
                assert strict, var
                strict_found = True
        assert strict_found


def test_criterion_7_tree_characterization():
    with criterion(7, "validity matches the degree-image characterizations"):
        for n in range(1, 7):
            beta = construct_cantor(GF16, n)
            for tree in enumerate_trees(n):
                image = set(tree.degree_image())
                expect = all(d == 0 or (d & (d - 1)) == 0 for d in image)
                assert validate(GF16, tree, beta) == expect, tree.serialize()
        for n in range(1, 7):
            for seed in range(3):
                beta = random_basis(GF13, n, random.Random(50 * n + seed))
                for tree in enumerate_trees(n):
                    expect = set(tree.degree_image()) <= {0, 1}
                    assert validate(GF13, tree, beta) == expect, \
                        (n, seed, tree.serialize())


def test_criterion_8_construction_properties():
    with criterion(8, "generalized constructions have the promised structure"):
        from math import comb

        for t, max_m in ((1, 3), (2, 2)):
            theta = subfield_basis_powers(GF8, 1, t)
            for m_levels in range(1, max_m + 1):
                beta = construct_gen_cantor(GF8, m_levels, t, theta)
                assert len(beta) == (1 << m_levels) * t
                assert beta[:t] == theta
                assert is_independent(beta)
                for k in range(m_levels + 1):
                    block = (1 << k) * t
                    assert all(GF8.in_subfield(b, block) for b in beta[:block])
                for k in range(m_levels):
                    stride = (1 << k) * t
                    for i in range(len(beta) - stride):
                        hi = beta[i + stride]
                        assert beta[i] == GF8.pow2k(hi, stride) ^ hi
                for j in range(5):
                    for i in range(len(beta) - j * t):
                        acc = 0
                        for r in range(j + 1):
                            if comb(j, r) & 1:
                                acc ^= GF8.pow2k(beta[i + j * t], r * t)
                        assert acc == beta[i]

        for text, nt in (("1-2!-12", 1), ("1-2-4!-12", 2)):
            tower = tower_from_string(GF12, text)
            beta = construct_tower_basis(GF12, tower, 12)
            tree = build_max_tree(12, tower.degrees)
            table = build_tables(GF12, tree, beta)
            hits = 0
            for v in tree.internal_vertices():
                if tree.d_of(v) == nt:
                    assert table.delta_head(v) == 1
                    hits += 1
            assert hits > 0

        def root_shift_columns(table):
            # Nonzero lam-free shift columns over the root's leaves: one per
            # pair of leaves, at their lowest common ancestor.
            return sum(sum(1 for col in cols if col) for cols in _lin_columns(table, 0))

        for n in range(2, 7):
            beta = construct_cantor(GF8, n)
            for tree in enumerate_trees(n):
                if validate(GF8, tree, beta):
                    table = build_tables(GF8, tree, beta)
                    assert root_shift_columns(table) == n * (n - 1) // 2
        tower = tower_from_string(GF12, "1-2-4-12")
        beta = construct_tower_basis(GF12, tower, 12)
        table = build_tables(GF12, build_max_tree(12, tower.degrees), beta)
        assert root_shift_columns(table) == 66


def valid_root_degrees(field, beta):
    n = len(beta)
    out = []
    for d in range(1, n):
        shape = (build_trivial(d).to_shape(), build_trivial(n - d).to_shape())
        if validate(field, ReductionTree.from_shape(shape), beta):
            out.append(d)
    return out


def test_criterion_9_factorization_identities():
    with criterion(9, "every valid split factors the basis polynomials"):
        tower = tower_from_string(GF12, "1-2-4-12")
        families = []
        for n in range(2, 6):
            families.append((GF16, construct_cantor(GF16, n)))
            families.append((GF12, construct_tower_basis(GF12, tower, n)))
            families.append((GF13, random_basis(GF13, n, random.Random(n))))
        checked = 0
        for field, beta in families:
            n = len(beta)
            degrees = valid_root_degrees(field, beta)
            assert degrees, (field.degree, n)
            for d in degrees:
                alpha = alpha_of(beta, d)
                delta = delta_of(field, beta, d)
                gamma = beta[d:]
                inv0 = field.inv(beta[0])
                psi = [0] * ((1 << d) + 1)
                psi[1] = inv0
                psi[1 << d] = field.pow2k(inv0, d)
                psi = poly_trim(psi)
                for idx in range(1 << n):
                    i, j = divmod(idx, 1 << d)
                    w_gamma = enumerate_point(gamma, i)
                    for kind in ("lagrange", "newton", "lch"):
                        whole = basis_poly(field, kind, beta, idx)
                        outer = poly_compose(field,
                                             basis_poly(field, kind, delta, i),
                                             psi)
                        inner = basis_poly(field, kind, alpha, j)
                        if kind != "lch":
                            inner = poly_shift(field, inner, w_gamma)
                        assert whole == poly_mul(field, outer, inner), \
                            (field.degree, n, d, idx, kind)
                        checked += 1
        assert checked
