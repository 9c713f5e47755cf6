import random
from itertools import accumulate
from operator import xor

import pytest

from binbasis.basisgen import (
    construct_cantor,
    construct_tower_basis,
    delta_of,
    enumerate_point,
    is_independent,
    random_basis,
    tower_from_string,
)
from binbasis.cli import build_basis, build_tree
from binbasis.field import get_field
from binbasis.precomp import (
    build_tables,
    initial_phi_vector,
    phi_vector,
    transport,
)
from binbasis.redtree import (
    ReductionTree,
    build_cantor_tree,
    build_max_tree,
    build_trivial,
    enumerate_trees,
    validate,
)
from binbasis.transforms import _lin_columns


def phi_recursive(field, tree, bases, v, u, lam):
    # Independent reference for the derived-value checks.
    if tree.is_leaf(v):
        return field.mul(lam, field.inv(bases[v][0]))
    a = tree.alpha[v]
    if u < tree.leaf_start[a] + tree.size[a]:
        return phi_recursive(field, tree, bases, a, u, lam)
    q = field.mul(lam, field.inv(bases[v][0]))
    lam = field.pow2k(q, tree.d_of(v)) ^ q
    return phi_recursive(field, tree, bases, tree.delta[v], u, lam)


def test_vertex_bases_single_leaf():
    f = get_field(8)
    tree = build_trivial(1)
    assert build_tables(f, tree, (0x53,)).bases == ((0x53,),)


def test_vertex_bases_cantor_prefix():
    f = get_field(8)
    beta = construct_cantor(f, 6)
    for tree in (build_cantor_tree(6), build_trivial(6)):
        bases = build_tables(f, tree, beta).bases
        for v in tree.vertices():
            assert bases[v] == beta[:tree.size[v]]


def test_vertex_bases_delta_chain():
    f = get_field(13)
    beta = random_basis(f, 3, random.Random(50))
    tree = build_trivial(3)
    bases = build_tables(f, tree, beta).bases
    step1 = delta_of(f, beta, 1)
    step2 = delta_of(f, step1, 1)
    assert bases[tree.delta[0]] == step1
    assert bases[tree.delta[tree.delta[0]]] == step2


def test_vertex_bases_rejects_invalid_pair():
    f = get_field(8)
    g = f.primitive_element()
    beta = tuple(pow_chain(f, g, 4))
    tree = build_cantor_tree(4)
    assert not validate(f, tree, beta)
    with pytest.raises(ValueError, match="splitting conditions"):
        build_tables(f, tree, beta)


def test_vertex_bases_report_basis_length():
    # A basis of the wrong length was reported as failing the tree's
    # splitting conditions.
    f = get_field(16)
    with pytest.raises(ValueError, match="basis has 3 entries, expected 4"):
        build_tables(f, build_cantor_tree(4), construct_cantor(f, 3))
    with pytest.raises(ValueError, match="basis has 5 entries, expected 4"):
        build_tables(f, build_trivial(4), construct_cantor(f, 5))


def test_bad_basis_entries_raise_value_error():
    # A zero entry raised ZeroDivisionError from a head inversion, and a
    # float one TypeError, in build_tables and validate alike.
    f = get_field(8)
    tree = build_trivial(3)
    for beta, what in (((0, 1, 2), "dependent"), ((1, 0, 2), "dependent"),
                       ((1, 2, 3), "dependent"), ((1, 2.0, 4), "outside GF"),
                       ((1, 2, 256), "outside GF"), ((1, -2, 4), "outside GF")):
        for call in (validate, build_tables):
            with pytest.raises(ValueError, match=what):
                call(f, tree, beta)


@pytest.mark.parametrize("degree, configs", [
    (16, (("cantor", "cantor", 16), ("random:1", "trivial", 12),
          ("tower:1-2-4-8-16", "max:1-2-4-8-16", 16),
          ("tower:1-2-4-8-16", "balanced:1-2-4-8-16", 16), ("gencantor:2", "graft:2", 12))),
    (24, (("cantor", "cantor", 8), ("random:1", "trivial", 12),
          ("tower:1-2-4-8-24", "max:1-2-4-8-24", 12),
          ("tower:1-3-6-12-24", "balanced:1-3-6-12-24", 24), ("gencantor:3", "graft:3", 12))),
    (32, (("cantor", "cantor", 16), ("random:1", "trivial", 16),
          ("tower:1-2-4-8-16-32", "max:1-2-4-8-16-32", 20),
          ("tower:1-2-4-8-16-32", "balanced:1-2-4-8-16-32", 20), ("gencantor:4", "graft:4", 16))),
])
def test_vertex_bases_stay_independent(degree, configs):
    # Under the splitting condition the quotients b_i/b_0, i < d, span
    # GF(2^d), the kernel of q -> q^(2^d) - q, so the delta child's image
    # of an independent suffix is independent: build_tables checks the root
    # basis only.
    f = get_field(degree)
    for source, strategy, n in configs:
        tree = build_tree(strategy, n)
        table = build_tables(f, tree, build_basis(f, source, n))
        for v in tree.vertices():
            assert len(table.bases[v]) == tree.size[v]
            assert is_independent(table.bases[v]), (source, strategy, v)


def pow_chain(field, g, n):
    x = 1
    for _ in range(n):
        yield x
        x = field.mul(x, g)


def test_phi_leaf_and_zero():
    f = get_field(12)
    rng = random.Random(51)
    beta = random_basis(f, 4, rng)
    tree = build_trivial(4)
    table = build_tables(f, tree, beta)
    assert transport(table, 0, [0]) == [[0]] * 4
    leaf = tree.alpha[0]
    lam = rng.randrange(f.order)
    assert transport(table, leaf, [lam]) == [[f.mul(lam, f.inv(table.bases[leaf][0]))]]
    # A vertex outside the tree raised IndexError.
    for v in (-1, 7, 99, 1.0, None):
        with pytest.raises(ValueError, match="not a vertex"):
            transport(table, v, [1])


def test_phi_is_linear():
    f = get_field(12)
    rng = random.Random(52)
    beta = random_basis(f, 5, rng)
    tree = build_trivial(5)
    table = build_tables(f, tree, beta)
    for _ in range(10):
        l1 = rng.randrange(f.order)
        l2 = rng.randrange(f.order)
        rows = transport(table, 0, [l1, l2, l1 ^ l2])
        assert len(rows) == 5
        for x1, x2, x12 in rows:
            assert x12 == x1 ^ x2


def test_phi_delegation_cases():
    f = get_field(8)
    beta = construct_cantor(f, 6)
    tree = build_cantor_tree(6)
    table = build_tables(f, tree, beta)
    rng = random.Random(53)
    v = 0
    a, d = tree.alpha[v], tree.delta[v]
    dv = tree.d_of(v)
    for _ in range(5):
        lam = rng.randrange(f.order)
        q = f.mul(lam, f.inv(table.bases[v][0]))
        mapped = f.pow2k(q, dv) ^ q
        assert transport(table, v, [lam]) == \
            transport(table, a, [lam]) + transport(table, d, [mapped])


def test_phi_transport_one_row_per_leaf():
    f = get_field(8)
    beta = construct_cantor(f, 3)
    tree = build_trivial(3)
    table = build_tables(f, tree, beta)
    for v in tree.vertices():
        assert len(transport(table, v, [1, 2])) == tree.size[v]


def test_phi_cantor_delta_kills_low_directions():
    f = get_field(8)
    beta = construct_cantor(f, 8)
    tree = build_cantor_tree(8)
    table = build_tables(f, tree, beta)
    for v in tree.internal_vertices():
        dv = tree.d_of(v)
        rows = transport(table, v, table.bases[v][:dv])
        # The delta child's leaves come after the alpha child's dv leaves.
        assert rows[dv:] and all(x == 0 for row in rows[dv:] for x in row)


def root_shift_columns(table):
    """Nonzero lam-free shift columns over every leaf of the root: one per
    pair of leaves, at their lowest common ancestor, where the alpha-side
    leaf sees the delta-side one's basis element."""
    return sum(sum(1 for col in cols if col) for cols in _lin_columns(table, 0))


def test_table_sizes():
    f16 = get_field(16)
    table = build_tables(f16, build_cantor_tree(15), construct_cantor(f16, 15))
    assert root_shift_columns(table) == 105
    f8 = get_field(8)
    assert root_shift_columns(build_tables(f8, build_trivial(1), (1,))) == 0
    beta2 = random_basis(f8, 2, random.Random(54))
    assert root_shift_columns(build_tables(f8, build_trivial(2), beta2)) == 1
    beta = construct_cantor(f8, 6)
    for tree in enumerate_trees(6):
        if validate(f8, tree, beta):
            assert root_shift_columns(build_tables(f8, tree, beta)) == 15


def test_table_values_match_reference():
    # Column j of a leaf's lam-free shift at vertex v is phi_v(leaf,
    # beta_{v,j}), and 0 at the leaf's own index.  GF(2^32) random/trivial
    # has a head other than 1 at every vertex and multiplies by the windowed
    # kernel.
    f12, f32 = get_field(12), get_field(32)
    tower = tower_from_string(f12, "1-2-4-12")
    cases = ((f12, build_max_tree(10, tower.degrees), construct_tower_basis(f12, tower, 10)),
             (f32, build_trivial(8), random_basis(f32, 8, random.Random(57))))
    for f, tree, beta in cases:
        table = build_tables(f, tree, beta)
        if f is f32:
            assert all(h != 1 for h in table.head)
        for v in tree.vertices():
            lo = tree.leaf_start[v]
            cols = _lin_columns(table, v)
            assert len(cols) == tree.size[v]
            for u in range(lo, lo + tree.size[v]):
                want = [phi_recursive(f, tree, table.bases, v, u, b) for b in table.bases[v]]
                want[u - lo] = 0
                assert cols[u - lo] == want, (f.degree, v, u)


def test_cantor_delta_heads_are_one():
    f = get_field(16)
    beta = construct_cantor(f, 12)
    for tree in (build_cantor_tree(12), build_trivial(12)):
        table = build_tables(f, tree, beta)
        for v in tree.internal_vertices():
            assert table.delta_head(v) == 1
            assert table.delta_head_inv(v) == 1


def test_trace_one_tower_delta_heads():
    f = get_field(12)
    for text, nt in (("1-2!-12", 1), ("1-2-4!-12", 2)):
        tower = tower_from_string(f, text)
        beta = construct_tower_basis(f, tower, 12)
        tree = build_max_tree(12, tower.degrees)
        table = build_tables(f, tree, beta)
        hits = 0
        for v in tree.internal_vertices():
            if tree.d_of(v) == nt:
                assert table.delta_head(v) == 1
                hits += 1
        assert hits > 0


def test_gray_telescoping():
    cases = []
    f8 = get_field(8)
    cases.append((f8, construct_cantor(f8, 4), build_cantor_tree(4)))
    f13 = get_field(13)
    cases.append((f13, random_basis(f13, 5, random.Random(55)), build_trivial(5)))
    for f, beta, tree in cases:
        table = build_tables(f, tree, beta)
        for v in tree.internal_vertices():
            gamma = table.bases[v][tree.d_of(v):]
            # sigma_j = gamma_0 + ... + gamma_j, the ruler-step increments.
            sigma = list(accumulate(gamma, xor))
            acc = 0
            for i in range(1 << len(gamma)):
                assert acc == enumerate_point(gamma, i)
                if i + 1 < (1 << len(gamma)):
                    j = 0
                    while (i >> j) & 1:
                        j += 1
                    acc ^= sigma[j]


def test_initial_phi_vector():
    f = get_field(12)
    rng = random.Random(56)
    beta = random_basis(f, 5, rng)
    tree = build_trivial(5)
    table = build_tables(f, tree, beta)
    bases = table.bases
    assert initial_phi_vector(f, tree, bases, 0) == [0] * 5
    one = ReductionTree.parse("*")
    assert initial_phi_vector(f, one, ((beta[0],),), 7) == [f.mul(7, f.inv(beta[0]))]
    l1 = rng.randrange(f.order)
    l2 = rng.randrange(f.order)
    v1 = initial_phi_vector(f, tree, bases, l1)
    v2 = initial_phi_vector(f, tree, bases, l2)
    v12 = initial_phi_vector(f, tree, bases, l1 ^ l2)
    assert v12 == [a ^ b for a, b in zip(v1, v2)]
    assert v1 == [phi_recursive(f, tree, bases, 0, u, l1) for u in range(5)]
    # A float lam raised TypeError ("list indices must be integers").
    for lam in (-1, f.order, 2.0, 1.5, "1"):
        with pytest.raises(ValueError, match=f"lam {lam} outside GF"):
            initial_phi_vector(f, tree, bases, lam)
        with pytest.raises(ValueError, match=f"lam {lam} outside GF"):
            phi_vector(table, lam)


def test_phi_vector_reads_table_heads():
    # phi_vector reads the table's inverted heads; initial_phi_vector
    # inverts the heads of the bases itself.  Both give one vector.
    f = get_field(32)
    rng = random.Random(58)
    tree = build_trivial(10)
    table = build_tables(f, tree, random_basis(f, 10, rng))
    assert all(h != 1 for h in table.head)
    for lam in (0, 1, rng.randrange(2, f.order)):
        want = initial_phi_vector(f, tree, table.bases, lam)
        assert phi_vector(table, lam) == want
        assert want == [phi_recursive(f, tree, table.bases, 0, u, lam) for u in range(10)]
