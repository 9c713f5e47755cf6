import random

import pytest

from binbasis.basisgen import (
    construct_cantor,
    construct_tower_basis,
    delta_of,
    make_tower,
    random_basis,
)
from binbasis.field import get_field
from binbasis.redtree import (
    LEAF,
    ReductionTree,
    build_balanced_tree,
    build_cantor_tree,
    build_max_tree,
    build_trivial,
    enumerate_trees,
    graft_cantor_tree,
    validate,
    vertex_bases,
)


def test_single_leaf_tree():
    tree = build_trivial(1)
    assert tree.n == 1
    assert tree.is_leaf(0)
    assert tree.d_of(0) == 0
    assert tree.serialize() == "*"
    assert tree.degree_image() == set()


def test_trivial_tree_is_a_comb():
    tree = build_trivial(5)
    assert tree.n == 5
    assert tree.degree_image() == {1}
    assert sum(1 for _ in tree.internal_vertices()) == 4
    assert tree.serialize() == "(*,(*,(*,(*,*))))"


def test_leaf_numbering_is_left_to_right():
    tree = ReductionTree.parse("((*,*),(*,*))")
    # Root covers leaves 0..3, first child 0..1, second child 2..3.
    assert tree.leaf_start[0] == 0
    a, d = tree.alpha[0], tree.delta[0]
    assert tree.leaf_start[a] == 0 and tree.size[a] == 2
    assert tree.leaf_start[d] == 2 and tree.size[d] == 2
    assert tree.d_of(0) == 2


def test_size_additivity():
    for tree in enumerate_trees(6):
        for v in tree.internal_vertices():
            assert tree.size[v] == tree.size[tree.alpha[v]] + tree.size[tree.delta[v]]
            assert tree.d_of(v) == tree.size[tree.alpha[v]]


def test_halving_tree_shapes():
    assert build_cantor_tree(2).serialize() == "(*,*)"
    tree = build_cantor_tree(15)
    assert tree.d_of(0) == 8
    a, d = tree.alpha[0], tree.delta[0]
    assert tree.size[a] == 8 and tree.d_of(a) == 4
    assert tree.size[d] == 7 and tree.d_of(d) == 4


def test_max_tree_choices():
    assert build_max_tree(5, {1}) == build_trivial(5)
    tree = build_max_tree(12, {1, 2, 4})
    assert tree.d_of(0) == 4
    # Degree never exceeds the largest allowed value.
    assert tree.degree_image() <= {1, 2, 4}
    with pytest.raises(ValueError):
        build_max_tree(4, {2, 4})


def test_balanced_tree_choices():
    tree = build_balanced_tree(8, {1, 2, 4})
    assert tree.d_of(0) == 4
    assert build_balanced_tree(6, {1}).degree_image() == {1}
    # Tie at size 4 between d=2 (max 2) wins over d=1 (max 3).
    assert build_balanced_tree(4, {1, 2}).d_of(0) == 2


def test_max_and_balanced_second_child_degree_never_grows():
    for degrees in ({1, 2}, {1, 3}, {1, 2, 4}, {1, 2, 6}, {1, 4}):
        for n in range(1, 13):
            for tree in (build_max_tree(n, degrees), build_balanced_tree(n, degrees)):
                for v in tree.internal_vertices():
                    d = tree.delta[v]
                    if not tree.is_leaf(d):
                        assert tree.d_of(d) <= tree.d_of(v)


def test_graft_with_unit_blocks_is_halving_tree():
    for n in (1, 2, 5, 8):
        base = [build_trivial(1) for _ in range(n)]
        assert graft_cantor_tree(1, n, base) == build_cantor_tree(n)


def test_graft_two_blocks():
    base = [ReductionTree.parse("(*,*)"), ReductionTree.parse("(*,*)")]
    tree = graft_cantor_tree(2, 4, base)
    assert tree.serialize() == "((*,*),(*,*))"
    assert tree.d_of(0) == 2


def test_graft_block_degrees_are_power_of_two_multiples():
    f = get_field(8)
    base = [build_trivial(2), build_trivial(2), build_trivial(2), build_trivial(1)]
    tree = graft_cantor_tree(2, 7, base)
    assert tree.n == 7
    # Outer split degrees are 2^k * t; base trees contribute degree 1.
    assert tree.degree_image() == {1, 2, 4}
    with pytest.raises(ValueError):
        graft_cantor_tree(2, 7, base[:3])
    with pytest.raises(ValueError):
        graft_cantor_tree(2, 7, [build_trivial(2)] * 4)


def test_enumerate_trees_catalan_counts():
    assert sum(1 for _ in enumerate_trees(1)) == 1
    assert sum(1 for _ in enumerate_trees(3)) == 2
    assert sum(1 for _ in enumerate_trees(5)) == 14
    seen = {t.serialize() for t in enumerate_trees(6)}
    assert len(seen) == 42
    with pytest.raises(ValueError):
        next(enumerate_trees(11))


def test_serialization_round_trip():
    for tree in enumerate_trees(5):
        assert ReductionTree.parse(tree.serialize()) == tree
    for bad in ("", "(*)", "(*,*", "(*,*))", "**", "(,*)"):
        with pytest.raises(ValueError):
            ReductionTree.parse(bad)


def test_parse_caps_nesting_depth():
    # A 32-leaf comb is the deepest tree any field can use: 31 levels.
    comb = build_trivial(32)
    assert ReductionTree.parse(comb.serialize()) == comb
    deeper = "(*," * 33 + "*" + ")" * 33
    for text in (deeper, "(" * 3000):
        with pytest.raises(ValueError, match="nested deeper"):
            ReductionTree.parse(text)


def test_validate_single_leaf_and_size_mismatch():
    f = get_field(8)
    tree = build_trivial(1)
    assert validate(f, tree, (7,))
    assert not validate(f, tree, (7, 9))


def test_trivial_trees_validate_any_basis():
    f = get_field(13)
    rng = random.Random(20)
    for n in (2, 5, 10):
        beta = random_basis(f, n, rng)
        assert validate(f, build_trivial(n), beta)


def test_validate_cantor_basis_split_degrees():
    f = get_field(8)
    beta = construct_cantor(f, 4)
    ok = ReductionTree.from_shape(((LEAF, LEAF), (LEAF, LEAF)))  # root d=2
    bad = ReductionTree.from_shape((((LEAF, LEAF), LEAF), LEAF))  # root d=3
    assert validate(f, ok, beta)
    assert not validate(f, bad, beta)
    assert validate(f, build_cantor_tree(8), construct_cantor(f, 8))


def test_validate_tower_basis_with_max_tree():
    f = get_field(12)
    tower = make_tower(f, (1, 2, 4, 12))
    for n in range(1, 13):
        beta = construct_tower_basis(f, tower, n)
        assert validate(f, build_max_tree(n, set(tower.degrees)), beta)
        assert validate(f, build_balanced_tree(n, set(tower.degrees)), beta)


def test_validate_scalar_invariance():
    f = get_field(12)
    tower = make_tower(f, (1, 3, 12))
    beta = construct_tower_basis(f, tower, 9)
    tree = build_max_tree(9, {1, 3})
    assert validate(f, tree, beta)
    rng = random.Random(21)
    for _ in range(5):
        w = rng.randrange(1, f.order)
        scaled = tuple(f.mul(w, b) for b in beta)
        assert validate(f, tree, scaled)


def test_prime_degree_field_admits_only_unit_splits():
    f = get_field(13)
    beta = random_basis(f, 5, random.Random(22))
    for tree in enumerate_trees(5):
        expected = tree.degree_image() <= {0, 1}
        assert validate(f, tree, beta) == expected


def test_vertex_bases_one_preorder_pass():
    f = get_field(13)
    beta = random_basis(f, 5, random.Random(22))
    assert vertex_bases(f, build_trivial(4), beta) is None
    for tree in enumerate_trees(5):
        bases = vertex_bases(f, tree, beta)
        # GF(2^13) has no subfield but GF(2), so only unit splits survive.
        assert (bases is None) == (tree.degree_image() > {1})
        if bases is None:
            continue
        assert bases[0] == beta
        for v in tree.internal_vertices():
            d = tree.d_of(v)
            assert bases[tree.alpha[v]] == bases[v][:d]
            assert bases[tree.delta[v]] == delta_of(f, bases[v], d)
