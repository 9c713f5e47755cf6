import random

import pytest

from binbasis.field import (
    Field,
    _poly_mod_gf2,
    _poly_mul_gf2,
    canonical_modulus,
    element_from_hex,
    element_to_hex,
    get_field,
    is_irreducible,
)


def reference_mul(a, b, modulus):
    """Bit-serial carry-less product and remainder: the independent reference."""
    return _poly_mod_gf2(_poly_mul_gf2(a, b), modulus)


def moduli_under_test(degree):
    """Every irreducible modulus of degree <= 4.  Above, the canonical and
    the largest one, one from a seeded search, and at m = 32 the dense
    0x187c56473."""
    if degree <= 4:
        return [c for c in range(1 << degree, 2 << degree) if is_irreducible(c, degree)]
    out = {canonical_modulus(degree)}
    top = (2 << degree) - 1
    while not is_irreducible(top, degree):
        top -= 1
    out.add(top)
    rng = random.Random(degree)
    while len(out) < 3:
        candidate = rng.randrange(1 << degree, 2 << degree)
        if is_irreducible(candidate, degree):
            out.add(candidate)
    if degree == 32:
        out.add(0x187C56473)
    return sorted(out)


def test_canonical_modulus_gf256_is_0x11b():
    assert canonical_modulus(8) == 0x11B


def test_canonical_modulus_has_top_bit():
    for m in (1, 2, 3, 4, 8, 12, 13, 16):
        mod = canonical_modulus(m)
        assert mod.bit_length() - 1 == m
        assert is_irreducible(mod, m)


def test_irreducibility_rejects_products():
    # (x^2+x+1)^2 = x^4+x^2+1 and x*(x+1) are reducible.
    assert not is_irreducible(0b10101, 4)
    assert not is_irreducible(0b110, 2)
    assert is_irreducible(0b111, 2)


def test_spec_string_round_trip():
    f = Field(8, 0x11B)
    assert f.spec_string() == "8:0x11b"
    assert Field.parse_spec("8:0x11B") == (8, 0x11B)
    assert get_field(*Field.parse_spec(f.spec_string())) == f
    for text in ("8-0x11b", "8:11b"):
        with pytest.raises(ValueError, match="bad field spec"):
            Field.parse_spec(text)


def test_gf4_known_values():
    f = Field(2, 0b111)
    assert f.mul(0x2, 0x2) == 0x3
    assert f.inv(0x2) == 0x3
    assert f.pow2k(0x2, 1) == 0x3
    assert f.mul(0x2, 0x3) == 0x1


def test_mul_identity_and_zero():
    f = get_field(12)
    rng = random.Random(1)
    for _ in range(50):
        a = rng.randrange(f.order)
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0


def test_inv_of_zero_raises():
    f = get_field(8)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    assert f.inv(1) == 1


def test_inv_rejects_non_elements():
    for f in (get_field(8), get_field(16), get_field(32)):
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        for a in (-1, -f.order, f.order, f.order + 1, f.modulus, f.modulus << 3):
            with pytest.raises(ValueError):
                f.inv(a)


@pytest.mark.parametrize("degree", [16, 32])
def test_mul_kernel_rejects_non_elements(degree):
    # Above GF(2^16) Field.mul is the windowed kernel.  Unchecked, a negative
    # operand never ends its window loop and one >= 2^m gives a wrong element.
    # Up to GF(2^16) the log-table lookup once read -1 as the last log entry
    # and raised IndexError at 2^m; pow read a negative base the same way.
    f = get_field(degree)
    top = 1 << degree
    for a, b in ((3, top), (-1, 3), (3, -1), (top, top), (0, top), (-1, 0), (0, -3)):
        with pytest.raises(ValueError):
            f.mul(a, b)
    for a in (-1, top):
        with pytest.raises(ValueError):
            f.pow(a, 3)
    assert f.mul(0, top - 1) == 0 and f.pow(0, 3) == 0


def test_mul_matches_raw_path():
    # Table-driven multiplication agrees with the bit-serial reference.
    f = get_field(12)
    rng = random.Random(2)
    for _ in range(200):
        a = rng.randrange(f.order)
        b = rng.randrange(f.order)
        assert f.mul(a, b) == reference_mul(a, b, f.modulus)


@pytest.mark.parametrize("degree", range(1, 33))
def test_mul_kernel_and_inv_match_reference(degree):
    # The windowed kernel builds the log tables for m <= 16 and serves every
    # product above; inv is the table lookup or the Euclidean loop.
    rng = random.Random(degree)
    top = (1 << degree) - 1
    small = [s for s in (1, 2, 3, 7, 15, 16, 17, 255) if s <= top]
    for modulus in moduli_under_test(degree):
        f = Field(degree, modulus)
        pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(100)]
        pairs += [(a, b) for a in (0, 1, top) for b in (0, 1, top)]
        pairs += [(s, rng.randrange(f.order)) for s in small]
        pairs += [(b, a) for a, b in pairs]
        for a, b in pairs:
            expect = reference_mul(a, b, modulus)
            assert f._mul_raw(a, b) == expect, (hex(modulus), a, b)
            assert f.mul(a, b) == expect, (hex(modulus), a, b)
        for a in {a for a, _ in pairs} - {0}:
            assert reference_mul(a, f.inv(a), modulus) == 1, (hex(modulus), a)


def test_field_axioms_exhaustive_gf16():
    f = get_field(4)
    elems = range(f.order)
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == f.mul(b, a)
            for c in (0, 1, 7, 11):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_field_axioms_sampled_gf2_32():
    f = Field(32)
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = (rng.randrange(f.order) for _ in range(3))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_inv_round_trip():
    f = get_field(13)
    rng = random.Random(4)
    for _ in range(100):
        a = rng.randrange(1, f.order)
        assert f.mul(a, f.inv(a)) == 1


def test_pow2k_is_iterated_squaring_and_linear():
    f = get_field(12)
    rng = random.Random(5)
    for _ in range(50):
        a = rng.randrange(f.order)
        b = rng.randrange(f.order)
        d = rng.randrange(0, 13)
        assert f.pow2k(a, 0) == a
        assert f.pow2k(1, d) == 1
        assert f.pow2k(a ^ b, d) == f.pow2k(a, d) ^ f.pow2k(b, d)
        assert f.pow2k(a, d) == f.pow(a, 1 << d)
    for call in (lambda: f.pow(3, -1), lambda: f.pow2k(3, -1)):
        with pytest.raises(ValueError, match="negative"):
            call()


def test_subfield_membership_counts():
    # GF(2^d) has exactly 2^d elements inside GF(2^m).
    for m in (4, 6, 8):
        f = get_field(m)
        for d in range(1, m + 1):
            if m % d:
                continue
            count = sum(f.in_subfield(a, d) for a in range(f.order))
            assert count == 1 << d


def test_in_subfield_rejects_non_divisor():
    f = get_field(8)
    with pytest.raises(ValueError):
        f.in_subfield(3, 3)


def test_gf16_subfield_generator_has_order_three():
    f = get_field(4)
    xi = f.subfield_generator(2)
    assert xi == f.pow(f.primitive_element(), 5)
    assert f.in_subfield(xi, 2)
    assert not f.in_subfield(xi, 1)
    assert f.pow(xi, 3) == 1 and xi != 1


def test_subfield_generator_edges():
    f = get_field(6)
    assert f.subfield_generator(6) == f.primitive_element()
    assert f.subfield_generator(1) == 1
    with pytest.raises(ValueError):
        f.subfield_generator(4)


def test_primitive_element_has_full_order():
    for m in (1, 2, 8, 12):
        f = get_field(m)
        g = f.primitive_element()
        n = f.order - 1
        seen = 1
        t = g
        # Bounded, so a wrong multiply whose powers never reach 1 fails here.
        for _ in range(f.order):
            if t == 1:
                break
            t = f.mul(t, g)
            seen += 1
        assert t == 1 and seen == max(n, 1)


def test_trace_of_one_in_quadratic_extension_is_zero():
    for m, s in ((4, 2), (8, 4), (12, 6)):
        f = get_field(m)
        assert f.trace_rel(1, s, 2 * s) == 0


def test_trace_properties():
    f = get_field(12)
    rng = random.Random(6)
    # Tr from the field itself is the identity; trace of 0 is 0.
    for _ in range(20):
        a = rng.randrange(f.order)
        assert f.trace_rel(a, 12, 12) == a
    assert f.trace_rel(0, 2, 12) == 0
    # Result lies in the target subfield and the map is GF(2^s)-linear.
    for _ in range(40):
        a = rng.randrange(f.order)
        b = rng.randrange(f.order)
        t = f.trace_rel(a, 3, 12)
        assert f.in_subfield(t, 3)
        assert f.trace_rel(a ^ b, 3, 12) == t ^ f.trace_rel(b, 3, 12)


def test_trace_tower_composition():
    # Tr_{12->1} = Tr_{3->1} o Tr_{12->3}.
    f = get_field(12)
    rng = random.Random(7)
    for _ in range(40):
        a = rng.randrange(f.order)
        assert f.trace_rel(a, 1, 12) == f.trace_rel(f.trace_rel(a, 3, 12), 1, 3)


def test_trace_surjective_onto_subfield():
    f = get_field(8)
    images = {f.trace_rel(a, 2, 8) for a in range(f.order)}
    assert images == {a for a in range(f.order) if f.in_subfield(a, 2)}


def test_trace_domain_errors():
    f = get_field(12)
    with pytest.raises(ValueError):
        f.trace_rel(1, 2, 5)  # 2 does not divide 5
    with pytest.raises(ValueError):
        f.trace_rel(1, 2, 8)  # 8 does not divide 12
    with pytest.raises(ValueError, match=r"need 4 \| 6"):
        f.trace_rel(1, 4, 6)
    g = get_field(8)
    with pytest.raises(ValueError):
        # primitive element generates the whole field, not GF(2^4)
        g.trace_rel(g.primitive_element(), 2, 4)
    # A zero degree once raised ZeroDivisionError.
    for sub_deg, sup_deg in ((0, 4), (1, 0), (0, 0)):
        with pytest.raises(ValueError):
            get_field(16).trace_rel(1, sub_deg, sup_deg)


def test_element_hex_round_trip():
    assert element_to_hex(0x1A) == "1a"
    assert element_from_hex("1a") == 0x1A
    assert element_from_hex("0") == 0
    with pytest.raises(ValueError):
        element_from_hex("xyz")
    with pytest.raises(ValueError, match="negative element"):
        element_from_hex("-1")


def test_get_field_is_cached():
    assert get_field(16) is get_field(16)
    f = get_field(16)
    assert get_field(16, f.modulus) is f


def test_bad_degree_and_modulus():
    with pytest.raises(ValueError):
        Field(0)
    with pytest.raises(ValueError):
        Field(33)
    with pytest.raises(ValueError, match="degree must be in 1..32, got 33"):
        get_field(33)  # canonical_modulus checks the range first
    with pytest.raises(ValueError):
        Field(8, 0x11D ^ 0x1)  # even constant term, divisible by x


def test_non_integer_degree_and_modulus():
    # A float or string degree raised TypeError, a float modulus
    # AttributeError, and Field(True) printed the spec 'True:0x2', which
    # does not parse back.  A float exponent or operand of pow and inv
    # raised TypeError on GF(2^16)'s tables, and so did a float subfield
    # degree or Frobenius exponent.
    gf16, gf32 = get_field(16), get_field(32)  # a cached canonical modulus must not serve 16.0
    for call in (lambda: Field(16.0), lambda: get_field(16.0), lambda: Field("16"),
                 lambda: canonical_modulus(16.0), lambda: Field(16, 65579.0),
                 lambda: get_field(16, 65579.0), lambda: Field(16, "65579"),
                 lambda: gf16.pow(3, 1.5), lambda: gf16.pow(3.0, 2), lambda: gf16.inv(3.0),
                 lambda: gf32.pow(3, 1.5), lambda: gf32.inv(3.0),
                 lambda: gf16.in_subfield(3, 2.0), lambda: gf16.pow2k(3, 1.5),
                 lambda: gf16.subfield_generator(4.0), lambda: gf16.trace_rel(3, 1, 2.0)):
        with pytest.raises(ValueError, match="expected integer"):
            call()
    f = Field(True)
    assert f.spec_string() == Field(1).spec_string() == "1:0x2"  # x is irreducible
    assert Field(*Field.parse_spec(f.spec_string())) == f == get_field(True)
    assert Field(16, True << 16 | 0x2B) == get_field(16)


@pytest.mark.parametrize("degree", range(1, 17))
def test_tables_match_one_product_per_power(degree):
    # The tables are built a block of 256 powers at a time.  0x14847's
    # smallest primitive element is 22, so its first block runs the
    # kernel's window path rather than its small-operand loop.
    moduli = moduli_under_test(degree) + ([0x14847] if degree == 16 else [])
    for modulus in moduli:
        f = Field(degree, modulus)
        n = f.order - 1
        g = f.primitive_element()
        exp, log = [0] * (2 * n), [0] * f.order
        t = 1
        for i in range(n):
            exp[i] = exp[i + n] = t
            log[t] = i
            t = f._mul_raw(t, g)
        assert t == 1
        assert f._exp == exp and f._log == log, hex(modulus)
        assert len(f._exp) == 2 * n and f._log[0] == 0
        assert all(f._exp[i + n] == f._exp[i] and f._log[f._exp[i]] == i for i in range(n))
