"""Field table construction against independent polynomial arithmetic."""

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from incalg import field
from incalg.errors import (DivisionByZero, NoPrimitiveRoot, NotFound,
                           UnsupportedField)
from incalg.field import (GF, QQ, field_from_flag, multiplicative_order,
                          power_by_squaring, primitive_root_of_unity,
                          roots_of_unity)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]
ALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37,
         41, 43, 47, 49, 53, 59, 61, 64]


# polynomial arithmetic oracle, written from scratch on purpose
def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) >= len(mod):
        lead = out[-1]
        if lead:
            shift = len(out) - len(mod)
            for i, mi in enumerate(mod):
                out[shift + i] = (out[shift + i] - lead * mi) % p
        out.pop()
    return out


def _digits(code, p, m):
    ds = []
    for _ in range(m):
        ds.append(code % p)
        code //= p
    return ds


def _code(ds, p):
    c = 0
    for d in reversed(ds):
        c = c * p + d
    return c


MODULI = {4: (2, [1, 1, 1]), 8: (2, [1, 1, 0, 1]), 9: (3, [2, 2, 1]),
          16: (2, [1, 1, 0, 0, 1]), 25: (5, [2, 4, 1]), 27: (3, [1, 2, 0, 1]),
          32: (2, [1, 0, 1, 0, 0, 1]), 49: (7, [3, 6, 1]),
          64: (2, [1, 1, 0, 1, 1, 0, 1])}


def _oracle_mul(q):
    """Multiplication of GF(q) codes: residues mod q for a prime q, the
    polynomial oracle for the sizes in MODULI."""
    if q not in MODULI:
        return lambda a, b: a * b % q
    p, mod = MODULI[q]
    m = len(mod) - 1
    return lambda a, b: _code(_poly_mulmod(_digits(a, p, m), _digits(b, p, m),
                                           mod, p), p)


@pytest.mark.parametrize("q", sorted(MODULI))
def test_extension_field_mul_matches_polynomial_oracle(q):
    F = GF(q)
    mul = _oracle_mul(q)
    for a in range(q):
        for b in range(q):
            assert F.mul(a, b) == mul(a, b)
        if a:
            assert mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("q", ALL_Q)
def test_primitive_root_is_the_first_element_of_its_order(q):
    F = GF(q)
    mul = _oracle_mul(q)

    def order(a):
        n, x = 1, a
        while x != 1:
            x, n = mul(x, a), n + 1
        return n

    orders = [order(a) for a in range(1, q)]
    for m in range(1, q):
        if (q - 1) % m == 0:
            assert primitive_root_of_unity(F, m) == 1 + orders.index(m)


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    F = GF(q)
    els = list(F.elements())
    assert len(els) == q
    for a in els:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    # associativity and distributivity on all triples for the two smallest
    if q <= 4:
        for a in els:
            for b in els:
                for c in els:
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b),
                                                          F.mul(a, c))


@given(q=st.sampled_from(SMALL_Q), data=st.data())
def test_distributivity_sampled(q, data):
    F = GF(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@pytest.mark.parametrize("q", SMALL_Q)
def test_numpy_tables_agree_with_scalar_ops(q):
    F = GF(q)
    for a in range(q):
        for b in range(q):
            assert int(F.add_np[a, b]) == F.add(a, b)
            assert int(F.mul_np[a, b]) == F.mul(a, b)


def test_division_by_zero():
    F = GF(5)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        QQ().div(Fraction(1), Fraction(0))


def test_rationals():
    F = QQ()
    assert F.char == 0
    assert not F.is_finite()
    a, b = Fraction(3, 4), Fraction(-2, 5)
    assert F.add(a, b) == Fraction(7, 20)
    assert F.mul(a, b) == Fraction(-3, 10)
    assert F.parse("7/3") == Fraction(7, 3)
    assert F.format(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(UnsupportedField):
        F.elements()


@pytest.mark.parametrize("raw,want", [(3, 3), ("4", 4), (" 0 ", 0)])
def test_parse_finite_accepts_codes_and_digit_strings(raw, want):
    assert GF(5).parse(raw) == want


@pytest.mark.parametrize("raw", [5, -1, True, 1.5, None, [1], "-1", "x", "",
                                 Fraction(1, 2)])
def test_parse_finite_refuses_everything_else(raw):
    with pytest.raises(UnsupportedField):
        GF(5).parse(raw)


@pytest.mark.parametrize("raw,want", [(-3, Fraction(-3)), ("1/2", Fraction(1, 2)),
                                      (Fraction(2, 3), Fraction(2, 3)),
                                      (" -4/6 ", Fraction(-2, 3))])
def test_parse_rational_accepts_ints_and_fractions(raw, want):
    assert QQ().parse(raw) == want


@pytest.mark.parametrize("raw", ["1/0", "x", "", False, 1.5, None, [1]])
def test_parse_rational_refuses_everything_else(raw):
    with pytest.raises(UnsupportedField):
        QQ().parse(raw)


def test_from_int_and_char():
    assert GF(4).char == 2
    assert GF(9).char == 3
    assert GF(7).from_int(10) == 3
    assert GF(2).from_int(-1) == 1
    assert QQ().from_int(-3) == Fraction(-3)


@pytest.mark.parametrize("q", SMALL_Q)
def test_pow_matches_repeated_multiplication(q):
    F = GF(q)
    for a in range(1, q):
        x = F.one
        for n in range(2 * q):
            assert F.pow_(a, n) == x
            assert F.pow_(F.inv(a), n) == F.pow_(a, -n)
            x = F.mul(x, a)
    assert F.pow_(0, 0) == F.one and F.pow_(0, 5) == 0
    assert QQ().pow_(Fraction(-2, 3), -3) == Fraction(-27, 8)


def test_power_by_squaring_counts_products():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for n in range(1, 70):
        calls.clear()
        assert power_by_squaring(mul, 3, n) == 3 ** n
        assert len(calls) <= 2 * n.bit_length() - 1
    calls.clear()
    assert power_by_squaring(mul, 1, 2 ** 40 + 1) == 1
    assert len(calls) == 41


def test_unsupported_field_sizes():
    with pytest.raises(UnsupportedField):
        GF(6)
    with pytest.raises(UnsupportedField):
        GF(1)


def test_gf_accepts_exactly_the_prime_powers_up_to_64():
    accepted = set()
    for q in range(2, 65):
        try:
            F = GF(q)
        except UnsupportedField as e:
            assert str(e) == f"{q} is not a prime power"
            continue
        assert F.p ** F.m == q and all(F.p % d for d in range(2, F.p))
        accepted.add(q)
    assert accepted == {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                        29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64}


def test_reducible_modulus_is_refused(monkeypatch):
    # (t + 1)^2 over GF(2): the quotient ring has t + 1 as a zero divisor, so
    # its product table has a nonzero row without a 1. GF is memoized, so the
    # spec is built directly
    monkeypatch.setitem(field._MODULI, 4, (1, 0, 1))
    with pytest.raises(UnsupportedField, match="reducible"):
        field.FieldSpec("finite", 4)


@pytest.mark.parametrize("q", SMALL_Q)
def test_multiplicative_orders_divide_group_order(q):
    F = GF(q)
    for a in range(1, q):
        d = multiplicative_order(F, a)
        assert (q - 1) % d == 0
        assert F.pow_(a, d) == F.one
    # some element attains the full order (the group is cyclic)
    assert any(multiplicative_order(F, a) == q - 1 for a in range(1, q))


def test_rational_orders_are_finite_only_for_plus_minus_one():
    F = QQ()
    assert multiplicative_order(F, Fraction(1)) == 1
    assert multiplicative_order(F, Fraction(-1)) == 2
    for a in (Fraction(2), Fraction(1, 2), Fraction(-3)):
        with pytest.raises(NotFound):
            multiplicative_order(F, a)


def test_primitive_roots_of_unity():
    r = primitive_root_of_unity(GF(5), 4)
    assert type(r) is int
    assert multiplicative_order(GF(5), r) == 4
    assert primitive_root_of_unity(GF(7), 3) in (2, 4)
    for m, want in ((1, 1), (2, -1)):
        r = primitive_root_of_unity(QQ(), m)
        assert type(r) is Fraction and r == want
    with pytest.raises(NoPrimitiveRoot):
        primitive_root_of_unity(GF(2), 2)
    with pytest.raises(NoPrimitiveRoot,
                       match="^the rationals contain no primitive 3-th root of unity$"):
        primitive_root_of_unity(QQ(), 3)
    with pytest.raises(NoPrimitiveRoot,
                       match="^GF\\(4\\) contains no primitive 2-th root of unity$"):
        primitive_root_of_unity(GF(4), 2)  # q - 1 = 3 has no square root order


def test_roots_of_unity_sets():
    assert set(roots_of_unity(GF(5), 2)) == {1, 4}
    assert set(roots_of_unity(GF(7), 3)) == {1, 2, 4}
    assert roots_of_unity(QQ(), 2) == [Fraction(1), Fraction(-1)]
    assert len(roots_of_unity(GF(4), 3)) == 3


def test_field_from_flag_round_trip():
    for q in SMALL_Q:
        F = GF(q)
        assert field_from_flag(F.flag()) is F
    assert field_from_flag("Q") is QQ()

