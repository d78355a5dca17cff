import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramjet import field
from paramjet.errors import (
    DenominatorVanishes,
    DivisionByZero,
    ParamjetError,
    ParseError,
    StructureMismatch,
    UnknownVariable,
)
from paramjet.field import (
    MAX_EXPONENT,
    MAX_POWER_BITS,
    MAX_POWER_TERMS,
    FieldSpec,
    MultiPoly,
    RatFun,
    parse_ratfun,
    partial_derivative,
    poly_divexact,
    poly_gcd,
    reciprocal_lcm,
    substitute,
)

from conftest import rand_poly, rand_poly_nonzero, rand_ratfun

SPEC = FieldSpec(["x", "t"])
SPEC3 = FieldSpec(["x", "y", "z"])


def rf(text, spec=SPEC):
    return parse_ratfun(spec, text)


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(["x", "x"])
    with pytest.raises(ValueError):
        FieldSpec(["x", ""])
    with pytest.raises(UnknownVariable):
        SPEC.index("q")


def test_a_field_is_one_object():
    a, b = FieldSpec(["x", "t"]), FieldSpec(["x", "t"])
    assert a == a and a != b and len({a, b, a}) == 2
    assert rf("x+t", a) != rf("x+t", b) and rf("x+t", a).num != rf("x+t", b).num


MIXED_OPS = {
    "add": lambda p, q: p + q,
    "sub": lambda p, q: p - q,
    "mul": lambda p, q: p * q,
    "div": lambda p, q: p / q,
    "reciprocal_lcm": lambda p, q: reciprocal_lcm([p, q], p.spec),
    "constructor": lambda p, q: RatFun(p.num, q.den),
    "poly_add": lambda p, q: p.num + q.num,
    "poly_sub": lambda p, q: p.num - q.num,
    "poly_mul": lambda p, q: p.num * q.num,
    "poly_gcd": lambda p, q: poly_gcd(p.num, q.num),
    "poly_divexact": lambda p, q: poly_divexact(p.num * p.num, q.num),
}


@pytest.mark.parametrize(
    "name, left, right",
    [
        (name, left, right)
        for left, right in [("x+t", "x-t"), ("1/(x+t)", "t/(x-t)"), ("0", "x-t"), ("1", "x/t")]
        for name in MIXED_OPS
    ]
    + [(name, "x/(x+t)", "0") for name in MIXED_OPS if name != "div"],
)
def test_values_of_two_field_objects_do_not_mix(name, left, right):
    """An operand of another FieldSpec object of the same variables is
    refused before any zero, one or no-denominator shortcut."""
    a, b = FieldSpec(["x", "t"]), FieldSpec(["x", "t"])
    with pytest.raises(StructureMismatch):
        MIXED_OPS[name](rf(left, a), rf(right, b))


def test_inverse_scales_by_the_leading_coefficient():
    """1/(c/d) is d/c with c made monic: d is scaled by 1/lc(c)."""
    p = rf("(x-t)/(-3/2*x^2+t)")
    assert p.inverse() == RatFun(p.den, p.num)
    assert p.inverse().num == rf("-3/2*x^2+t").num and p.inverse().den == rf("x-t").num
    assert rf("1/(-2*x+2*t)").inverse() == rf("-2*x+2*t")
    assert rf("-2/3").inverse() == rf("-3/2")
    assert rf("x") / rf("-2*x^2+2*t") == RatFun(rf("x").num, rf("-2*x^2+2*t").num)


def test_arith_examples():
    assert rf("1/x") + rf("1/x") == rf("2/x")
    assert rf("x^2-t^2") / rf("x-t") == rf("x+t")
    assert rf("t/x") * rf("x/t") == rf("1")


def test_negated_zero_is_the_interned_zero():
    assert -RatFun.zero(SPEC) is RatFun.zero(SPEC)
    assert -MultiPoly.zero(SPEC) is MultiPoly.zero(SPEC)


def test_div_by_zero():
    with pytest.raises(DivisionByZero):
        rf("x") / rf("0")


def test_partial_derivative_examples():
    assert partial_derivative(rf("t/x"), "x") == rf("-t/x^2")
    assert partial_derivative(rf("t/x"), "t") == rf("1/x")
    assert partial_derivative(rf("x", SPEC3), "y") == RatFun.zero(SPEC3)
    with pytest.raises(UnknownVariable):
        partial_derivative(rf("x"), "q")


def test_substitute_examples():
    target = SPEC
    x = rf("x")
    zero = RatFun.zero(target)
    assert substitute(rf("x+z", SPEC3), {"x": x, "y": rf("t"), "z": zero}, target) == x
    with pytest.raises(DenominatorVanishes):
        substitute(rf("1/z", SPEC3), {"x": x, "y": x, "z": zero}, target)
    assert substitute(rf("t/x"), {"x": rf("x^2"), "t": rf("t")}, target) == rf("t/x^2")


def test_substitute_requires_covering_assignment():
    with pytest.raises(UnknownVariable):
        substitute(rf("x+z", SPEC3), {"x": rf("x")}, SPEC)


def test_field_axioms_random():
    rng = random.Random(2024)
    for _ in range(200):
        x = rand_ratfun(SPEC, rng)
        y = rand_ratfun(SPEC, rng)
        assert (x + y) - y == x
        if not x.is_zero():
            assert x * x.inverse() == RatFun.one(SPEC)
        # normalization idempotence: rebuilding from parts is a no-op
        assert RatFun(x.num, x.den) == x


def test_leibniz_and_commutation_random():
    rng = random.Random(7)
    for _ in range(100):
        x = rand_ratfun(SPEC, rng)
        y = rand_ratfun(SPEC, rng)
        dx = partial_derivative(x * y, "x")
        assert dx == x * partial_derivative(y, "x") + y * partial_derivative(x, "x")
        both = partial_derivative(partial_derivative(x, "x"), "t")
        assert both == partial_derivative(partial_derivative(x, "t"), "x")


def test_substitute_is_homomorphism():
    rng = random.Random(5)
    target = SPEC
    assignment = {"x": rf("x+1"), "y": rf("t/x"), "z": rf("t")}
    for _ in range(50):
        a = RatFun(rand_poly(SPEC3, rng), rand_poly_nonzero(SPEC3, rng, max_deg=1, terms=1))
        b = RatFun(rand_poly(SPEC3, rng), MultiPoly.one(SPEC3))
        try:
            fa = substitute(a, assignment, target)
        except DenominatorVanishes:
            continue
        fb = substitute(b, assignment, target)
        assert substitute(a + b, assignment, target) == fa + fb
        assert substitute(a * b, assignment, target) == fa * fb
    assert substitute(RatFun.one(SPEC3), assignment, target) == RatFun.one(target)


def test_gcd_normalization():
    spec = SPEC
    f = rf("(x-t)*(x+t)").num
    g = rf("(x-t)*x").num
    h = poly_gcd(f, g)
    assert h == rf("x-t").num
    # canonical den: monic leading coefficient
    q = RatFun(rf("2*x").num, rf("2*t*x^2").num)
    assert q == rf("1/(t*x)")
    assert str(q) == "(1)/(x*t)"


def test_rendering_canonical():
    assert str(rf("-t/x^2")) == "(-1*t)/(x^2)"
    assert str(rf("t/x")) == "(t)/(x)"
    assert str(rf("0")) == "(0)/(1)"
    assert str(rf("x+t+1")) == "(x+t+1)/(1)"
    assert str(rf("3/2*x")) == "(3/2*x)/(1)"


def test_parse_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        x = rand_ratfun(SPEC, rng)
        assert parse_ratfun(SPEC, str(x)) == x


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ratfun(SPEC, "t +")
    with pytest.raises(ParseError):
        parse_ratfun(SPEC, "q + 1")
    with pytest.raises(ParseError):
        parse_ratfun(SPEC, "(x")
    with pytest.raises(ParseError):
        parse_ratfun(SPEC, "x ; t")


small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(min_value=1, max_value=3))
    items = []
    for _ in range(n_terms):
        e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        items.append((e, draw(small_ints)))
    return MultiPoly.from_terms(SPEC, items)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    poly_divexact(a, g)
    poly_divexact(b, g)


@st.composite
def polys3(draw):
    items = []
    for _ in range(draw(st.integers(1, 3))):
        e = tuple(draw(st.integers(0, 2)) for _ in range(3))
        items.append((e, draw(small_ints)))
    return MultiPoly.from_terms(SPEC3, items)


@settings(max_examples=40, deadline=None)
@given(polys3(), polys3(), polys3())
def test_gcd_absorbs_common_factor(a, b, c):
    """gcd(ac, bc) is divisible by the primitive part of c."""
    if c.is_zero() or (a.is_zero() and b.is_zero()):
        return
    g = poly_gcd(a * c, b * c)
    c_prim = poly_gcd(c, c)  # normalizes to the primitive representative
    poly_divexact(g, c_prim)


def test_gcd_three_variable_cancellation():
    f = rf("(x*y+z)*(x-z)*(x-z)", SPEC3)
    g = rf("(x*y+z)*(x-z)*(y+1)", SPEC3)
    q = f / g
    assert q == rf("(x-z)/(y+1)", SPEC3)
    assert str(q) == "(x-1*z)/(y+1)"


# --- fast routes against the generic constructor ----------------------------------
#
# Products, quotients, sums, derivatives and powers cancel only the gcds they
# cannot rule out; RatFun(num, den) takes the gcd of the whole result.  Both
# must give the same canonical form.

# small factors, some free of x and some free of t, so that denominators
# share factors, carry content free of a variable, and repeat factors
FACTORS = ["x-t", "x+1", "t", "x+2*t-1", "x*t+1", "t+2", "x", "2*x-3*t"]


def _rand_factored(rng):
    """A random RatFun whose denominator is a product of small factors,
    the first possibly squared, e.g. t*(x-t)^2."""
    num = rand_poly(SPEC, rng, max_deg=2, terms=3)
    den = MultiPoly.one(SPEC)
    for k in range(rng.randint(0, 2)):
        # one squared factor at most: the generic route's full gcds grow
        # steeply with the degree of the denominator
        den = den * rf(rng.choice(FACTORS)).num.pow(rng.randint(1, 2) if k == 0 else 1)
    if rng.random() < 0.3:
        num = num * den  # cancels to a polynomial
    return RatFun(num, den)


def test_fast_routes_match_generic_route():
    rng = random.Random(20261018)
    for _ in range(100):
        a, b = _rand_factored(rng), _rand_factored(rng)
        assert a * b == RatFun(a.num * b.num, a.den * b.den)
        if not b.is_zero():
            assert a / b == RatFun(a.num * b.den, a.den * b.num)
        assert a + b == RatFun(a.num * b.den + b.num * a.den, a.den * b.den)
        for v in range(len(SPEC)):
            n, d = a.num, a.den
            generic = RatFun(n.derivative(v) * d - n * d.derivative(v), d * d)
            assert partial_derivative(a, v) == generic


@pytest.mark.parametrize(
    "a, b",
    [
        ("1/(t*(x-t)^2)", "x/(t^2*(x-t))"),  # shared factors, content free of x
        ("(x+1)/(x-t)", "(2-x-t)/(x-t)"),  # equal denominators
        ("x/(t*(x+1))", "-x/(t*(x+1))"),  # a sum that cancels to 0
        ("1/(x-t)", "-1/(x-t)^2"),
        ("(x^2+t)/(t*(x-t)^2)", "(x-t)/(t*(x+2*t-1))"),
    ],
)
def test_fast_routes_on_shared_factors(a, b):
    a, b = rf(a), rf(b)
    assert a + b == RatFun(a.num * b.den + b.num * a.den, a.den * b.den)
    assert a - b == RatFun(a.num * b.den - b.num * a.den, a.den * b.den)
    assert a * b == RatFun(a.num * b.num, a.den * b.den)
    assert a / b == RatFun(a.num * b.den, a.den * b.num)
    for x in (a, b):
        n, d = x.num, x.den
        for v in range(len(SPEC)):
            generic = RatFun(n.derivative(v) * d - n * d.derivative(v), d * d)
            assert partial_derivative(x, v) == generic


def test_power_matches_repeated_product():
    for text in ("(x+t)/(x-t)", "-2*t/(3*x^2+1)", "x", "0", "1/(t*(x-t)^2)"):
        base = rf(text)
        acc = RatFun.one(SPEC)
        for k in range(5):
            assert rf(f"({text})^{k}") == acc
            acc = RatFun(acc.num * base.num, acc.den * base.den)


def test_exponent_cap():
    assert rf(f"x^{MAX_EXPONENT}") == RatFun.from_poly(rf("x").num.pow(MAX_EXPONENT))
    assert rf(f"(x+t)^{MAX_EXPONENT}") == RatFun.from_poly(rf("x+t").num.pow(MAX_EXPONENT))
    with pytest.raises(ParseError, match="exponent too large"):
        rf(f"(x+t)^{MAX_EXPONENT + 1}")
    # the base's degree and its integers' bit lengths count against the cap
    for text in (f"(x*t)^{MAX_EXPONENT // 2 + 1}", f"(x+{2 ** 60})^{MAX_POWER_BITS // 61 + 1}"):
        with pytest.raises(ParseError, match="exponent too large"):
            rf(text)
    assert rf(f"(x*t)^{MAX_EXPONENT // 2}") == rf(f"x^{MAX_EXPONENT // 2}*t^{MAX_EXPONENT // 2}")
    n = MAX_POWER_BITS // 61  # 2^60 has 61 bits
    assert rf(f"{2 ** 60}^{n}") == RatFun.const(SPEC, 2 ** (60 * n))


def test_power_term_cap():
    """(x+t+1)^n has C(n+2, 2) terms: the largest n under the cap parses,
    the next does not; a binomial's n + 1 terms never come near it."""
    n = max(k for k in range(MAX_EXPONENT + 1) if math.comb(k + 2, 2) <= MAX_POWER_TERMS)
    assert rf(f"(x+t+1)^{n}") == RatFun.from_poly(rf("x+t+1").num.pow(n))
    with pytest.raises(ParseError, match="exponent too large"):
        rf(f"(x+t+1)^{n + 1}")
    with pytest.raises(ParseError, match="exponent too large"):
        rf(f"1/(x+t+1)^{n + 1}")
    assert len(rf(f"(x-t)^{MAX_EXPONENT}").num.terms) == MAX_EXPONENT + 1


# --- the coprimality proof's fallbacks ---------------------------------------------


def _point_value(j):
    """The value the fixed evaluation point gives variable j."""
    return pow(field._POINT_BASE, j + 1, field._P)


def _images_coprime(f, g):
    """Whether the image at the point proves f and g coprime, in the
    variable poly_gcd takes for them."""
    v = field._main_variable(f, g)
    return field._images_coprime(field._as_coeffs(f, v), field._as_coeffs(g, v))


def _counting_prem(monkeypatch):
    """The calls of the pseudo-remainder sequence, the gcd's fallback."""
    calls = []
    prem = field._prem

    def counted(F, G, spec):
        calls.append((F, G))
        return prem(F, G, spec)

    monkeypatch.setattr(field, "_prem", counted)
    return calls


# poly_gcd takes x for this pair, the variable of least degree, and there the
# image proves it coprime: of the cases below, it checks the gcd value alone
_PROVED_BY_THE_IMAGE = {f"(x-{_point_value(0)})*t^2+x"}


@pytest.mark.parametrize(
    "f, g, expected, spec",
    [
        # the leading coefficient in t vanishes at the point: no image
        (f"(x-{_point_value(0)})*t+1", "t+x", "1", SPEC),
        (f"(x-{_point_value(0)})*t^2+x", "t+x", "1", SPEC),
        # coprime, but the images at the point coincide: an unlucky point
        ("t+x", f"t+{_point_value(0)}", "1", SPEC),
        ("(t+x)*(t+1)", f"(t+{_point_value(0)})*(t+1)", "t+1", SPEC),
        (f"z+x+y-{_point_value(1)}", f"z+{_point_value(0)}", "1", SPEC3),
        ("(z+x)*(z-y)", f"(z+{_point_value(0)})*(z-y)", "y-z", SPEC3),
        # as the first two kinds, with t also the main variable poly_gcd
        # picks, the one of least degree
        (f"(x-{_point_value(0)})*t+x^2", "t+x", "1", SPEC),
        ("(t+x^2)*(t+1)", f"(t+{_point_value(0) ** 2})*(t+1)", "t+1", SPEC),
    ],
)
def test_gcd_falls_back_when_the_point_proves_nothing(monkeypatch, f, g, expected, spec):
    falls_back = f not in _PROVED_BY_THE_IMAGE
    f, g = rf(f, spec).num, rf(g, spec).num
    prem = _counting_prem(monkeypatch)
    assert poly_gcd(f, g) == rf(expected, spec).num
    assert poly_gcd(g, f) == rf(expected, spec).num
    assert bool(prem) == falls_back


def test_gcd_falls_back_on_a_denominator_divisible_by_p(monkeypatch):
    f = rf(f"t+x/{field._P}").num
    g = rf("t-x").num
    assert not _images_coprime(f, g)
    prem = _counting_prem(monkeypatch)
    assert poly_gcd(f, g).is_one()
    assert prem
    q = RatFun(f, g)
    assert q.num * g == f * q.den


# --- the per-field coprime base of the denominators -----------------------------


def _counting_gcd(monkeypatch):
    calls = []
    gcd = field.poly_gcd

    def counted(f, g):
        calls.append((f, g))
        return gcd(f, g)

    monkeypatch.setattr(field, "poly_gcd", counted)
    return calls


def test_quotient_rule_splits_a_denominator_once(monkeypatch):
    """(x - t)^7 is factored once, when it is parsed; the quotient rule
    then takes no gcd at all, since the one base element involves x."""
    spec = FieldSpec(["x", "t"])
    first = rf("(x+t)^10/(x-t)^7", spec)
    second = rf("(x+2*t)/(x-t)^7", spec)
    expected = [rf("(3*x-17*t)*(x+t)^9/(x-t)^8", spec), rf("(-6*x-15*t)/(x-t)^8", spec)]
    calls = _counting_gcd(monkeypatch)
    assert [partial_derivative(q, "x") for q in (first, second)] == expected
    assert calls == []
    assert spec._base == [rf("x-t", spec).num]
    assert expected[1].fac == ((0, 8),)


def test_coprime_base_belongs_to_its_field():
    """The same exponent tuples, (x - t)^3 and (x - y)^3: each field keeps
    its own base and each derivative stays in its own field.  A FieldSpec
    of the same variables is another field: its base is its own, and its
    values do not mix with those of the first."""
    xt, xy = FieldSpec(["x", "t"]), FieldSpec(["x", "y"])
    a = partial_derivative(rf("1/(x-t)^3", xt), "x")
    b = partial_derivative(rf("1/(x-y)^3", xy), "x")
    assert a == rf("-3/(x-t)^4", xt) and a.spec is xt
    assert b == rf("-3/(x-y)^4", xy) and b.spec is xy
    assert xt._base == [rf("x-t", xt).num]
    assert xy._base == [rf("x-y", xy).num]
    other = FieldSpec(["x", "t"])
    c = rf("1/(x+t)", other)
    assert other._base == [rf("x+t", other).num]
    for op in (lambda p, q: p + q, lambda p, q: p * q, lambda p, q: p / q):
        with pytest.raises(StructureMismatch):
            op(a, c)
    assert xt._base == [rf("x-t", xt).num] and other._base == [rf("x+t", other).num]


def _over_an_element_that_splits():
    """1/(x^2 - t^2) over a field whose base holds x^2 - t^2 whole: an
    operand parsed over it later with a denominator x - t splits that
    element, so p's vector names an element that is split."""
    spec = FieldSpec(["x", "t"])
    p = rf("1/(x^2-t^2)", spec)
    assert spec._base == [rf("x^2-t^2", spec).num] and not spec._splits
    return spec, p


@pytest.mark.parametrize(
    "q, op, expected",
    [
        ("1/(x-t)", lambda p, q: p + q, "(x+t+1)/(x^2-t^2)"),
        ("(x+t)/(x-t)", lambda p, q: p * q, "1/(x-t)^2"),
        ("(x+1)/(x-t)", lambda p, q: p / q, "1/((x+t)*(x+1))"),
        ("1/(x-t)", lambda p, q: reciprocal_lcm([p, q], p.spec), "1/(x^2-t^2)"),
    ],
    ids=["add", "mul", "div", "reciprocal_lcm"],
)
def test_a_foreign_operand_can_split_a_base_element(q, op, expected):
    """Parsing the operand splits the element that p's vector names; p's
    vector is read over the pieces, so no vector names both x^2 - t^2 and
    one of its pieces, and the result is canonical."""
    spec, p = _over_an_element_that_splits()
    out = op(p, rf(q, spec))
    assert list(spec._splits) == [0]
    live = [f for k, f in enumerate(spec._base) if k not in spec._splits]
    assert all(poly_gcd(f, g).is_one() for i, f in enumerate(live) for g in live[:i])
    assert out == rf(expected, spec)
    assert out.spec is spec and all(k not in spec._splits for k, _ in out.fac)
    assert out.den == field._den_of(spec, out.fac)


def test_a_vector_over_an_element_and_its_piece_multiplies_out():
    """A vector read over the pieces of a split adds the exponents that
    land on one piece."""
    spec, p = _over_an_element_that_splits()
    p + rf("1/(x-t)", spec)
    assert spec._splits == {0: (1, 2)}
    fac = ((0, 1), (1, 1))  # (x^2 - t^2)(x - t)
    assert field._live(spec, fac) == ((1, 2), (2, 1))
    assert field._den_of(spec, field._live(spec, fac)) == rf("(x^2-t^2)*(x-t)", spec).num


def test_quotient_rule_memo_is_per_variable():
    spec = FieldSpec(["x", "t"])
    q = rf("(x+t)/(x-t)^3", spec)
    assert partial_derivative(q, "x") == rf("(-2*x-4*t)/(x-t)^4", spec)
    assert partial_derivative(q, "t") == rf("(4*x+2*t)/(x-t)^4", spec)
    assert partial_derivative(q, "x") == rf("(-2*x-4*t)/(x-t)^4", spec)
    assert spec._derivs == {(0, 0): rf("1", spec).num, (0, 1): rf("-1", spec).num}


def test_sum_with_shared_factors_commutes():
    spec = FieldSpec(["x", "t"])
    p = rf("(x+1)/((x-t)^2*(x+t))", spec)
    q = rf("t/((x-t)*(x+2))", spec)
    # RatFun() factors the product of the denominators afresh
    expected = RatFun(p.num * q.den + q.num * p.den, p.den * q.den)
    assert p + q == expected
    assert q + p == expected
    assert p + q == expected
    assert (p + q) - q == p


def test_base_element_splits_when_a_proper_factor_turns_up():
    """x^2 - t^2 joins the base whole; x - t then shares a proper factor
    with it, so it splits into x - t and x + t, and the exponent vectors
    that name it are read over the pieces."""
    spec = FieldSpec(["x", "t"])
    p = rf("1/(x^2-t^2)", spec)
    assert spec._base == [rf("x^2-t^2", spec).num] and p.fac == ((0, 1),)
    q = rf("x/(x-t)^2", spec)
    assert spec._splits == {0: (1, 2)}
    assert spec._base[1:] == [rf("x-t", spec).num, rf("x+t", spec).num]
    assert q.fac == ((1, 2),)
    total = p + q
    assert total == rf("(x^2+x*t+x-t)/((x-t)^2*(x+t))", spec)
    assert total.fac == ((1, 2), (2, 1))
    assert p * rf("x-t", spec) == rf("1/(x+t)", spec)
    assert partial_derivative(p, "t") == rf("2*t/(x^2-t^2)^2", spec)


def test_a_linear_base_element_is_cancelled_by_trial_division(monkeypatch):
    """x - t is irreducible, so a product and a sum cancel it by exact
    division alone; the element x^2 + t of degree 2 still takes a gcd."""
    spec = FieldSpec(["x", "t"])
    p, q = rf("(x+t)^2/(x-t)^3", spec), rf("1/(x-t)", spec)
    r = rf("1/(x^2+t)", spec)
    calls = _counting_gcd(monkeypatch)
    assert p * RatFun.from_poly(rf("(x-t)^5*t", spec).num) == rf("(x+t)^2*(x-t)^2*t", spec)
    assert q + q == rf("2/(x-t)", spec) and q - q == RatFun.zero(spec)
    assert calls == []
    assert r * RatFun.from_poly(rf("(x^2+t)*x", spec).num) == rf("x", spec)
    assert calls


def test_a_split_can_come_from_a_numerator(monkeypatch):
    """A numerator that shares only a proper factor with a base element
    splits it: x - t cancels against the element x^2 - t^2."""
    spec = FieldSpec(["x", "t"])
    p = rf("1/(x^2-t^2)^2", spec)
    calls = _counting_gcd(monkeypatch)
    assert p * RatFun.from_poly(rf("(x-t)^3", spec).num) == rf("(x-t)/(x+t)^2", spec)
    assert spec._splits == {0: (1, 2)}
    assert all(f.total_degree() < 4 and g.total_degree() < 4 for f, g in calls)


def test_content_of_a_base_element_splits_off_in_the_quotient_rule():
    """(t + 1)(x^2 + t) is primitive in t, its main variable, so it joins
    the base whole; in x it has the content t + 1, which differentiating in
    x splits off, and the numerator cancels against that piece alone."""
    spec = FieldSpec(["x", "t"])
    q = rf("1/((t+1)*(x^2+t))", spec)
    assert spec._base == [rf("(t+1)*(x^2+t)", spec).num]
    assert partial_derivative(q, "x") == rf("-2*x/((t+1)*(x^2+t)^2)", spec)
    assert spec._splits == {0: (1, 2)}
    assert spec._base[1:] == [rf("t+1", spec).num, rf("x^2+t", spec).num]
    assert partial_derivative(rf("(x^2*t+x^2+1)/(t+1)", spec), "x") == rf("2*x", spec)


# --- the memos of a value ----------------------------------------------------------


def _counting_quotient_rule(monkeypatch):
    calls = []
    inner = field._quotient_rule

    def counted(x, i):
        calls.append((x, i))
        return inner(x, i)

    monkeypatch.setattr(field, "_quotient_rule", counted)
    return calls


def test_a_value_runs_the_quotient_rule_once_per_variable(monkeypatch):
    spec = FieldSpec(["x", "t"])
    q = rf("(x+t)/(x-t)^3", spec)
    calls = _counting_quotient_rule(monkeypatch)
    dx = partial_derivative(q, "x")
    assert partial_derivative(q, "x") is dx and partial_derivative(q, 0) is dx
    assert calls == [(q, 0)]
    dt = partial_derivative(q, "t")
    assert calls == [(q, 0), (q, 1)]
    assert dx == rf("(-2*x-4*t)/(x-t)^4", spec) and dt == rf("(4*x+2*t)/(x-t)^4", spec)
    assert q.partials == {0: dx, 1: dt}


def test_negation_takes_no_memo_from_its_operand():
    spec = FieldSpec(["x", "t"])
    q = rf("(x+t)/(x-t)^3", spec)
    dx, text = partial_derivative(q, "x"), str(q)
    n = -q
    assert partial_derivative(n, "x") == -dx
    assert str(n) == "(-1*x-1*t)/(x^3-3*x^2*t+3*x*t^2-1*t^3)"
    assert str(q) == text == "(x+t)/(x^3-3*x^2*t+3*x*t^2-1*t^3)"
    assert partial_derivative(q, "x") is dx


def _render(x):
    return f"({x.num.render()})/({x.den.render()})"


def test_every_route_renders_and_differentiates_like_a_fresh_value():
    """Values built by each constructor route start with empty memos: the
    cached text is the render of the value, and each partial derivative
    equals that of a structurally equal value parsed afresh."""
    spec = FieldSpec(["x", "t"])
    a = RatFun(rf("x+t", spec).num, rf("(x-t)^2", spec).num)
    # the operand's memos are filled before the other routes build on it
    str(a)
    partial_derivative(a, "x")
    routes = {
        "__init__": a,
        "_over": a + rf("1/(x-t)", spec),
        "__neg__": -a,
        "__pow__": a ** 3,
        "partial_derivative": partial_derivative(a, "t"),
    }
    for route, x in routes.items():
        assert str(x) == _render(x) and x.text == _render(x), route
        fresh = parse_ratfun(FieldSpec(["x", "t"]), str(x))
        for v in ("x", "t"):
            assert str(partial_derivative(x, v)) == str(partial_derivative(fresh, v)), (route, v)


# --- the packed monomial layout ----------------------------------------------------


def test_packed_keys_follow_the_layout():
    """Over 1-5 variables: integer order of the keys is graded lex order,
    a key reads back as its exponents, the key of a product is the sum of
    the keys, and a derivative subtracts the variable's unit."""
    rng = random.Random(22)
    for nvars in range(1, 6):
        spec = FieldSpec([f"v{i}" for i in range(nvars)])
        vectors = [tuple(rng.choice((0, 0, 1, 2, 7, 300)) for _ in range(nvars)) for _ in range(80)]
        by_key = sorted(vectors, key=spec.key)
        assert [(sum(e), e) for e in by_key] == sorted((sum(e), e) for e in vectors)
        for a, b in zip(vectors, reversed(vectors)):
            assert spec.exponents(spec.key(a)) == a
            assert spec.key(tuple(x + y for x, y in zip(a, b))) == spec.key(a) + spec.key(b)
            mono = MultiPoly.from_terms(spec, [(a, 3)])
            assert (mono * MultiPoly.from_terms(spec, [(b, 1)])).terms == {spec.key(a) + spec.key(b): 3}
            for i, k in enumerate(a):
                if k:
                    assert mono.derivative(i).terms == {spec.key(a) - spec.units[i]: 3 * k}


def test_degree_past_the_exponent_field_is_refused(monkeypatch):
    """With 9-bit fields a polynomial of total degree 511 is kept and one
    of degree 512, by a product or built from terms, is refused with a
    ParamjetError, whose message is one line."""
    monkeypatch.setattr(field, "EXPONENT_BITS", 9)
    spec = FieldSpec(["x", "t"])
    top = MultiPoly.from_terms(spec, [((255, 256), 1), ((0, 1), 2)])
    x = MultiPoly.variable(spec, "x")
    assert top.leading() == ((255, 256), 1) and top.total_degree() == 511
    assert (top * MultiPoly.const(spec, 5)).total_degree() == 511
    with pytest.raises(ParamjetError, match="^polynomial of total degree 512, past the 9-bit exponent field$"):
        top * x
    with pytest.raises(ParamjetError, match="total degree 512"):
        MultiPoly.from_terms(spec, [((1, 511), 1)])
    assert spec.degree_key(512) > spec.key((0, 511)) and spec.degree_key(511) <= spec.key((0, 511))
    with pytest.raises(ParamjetError, match="total degree 512"):
        spec.degree_key(513)
