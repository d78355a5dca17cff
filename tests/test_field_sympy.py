"""Differential tests of the field layer against sympy, an independent
implementation: the canonical forms of +, *, / and of the partial
derivative against sympy's cancel, and poly_gcd against sympy's gcd, on
random triples over Q(x, t), powers of coprime polynomials included; and
substitute against sympy's simultaneous replacement, cancelled in sympy's
fraction field."""

import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from paramjet.errors import DenominatorVanishes
from paramjet.field import (
    FieldSpec,
    MultiPoly,
    RatFun,
    parse_ratfun,
    partial_derivative,
    poly_gcd,
    substitute,
)

from conftest import rand_poly

SPEC = FieldSpec(["x", "t"])
# the target field of the substitutions: x is sent into Q(u, t)
TARGET = FieldSpec(["u", "t"])
# sympy's sparse polynomial rings over QQ, ordered by graded lex as paramjet is
RING, *GENS = sympy.polys.rings.ring("x,t", sympy.QQ, sympy.polys.orderings.grlex)
TARGET_RING, *_ = sympy.polys.rings.ring("u,t", sympy.QQ, sympy.polys.orderings.grlex)
# sympy's field of fractions of that ring: its elements are kept cancelled
TARGET_FIELD, *_ = sympy.polys.fields.field("u,t", sympy.QQ, sympy.polys.orderings.grlex)
FACTORS = ["x-t", "x+1", "t", "x+2*t-1", "x*t+1", "t+2", "x", "2*x-3*t"]
TARGET_FACTORS = ["u-t", "u+1", "t", "2*u+t", "u*t-1", "t+3"]


def to_sympy(p: MultiPoly, ring=RING):
    return ring.from_dict({e: sympy.QQ(c.numerator, c.denominator) for e, c in p.coefficients().items()})


def terms_of(p) -> dict:
    return {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in p.items()}


def canonical(p, q) -> tuple[dict, dict]:
    """paramjet's canonical form of p/q, computed by sympy: cancelled, then
    scaled to a denominator with graded-lex leading coefficient 1."""
    p, q = p.cancel(q)
    lc = q.LC
    return terms_of(p.quo_ground(lc)), terms_of(q.quo_ground(lc))


def normalized_gcd(p, q) -> dict:
    """sympy's gcd under paramjet's normalization: integer coefficients,
    content 1, positive graded-lex leading coefficient."""
    g = p.gcd(q)
    if not g:
        return {}
    g = g.clear_denoms()[1].primitive()[1]
    if g.LC < 0:
        g = -g
    return terms_of(g)


def rand_element(rng, factors, spec=SPEC) -> RatFun:
    if rng.random() < 0.25:  # a quotient of coprime powers
        a, b = rng.sample(factors, 2)
        return RatFun(a.pow(rng.randint(0, 3)), b.pow(rng.randint(0, 3)))
    num = rand_poly(spec, rng, max_deg=2, terms=2)
    den = MultiPoly.one(spec)
    for _ in range(rng.randint(0, 2)):
        den = den * rng.choice(factors)
    return RatFun(num, den)


def same(r: RatFun, expected: tuple[dict, dict]) -> bool:
    return (r.num.coefficients(), r.den.coefficients()) == expected


def test_field_against_sympy():
    rng = random.Random(1014)
    factors = [parse_ratfun(SPEC, f).num for f in FACTORS]
    for k in range(300):
        a, b, c = (rand_element(rng, factors) for _ in range(3))
        an, ad, bn, bd, cn, cd = map(to_sympy, (a.num, a.den, b.num, b.den, c.num, c.den))
        assert same(a + b, canonical(an * bd + bn * ad, ad * bd))
        assert same(a * c, canonical(an * cn, ad * cd))
        if not b.is_zero():
            assert same(a / b, canonical(an * bd, ad * bn))
        v = k % 2  # x and t in turn
        expected = canonical(an.diff(GENS[v]) * ad - an * ad.diff(GENS[v]), ad * ad)
        assert same(partial_derivative(a, v), expected)
        # the common factor c.den on both sides
        f, g = a.num * c.den, b.num * c.den
        assert poly_gcd(f, g).coefficients() == normalized_gcd(to_sympy(f), to_sympy(g))


def test_substitute_against_sympy():
    """x and t sent to random elements of Q(u, t), t often to itself, so
    that x - t and its kin vanish under some assignments."""
    rng = random.Random(2718)
    factors = [parse_ratfun(SPEC, f).num for f in FACTORS]
    target_factors = [parse_ratfun(TARGET, f).num for f in TARGET_FACTORS]
    t = RatFun.variable(TARGET, "t")
    compared = vanished = 0
    for _ in range(110):
        a = rand_element(rng, factors)
        images = {
            "x": rng.choice([t, rand_element(rng, target_factors, TARGET)]),
            "t": t if rng.random() < 0.5 else rand_element(rng, target_factors, TARGET),
        }
        mapping = {
            g.as_expr(): to_sympy(images[name].num, TARGET_RING).as_expr()
            / to_sympy(images[name].den, TARGET_RING).as_expr()
            for g, name in zip(GENS, SPEC.variables)
        }
        num, den = (TARGET_FIELD.from_expr(to_sympy(p).as_expr().xreplace(mapping)) for p in (a.num, a.den))
        if not den:
            with pytest.raises(DenominatorVanishes):
                substitute(a, images, TARGET)
            vanished += 1
            continue
        image = num / den
        expected = canonical(TARGET_RING(image.numer), TARGET_RING(image.denom))
        assert same(substitute(a, images, TARGET), expected)
        compared += 1
    assert compared >= 100 and vanished > 0


# shared denominator factors, linear and quadratic: x^2 - t^2 and x^2 - 1
# come first so that x - t, x + t, x - 1 and x + 1 split them later, and
# (t + 1)(x^2 + 2t) is primitive in t, its main variable, but has the
# content t + 1 in x, which a derivative in x splits off if t + 1 or
# x^2 + 2t does not come first
SHARED = [
    "x^2-t^2", "x^2-1", "(t+1)*(x^2+2*t)",
    "x-t", "x+t", "x-1", "x+1", "t+1", "x^2+2*t", "x+t^2", "2*x-3*t+1",
    # a variable divides these, so it joins the base as its own element
    "x^2-x", "x*t*(x+t)", "t^2*x-t",
]


def test_factored_arithmetic_against_sympy():
    """300 random triples whose denominators are products of powers of the
    shared factors, over one field whose coprime base grows and splits as
    they arrive: +, *, / and the partial derivatives against sympy's cancel
    and diff."""
    spec = FieldSpec(["x", "t"])
    rng = random.Random(1405)
    shared = [parse_ratfun(spec, f).num for f in SHARED]

    def element() -> RatFun:
        num = rand_poly(spec, rng, max_deg=2, terms=2)
        if rng.random() < 0.3:  # a numerator with a shared factor, to cancel
            num = num * rng.choice(shared)
        den = MultiPoly.one(spec)
        for _ in range(rng.randint(0, 3)):
            den = den * rng.choice(shared).pow(rng.randint(1, 2))
        return RatFun(num, den)

    # the first three join the base whole, to be split by what follows
    first = [RatFun(MultiPoly.one(spec), f) for f in shared[:3]]
    assert spec._base == shared[:3]
    for a, b, c in itertools.chain([first], ((element(), element(), element()) for _ in range(300))):
        an, ad, bn, bd, cn, cd = map(to_sympy, (a.num, a.den, b.num, b.den, c.num, c.den))
        assert same(a + b, canonical(an * bd + bn * ad, ad * bd))
        assert same(a - c, canonical(an * cd - cn * ad, ad * cd))
        assert same(a * c, canonical(an * cn, ad * cd))
        if not b.is_zero():
            assert same(a / b, canonical(an * bd, ad * bn))
        for v in (0, 1):
            expected = canonical(cn.diff(GENS[v]) * cd - cn * cd.diff(GENS[v]), cd * cd)
            assert same(partial_derivative(c, v), expected)
    # the base is coprime and squarefree, and it did split
    assert len(spec._splits) >= 3
    live = [f for k, f in enumerate(spec._base) if k not in spec._splits]
    assert all(parse_ratfun(spec, v).num in live for v in spec.variables)
    for i, f in enumerate(live):
        assert poly_gcd(f, f.derivative(0)).is_one() or poly_gcd(f, f.derivative(1)).is_one()
        assert all(poly_gcd(f, g).is_one() for g in live[i + 1:])


def test_constructor_against_sympy():
    """RatFun(num, den) against sympy's cancel of num/den: random quotients
    of products of the shared factors over one field whose base splits as
    they arrive, then a zero numerator, constant denominators and a
    denominator with rational coefficients."""
    spec = FieldSpec(["x", "t"])
    rng = random.Random(2029)
    shared = [parse_ratfun(spec, f).num for f in SHARED]

    def product(count: int) -> MultiPoly:
        p = MultiPoly.one(spec)
        for _ in range(count):
            p = p * rng.choice(shared).pow(rng.randint(1, 2))
        return p

    # the first three join the base whole, to be split by what follows
    pairs = [(MultiPoly.one(spec), f) for f in shared[:3]]
    for _ in range(150):
        num = rand_poly(spec, rng, max_deg=2, terms=2) * product(rng.randint(0, 2))
        pairs.append((num, product(rng.randint(0, 3))))
    rational = parse_ratfun(spec, "x/2 - 2/3*t + 1/5").num
    pairs += [
        (MultiPoly.zero(spec), shared[0]),
        (MultiPoly.zero(spec), MultiPoly.const(spec, Fraction(-3, 7))),
        (shared[1], MultiPoly.const(spec, Fraction(-3, 7))),
        (shared[3] * rational, MultiPoly.const(spec, 6)),
        (shared[3] * rational, rational * shared[4]),
        (shared[3], rational.pow(2)),
    ]
    for num, den in pairs:
        assert same(RatFun(num, den), canonical(to_sympy(num), to_sympy(den))), (num, den)
    assert len(spec._splits) >= 3
