"""Differential tests of the field layer against sympy, an independent
implementation: the canonical forms of +, *, / and of the partial
derivative against sympy's cancel, and poly_gcd against sympy's gcd, on
random triples over Q(x, t), powers of coprime polynomials included."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from paramjet.field import FieldSpec, MultiPoly, RatFun, parse_ratfun, partial_derivative, poly_gcd

from conftest import rand_poly

SPEC = FieldSpec(["x", "t"])
# sympy's sparse polynomial ring over QQ, ordered by graded lex as paramjet is
RING, *GENS = sympy.polys.rings.ring("x,t", sympy.QQ, sympy.polys.orderings.grlex)
FACTORS = ["x-t", "x+1", "t", "x+2*t-1", "x*t+1", "t+2", "x", "2*x-3*t"]


def to_sympy(p: MultiPoly):
    return RING.from_dict({e: sympy.QQ(c.numerator, c.denominator) for e, c in p.terms.items()})


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


def rand_element(rng, factors) -> RatFun:
    if rng.random() < 0.25:  # a quotient of coprime powers
        a, b = rng.sample(factors, 2)
        return RatFun(a.pow(rng.randint(0, 3)), b.pow(rng.randint(0, 3)))
    num = rand_poly(SPEC, rng, max_deg=2, terms=2)
    den = MultiPoly.one(SPEC)
    for _ in range(rng.randint(0, 2)):
        den = den * rng.choice(factors)
    return RatFun(num, den)


def same(r: RatFun, expected: tuple[dict, dict]) -> bool:
    return (r.num.terms, r.den.terms) == expected


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
        assert poly_gcd(f, g).terms == normalized_gcd(to_sympy(f), to_sympy(g))
