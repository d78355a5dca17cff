"""The integer-terms-over-one-denominator MultiPoly against the polynomial
it replaced, kept here as an oracle: a dict from exponents to Fraction,
with the schoolbook product, the exact division that rebuilds r - m*g at
each step, and the primitive pseudo-remainder gcd.  Every result of the
engine must also be canonical: int terms, no zeros, den > 0 and
gcd(den, content) = 1.  The modular image of the coprimality proof, which
now takes one inverse per coefficient polynomial, is checked against the
image the Fraction terms gave, one inverse per term.  The memos of a
RatFun, its partial derivatives and its text, are checked against those
of a copy parsed afresh from its text."""

import math
import random
from fractions import Fraction

import pytest

from paramjet.field import (
    _P,
    _POINT_BASE,
    FieldSpec,
    MultiPoly,
    RatFun,
    _as_coeffs,
    _zp_image,
    parse_ratfun,
    partial_derivative,
    poly_divexact,
    poly_gcd,
)

SPEC2 = FieldSpec(["x", "t"])
SPEC3 = FieldSpec(["x1", "x2", "t"])


# --- the oracle: {exponents: Fraction} ------------------------------------------


def grlex(e):
    return (sum(e), e)


def o_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def o_neg(f: dict) -> dict:
    return {e: -c for e, c in f.items()}


def o_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def o_derivative(f: dict, i: int) -> dict:
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in f.items() if e[i]}


def o_lead(f: dict):
    e = max(f, key=grlex)
    return e, f[e]


def o_divexact(f: dict, g: dict) -> dict:
    eg, cg = o_lead(g)
    out, r = {}, f
    while r:
        er, cr = o_lead(r)
        e = tuple(a - b for a, b in zip(er, eg))
        if min(e) < 0:
            raise ArithmeticError("inexact")
        out[e] = cr / cg
        r = o_add(r, o_neg(o_mul({e: out[e]}, g)))
    return out


def o_is_const(f: dict) -> bool:
    return all(not any(e) for e in f)


def o_normalize(f: dict) -> dict:
    """Integer coefficients, content 1, positive leading coefficient."""
    if not f:
        return f
    den = math.lcm(*(c.denominator for c in f.values()))
    num = math.gcd(*(c.numerator for c in f.values()))
    k = Fraction(den, num) * (1 if o_lead(f)[1] > 0 else -1)
    return {e: c * k for e, c in f.items()}


def o_coeffs(f: dict, v: int) -> dict:
    out: dict = {}
    for e, c in f.items():
        out.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1:]] = c
    return out


def o_content(coeffs: dict) -> dict:
    polys = list(coeffs.values())
    g = polys[0]
    for c in polys[1:]:
        g = o_gcd(g, c)
    return g


def o_prem(F: dict, G: dict) -> dict:
    dG = max(G)
    R = dict(F)
    while R and max(R) >= dG:
        dR = max(R)
        lR, shift = R[dR], dR - dG
        new = {k: o_mul(c, G[dG]) for k, c in R.items()}
        for k, c in G.items():
            new[k + shift] = o_add(new.get(k + shift, {}), o_neg(o_mul(c, lR)))
        R = {k: c for k, c in new.items() if c}
    return R


def o_gcd(f: dict, g: dict) -> dict:
    if not f or not g:
        return o_normalize(f or g)
    n = len(next(iter(f)))
    if o_is_const(f) or o_is_const(g):
        return {(0,) * n: Fraction(1)}
    v = max(i for p in (f, g) for e in p for i in range(n) if e[i])
    F, G = o_coeffs(f, v), o_coeffs(g, v)
    cf, cg = o_content(F), o_content(G)
    Fp = {k: o_divexact(c, cf) for k, c in F.items()}
    Gp = {k: o_divexact(c, cg) for k, c in G.items()}
    if max(Fp) < max(Gp):
        Fp, Gp = Gp, Fp
    while Gp:
        R = o_prem(Fp, Gp)
        Fp = Gp
        cont = o_content(R) if R else None
        Gp = {k: o_divexact(c, cont) for k, c in R.items()}
    h = {e[:v] + (k,) + e[v + 1:]: c for k, p in Fp.items() for e, c in p.items()}
    h = o_divexact(h, o_content(o_coeffs(h, v)))
    return o_normalize(o_mul(o_gcd(cf, cg), h))


def o_zp_image(f: dict, v: int) -> list[int] | None:
    """The image in Z_p[v] of the coprimality proof, one modular inverse
    per coefficient, as the Fraction representation computed it."""
    out = [0] * (max(e[v] for e in f) + 1)
    for e, c in f.items():
        if c.denominator % _P == 0:
            return None
        term = c.numerator * pow(c.denominator, -1, _P)
        for j, ej in enumerate(e):
            if j != v:
                term = term * pow(_POINT_BASE, (j + 1) * ej, _P) % _P
        out[e[v]] = (out[e[v]] + term) % _P
    return out if out[-1] else None


def o_render(f: dict, names) -> str:
    if not f:
        return "0"
    parts = []
    for e in sorted(f, key=grlex, reverse=True):
        c = f[e]
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        parts.append(str(c) if not mono else mono if c == 1 else f"{c}*{mono}")
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


# --- the engine against the oracle -----------------------------------------------


def canonical(p: MultiPoly) -> MultiPoly:
    """p, after asserting the canonical invariant of its representation."""
    assert all(type(c) is int and c for c in p.terms.values())
    assert type(p.den) is int and p.den > 0
    assert math.gcd(p.den, *p.terms.values()) == 1
    return p


def rand_dict(rng: random.Random, n: int, max_deg: int, terms: int) -> dict:
    f: dict = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(n)] += 1
        c = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4, 6, 35)))
        f = o_add(f, {tuple(e): c})
    return f


def engine(spec, f: dict) -> MultiPoly:
    return canonical(MultiPoly.from_terms(spec, f.items()))


@pytest.mark.parametrize("spec", [SPEC2, SPEC3], ids=["Q(x,t)", "Q(x1,x2,t)"])
def test_multipoly_against_fraction_dict_oracle(spec):
    rng = random.Random(4242 + len(spec))
    n = len(spec)
    inexact = 0
    for _ in range(200):
        f, g, h = (rand_dict(rng, n, 3, rng.randint(1, 4)) for _ in range(3))
        pf, pg, ph = engine(spec, f), engine(spec, g), engine(spec, h)
        assert pf.coefficients() == f and pf.render() == o_render(f, spec.variables)
        assert canonical(pf + pg).coefficients() == o_add(f, g)
        assert canonical(pf - pg).coefficients() == o_add(f, o_neg(g))
        assert canonical(pf * pg).coefficients() == o_mul(f, g)
        i = rng.randrange(n)
        assert canonical(pf.derivative(i)).coefficients() == o_derivative(f, i)
        if f:
            assert _zp_image(_as_coeffs(pf, i)) == o_zp_image(f, i)
        assert canonical((pf * pg).scale(Fraction(-3, 35))).coefficients() == o_mul(o_mul(f, g), {(0,) * n: Fraction(-3, 35)})
        if not g:
            continue
        fg, pfg = o_mul(f, g), canonical(pf * pg)
        assert canonical(poly_divexact(pfg, pg)).coefficients() == o_divexact(fg, g)
        # f*g + h is divisible by g only when h is
        try:
            expected = o_divexact(o_add(fg, h), g)
        except ArithmeticError:
            inexact += 1
            with pytest.raises(ArithmeticError):
                poly_divexact(canonical(pfg + ph), pg)
        else:
            assert canonical(poly_divexact(canonical(pfg + ph), pg)).coefficients() == expected
        # a common factor h on both sides
        if h:
            got = canonical(poly_gcd(canonical(pf * ph), canonical(pg * ph)))
            expected = o_gcd(o_mul(f, h), o_mul(g, h))
            assert got.den == 1 and got.coefficients() == expected
            assert got.render() == o_render(expected, spec.variables)
    assert inexact > 50


@pytest.mark.parametrize("spec", [SPEC2, SPEC3], ids=["Q(x,t)", "Q(x1,x2,t)"])
def test_memos_match_a_fresh_copy(spec):
    """A value's memoized partial derivatives and its cached text equal
    those of a structurally equal value parsed afresh from its text."""
    rng = random.Random(977 + len(spec))
    n = len(spec)
    for _ in range(40):
        f, g = (rand_dict(rng, n, 3, rng.randint(1, 3)) for _ in range(2))
        if not f or not g:  # zero is interned, and shares its memos
            continue
        x = RatFun(engine(spec, f), engine(spec, g))
        for value in (x, -x):
            first = [partial_derivative(value, i) for i in range(n)]
            text = str(value)
            fresh = parse_ratfun(spec, text)
            assert fresh is not value and fresh.partials is None and fresh.text is None
            assert str(value) == text == str(fresh)
            memoized = [partial_derivative(value, i) for i in range(n)]
            assert all(a is b for a, b in zip(memoized, first))
            assert memoized == [partial_derivative(fresh, i) for i in range(n)]
            assert [str(d) for d in memoized] == [str(partial_derivative(fresh, i)) for i in range(n)]
