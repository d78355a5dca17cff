"""Exact arithmetic in multivariate rational function fields Q(v1, ..., vN).

Elements are kept in a canonical form at all times: a polynomial stores
integer terms over one positive common denominator coprime to them, with
no zero terms, ordered by the graded lexicographic order induced by the
variable order of the ``FieldSpec``; rational functions store coprime
numerator/denominator with a monic denominator.  Equality of values is
therefore structural equality, and the text rendering is a bit-exact
interchange form.  Products, sums, exact division and the gcd run on
Python ints; ``Fraction`` appears only at the edges (parsing constants,
``leading``, ``coefficients`` and ``render``).

Arithmetic keeps that form without taking gcds of the full result: a
product or quotient cancels only the cross gcds of its operands, a sum
with different denominators takes the gcd of the denominators and then one
against the common factor only (Henrici; Knuth, TAOCP 2, 4.5.1), and a
partial derivative cancels only against the part of the denominator free
of the variable.  ``poly_gcd`` proves coprimality from a modular image
before it falls back to the pseudo-remainder sequence.  The parts of the
quotient rule and of the sum that depend on the denominators alone (the
gcd of d and its derivative, the gcd of two denominators, and the
cofactors) are memoized per ``FieldSpec``, so a denominator is split once
per variable, or once per pair, in the life of its field.

All values are immutable; operations are pure functions.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction
from operator import add, neg, sub
from typing import Iterable, Mapping, Sequence

from .errors import DenominatorVanishes, DivisionByZero, ParamjetError, ParseError, UnknownVariable

Exponents = tuple[int, ...]


def _grlex(e: Exponents):
    return (sum(e), e)


class FieldSpec:
    """An ordered list of variable names; fixes indexing for the session.

    It also holds the field's zero and one, built once: values are
    immutable, so every caller can share them.  For the same reason it
    holds the memos of the denominator-only splits, keyed by denominator
    polynomials: the quotient rule's (variable index, d) -> split of d
    against its derivative, and the sum's (b, d) -> split of b and d by
    their gcd.  Exponent tuples mean different things in different fields,
    so a memo belongs to its field and lives as long as it does."""

    __slots__ = ("variables", "_index", "_poly_zero", "_poly_one", "_zero", "_one",
                 "_quotient_memo", "_sum_memo")

    def __init__(self, variables: Iterable[str]):
        names = tuple(variables)
        if any(not v for v in names):
            raise ValueError("variable names must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.variables = names
        self._index = {v: i for i, v in enumerate(names)}
        self._poly_zero = MultiPoly(self, {})
        self._poly_one = MultiPoly(self, {(0,) * len(names): 1})
        self._zero = RatFun._coprime(self._poly_zero, self._poly_one)
        self._one = RatFun._coprime(self._poly_one, self._poly_one)
        self._quotient_memo: dict = {}
        self._sum_memo: dict = {}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def __len__(self) -> int:
        return len(self.variables)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self.variables == other.variables

    def __repr__(self) -> str:
        return f"FieldSpec({', '.join(self.variables)})"


class MultiPoly:
    """Sparse multivariate polynomial with rational coefficients, stored as
    integer terms over one common denominator: the coefficient of x^e is
    terms[e] / den.  The form is canonical: no zero terms, den > 0 and
    gcd(den, every term) = 1, so den is 1 exactly when every coefficient is
    an integer."""

    __slots__ = ("spec", "terms", "den")

    def __init__(self, spec: FieldSpec, terms: dict, den: int = 1):
        self.spec = spec
        self.terms = terms
        self.den = den

    @classmethod
    def from_terms(cls, spec: FieldSpec, items) -> "MultiPoly":
        acc: dict = {}
        for exps, coeff in items:
            c = Fraction(coeff)
            if c:
                e = tuple(exps)
                acc[e] = acc[e] + c if e in acc else c
        # the lcm of the reduced denominators is coprime to the content
        den = 1
        for c in acc.values():
            den = math.lcm(den, c.denominator)
        return cls(spec, {e: c.numerator * (den // c.denominator) for e, c in acc.items() if c}, den)

    @classmethod
    def zero(cls, spec: FieldSpec) -> "MultiPoly":
        return spec._poly_zero

    @classmethod
    def const(cls, spec: FieldSpec, value) -> "MultiPoly":
        c = Fraction(value)
        if not c:
            return cls(spec, {})
        return cls(spec, {(0,) * len(spec): c.numerator}, c.denominator)

    @classmethod
    def one(cls, spec: FieldSpec) -> "MultiPoly":
        return spec._poly_one

    @classmethod
    def variable(cls, spec: FieldSpec, name: str) -> "MultiPoly":
        i = spec.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(spec)))
        return cls(spec, {e: 1})

    def coefficients(self) -> dict[Exponents, Fraction]:
        """The nonzero coefficients as Fractions, keyed by exponents."""
        return {e: Fraction(c, self.den) for e, c in self.terms.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.den == 1 and self.terms == self.spec._poly_one.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[Exponents, Fraction]:
        e = max(self.terms, key=_grlex)
        return e, Fraction(self.terms[e], self.den)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        da, db = self.den, other.den
        if da == db:
            terms = dict(self.terms)
            rest = other.terms
        else:
            den = da // math.gcd(da, db) * db
            terms = _times(self.terms, den // da)
            rest = _times(other.terms, den // db)
            da = den
        for e, c in rest.items():
            c += terms.get(e, 0)
            if c:
                terms[e] = c
            else:
                del terms[e]
        return _reduced(self.spec, terms, da)

    def __neg__(self) -> "MultiPoly":
        if not self.terms:
            return self
        return MultiPoly(self.spec, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.terms or not other.terms:
            return self.spec._poly_zero
        if self.is_one():
            return other
        if other.is_one():
            return self
        terms: dict = {}
        get = terms.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = get(e, 0) + c1 * c2
        if not all(terms.values()):
            terms = {e: c for e, c in terms.items() if c}
        return _reduced(self.spec, terms, self.den * other.den)

    def scale(self, value) -> "MultiPoly":
        c = Fraction(value)
        return self._scaled(c.numerator, c.denominator)

    def _scaled(self, num: int, den: int) -> "MultiPoly":
        """self * num / den for integers num and den != 0."""
        if not num:
            return self.spec._poly_zero
        if den < 0:
            num, den = -num, -den
        if num == den or not self.terms:
            return self
        terms = self.terms if num == 1 else _times(self.terms, num)
        return _reduced(self.spec, terms, self.den * den)

    def pow(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.one(self.spec)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, var_index: int) -> "MultiPoly":
        terms = {}
        for e, c in self.terms.items():
            k = e[var_index]
            if k:
                # distinct exponents stay distinct, so no two terms meet
                terms[e[:var_index] + (k - 1,) + e[var_index + 1:]] = c * k
        return _reduced(self.spec, terms, self.den)

    def variables_used(self) -> set[int]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.spec == other.spec
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.den, frozenset(self.terms.items())))

    def render(self) -> str:
        if not self.terms:
            return "0"
        if self.is_one():
            return "1"
        parts = []
        try:
            for e in sorted(self.terms, key=_grlex, reverse=True):
                c = self.terms[e]
                if self.den != 1:
                    c = Fraction(c, self.den)
                factors = []
                for name, k in zip(self.spec.variables, e):
                    if k == 1:
                        factors.append(name)
                    elif k > 1:
                        factors.append(f"{name}^{k}")
                mono = "*".join(factors)
                if not mono:
                    parts.append(str(c))
                elif c == 1:
                    parts.append(mono)
                else:
                    parts.append(f"{c}*{mono}")
        except ValueError:  # str() of an integer past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise ParamjetError(f"coefficient over {limit} digits, the int-to-str limit") from None
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"


def _times(terms: dict, k: int) -> dict:
    return {e: c * k for e, c in terms.items()}


def int_content(values: Iterable[int], g: int = 0) -> int:
    """gcd(g, *values) >= 0.  A loop that stops at the first 1, not
    math.gcd(*values), whose argument tuples of every length would fill
    the interpreter's tuple free lists."""
    for c in values:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _reduced(spec: FieldSpec, terms: dict, den: int) -> MultiPoly:
    """terms / den in canonical form, for den > 0: both divided by
    gcd(den, content)."""
    if den != 1:
        g = int_content(terms.values(), den)
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
            den //= g
    return MultiPoly(spec, terms, den)


# --- gcd machinery ----------------------------------------------------------
#
# The gcd over Q[v1..vN] is computed by a content/primitive-part recursion:
# the main variable is always the last variable occurring in either operand,
# so the elimination order is fixed by the FieldSpec order.  The result is
# normalized to integer coefficients with content 1 and positive leading
# (graded lex) coefficient.
#
# Before the primitive parts enter the pseudo-remainder sequence, their
# images in Z_p[v] (the other variables at a fixed point, v kept) are
# tested for a common factor; an image gcd of 1 proves the primitive gcd
# is 1 (see _images_coprime).  Most gcds the RatFun operations ask for are
# coprime ones, so the sequence runs only where a factor is shared.


def _rat_normalize(p: MultiPoly) -> MultiPoly:
    """The primitive integer part of p, with a positive leading coefficient."""
    if p.is_zero():
        return p
    g = int_content(p.terms.values())
    if p.terms[max(p.terms, key=_grlex)] < 0:
        g = -g
    if g == 1:
        return p if p.den == 1 else MultiPoly(p.spec, p.terms)
    return MultiPoly(p.spec, {e: c // g for e, c in p.terms.items()})


def _main_variable(f: MultiPoly, g: MultiPoly) -> int | None:
    used = f.variables_used() | g.variables_used()
    return max(used) if used else None


def _as_coeffs(p: MultiPoly, v: int) -> dict[int, MultiPoly]:
    out: dict[int, dict] = {}
    for e, c in p.terms.items():
        k = e[v]
        e2 = e[:v] + (0,) + e[v + 1:]
        out.setdefault(k, {})[e2] = c
    return {k: _reduced(p.spec, t, p.den) for k, t in out.items()}


def _from_coeffs(spec: FieldSpec, coeffs: dict[int, MultiPoly], v: int) -> MultiPoly:
    den = 1
    for poly in coeffs.values():
        den = math.lcm(den, poly.den)
    terms = {}
    for k, poly in coeffs.items():
        m = den // poly.den
        for e, c in poly.terms.items():
            terms[e[:v] + (k,) + e[v + 1:]] = c * m
    return _reduced(spec, terms, den)


def _coeff_content(coeffs: dict[int, MultiPoly]) -> MultiPoly:
    # smallest coefficients first: a constant one ends the search at once
    polys = sorted(coeffs.values(), key=lambda p: (len(p.terms), p.total_degree()))
    g = polys[0]
    for c in polys[1:]:
        if g.is_const():
            return MultiPoly.one(g.spec)
        g = poly_gcd(g, c)
    return g


def _coeffs_divexact(coeffs, divisor: MultiPoly):
    if divisor.is_one():
        return coeffs
    return {k: poly_divexact(c, divisor) for k, c in coeffs.items()}


# the prime of the coprimality proof, and the fixed point the variables other
# than the main one are sent to: variable j goes to _POINT_BASE^(j+1) mod p
_P = 2**31 - 1
_POINT_BASE = 48271


def _zp_image(coeffs: dict[int, MultiPoly]) -> list[int] | None:
    """Image in Z_p[v] of a polynomial given by its coefficients in v,
    constant term first; None if a coefficient denominator or the leading
    coefficient vanishes mod p.  Each coefficient costs one modular inverse,
    of its denominator, and none when that is 1."""
    powers: dict[tuple[int, int], int] = {}
    out = [0] * (max(coeffs) + 1)
    for k, poly in coeffs.items():
        acc = 0
        for e, c in poly.terms.items():
            for j, ej in enumerate(e):
                if ej:
                    pw = powers.get((j, ej))
                    if pw is None:
                        pw = powers[(j, ej)] = pow(_POINT_BASE, (j + 1) * ej, _P)
                    c = c * pw % _P
            acc += c
        if poly.den != 1:
            den = poly.den % _P
            if not den:
                return None
            acc *= pow(den, -1, _P)
        out[k] = acc % _P
    return out if out[-1] else None


def _zp_coprime(f: list[int], g: list[int]) -> bool:
    """Whether two polynomials of Z_p[v] with nonzero leading coefficients
    (constant term first) have a unit gcd, by Euclid's algorithm."""
    f, g = list(f), list(g)
    while len(g) > 1:
        inv = pow(g[-1], -1, _P)
        dg = len(g) - 1
        while len(f) > dg:
            q = f[-1] * inv % _P
            shift = len(f) - 1 - dg
            for k in range(dg):
                f[shift + k] = (f[shift + k] - q * g[k]) % _P
            f.pop()
            while f and not f[-1]:
                f.pop()
        if not f:
            return False
        f, g = g, f
    return True


def _images_coprime(F: dict, G: dict) -> bool:
    """A proof that two primitive polynomials, given by their coefficients
    in the main variable v, are coprime; False means no proof, not a
    common factor.

    Let phi: Q[others][v] -> Z_p[v] reduce mod p at the fixed point.  It
    is defined on F and G, since no coefficient denominator vanishes mod
    p, and it keeps their degrees in v, since neither leading coefficient
    does.  Let H be the primitive gcd.  By Gauss's lemma, clearing
    denominators and integer contents (units mod p, as the images are
    nonzero) gives integer polynomials that H divides in Z[others][v], so
    phi(H) divides both images up to units.  lc(H) divides lc(F), whose
    image is nonzero, so deg phi(H) = deg_v H.  An image gcd of 1 thus
    forces deg_v H = 0, and a common factor free of v would divide the
    content of a primitive polynomial: H is 1."""
    f = _zp_image(F)
    if f is None:
        return False
    g = _zp_image(G)
    return g is not None and _zp_coprime(f, g)


def _prem(F: dict, G: dict, spec: FieldSpec) -> dict:
    """Pseudo-remainder of F by G, both as coefficient dicts in one variable."""
    dG = max(G)
    lG = G[dG]
    R = dict(F)
    while R and max(R) >= dG:
        dR = max(R)
        lR = R[dR]
        shift = dR - dG
        new: dict[int, MultiPoly] = {}
        for k, c in R.items():
            new[k] = c * lG
        for k, c in G.items():
            acc = new.get(k + shift, MultiPoly.zero(spec)) - c * lR
            if acc.is_zero():
                new.pop(k + shift, None)
            else:
                new[k + shift] = acc
        R = {k: c for k, c in new.items() if not c.is_zero()}
    return R


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Primitive gcd of two polynomials (up to the stated normalization)."""
    if f.is_zero():
        return _rat_normalize(g)
    if g.is_zero():
        return _rat_normalize(f)
    if f.is_const() or g.is_const():
        return MultiPoly.one(f.spec)
    # the gcd is defined up to a unit of Q: work on the integer parts
    if f.den != 1:
        f = MultiPoly(f.spec, f.terms)
    if g.den != 1:
        g = MultiPoly(g.spec, g.terms)
    if len(f.terms) == 1 or len(g.terms) == 1:
        mono = None
        for p in (f, g):
            m = None
            for e in p.terms:
                m = e if m is None else tuple(min(a, b) for a, b in zip(m, e))
            mono = m if mono is None else tuple(min(a, b) for a, b in zip(mono, m))
        return MultiPoly(f.spec, {mono: 1})
    if f.terms == g.terms:
        return _rat_normalize(f)
    v = _main_variable(f, g)
    F = _as_coeffs(f, v)
    G = _as_coeffs(g, v)
    if len(F) == 1 and 0 in F:
        return _rat_normalize(poly_gcd(f, _coeff_content(G)))
    if len(G) == 1 and 0 in G:
        return _rat_normalize(poly_gcd(_coeff_content(F), g))
    cf = _coeff_content(F)
    cg = _coeff_content(G)
    c = poly_gcd(cf, cg)
    Fp = _coeffs_divexact(F, cf)
    Gp = _coeffs_divexact(G, cg)
    if _images_coprime(Fp, Gp):
        return c
    if max(Fp) < max(Gp):
        Fp, Gp = Gp, Fp
    while Gp:
        R = _prem(Fp, Gp, f.spec)
        Fp = Gp
        if not R:
            Gp = {}
        else:
            cont = _coeff_content(R)
            Gp = _coeffs_divexact(R, cont)
    if max(Fp) == 0:
        h = MultiPoly.one(f.spec)
    else:
        h = _from_coeffs(f.spec, Fp, v)
        hc = _coeff_content(_as_coeffs(h, v))
        h = poly_divexact(h, hc)
    return _rat_normalize(c * h)


def poly_divexact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f/g; raises ArithmeticError if the division is inexact.

    With g = (k / g.den)·G for the integer content k and the primitive
    integer part G, the integer part F of f is divided by G over Z.  By
    Gauss's lemma a primitive G that divides F over Q leaves an integral
    quotient, so an integer division with a remainder proves that g does
    not divide f.  The remainder is one dict changed in place, its leading
    terms taken from a heap keyed by the graded lex order."""
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if f.is_zero() or g.is_one():
        return f
    if g.is_const():
        return f._scaled(g.den, next(iter(g.terms.values())))
    k = int_content(g.terms.values())
    eg = max(g.terms, key=_grlex)
    lg = g.terms[eg] // k
    rest = [(e, c // k) for e, c in g.terms.items() if e != eg]
    r = dict(f.terms)
    heap = [(-sum(e), tuple(map(neg, e)), e) for e in r]
    heapq.heapify(heap)
    out = {}
    while r:
        er = heapq.heappop(heap)[2]
        cr = r.pop(er, 0)
        if not cr:
            continue  # a stale heap entry: the term cancelled
        e = tuple(map(sub, er, eg))
        q, rem = divmod(cr, lg)
        if rem or min(e) < 0:
            raise ArithmeticError("inexact polynomial division")
        out[e] = q
        for e2, c2 in rest:
            m = tuple(map(add, e, e2))
            c = r.get(m)
            if c is None:
                r[m] = -q * c2
                heapq.heappush(heap, (-sum(m), tuple(map(neg, m)), m))
            elif c == q * c2:
                del r[m]
            else:
                r[m] = c - q * c2
    return MultiPoly(f.spec, out)._scaled(g.den, f.den * k)


def _monic(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """num/den rescaled so that den has graded-lex leading coefficient 1:
    the leading integer term of den over den.den is divided out."""
    lc = den.terms[max(den.terms, key=_grlex)]
    if lc == 1 and den.den == 1:
        return num, den
    return num._scaled(den.den, lc), MultiPoly(den.spec, den.terms)._scaled(1, lc)


class RatFun:
    """A rational function in canonical form: gcd(num, den) = 1, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            num = MultiPoly.zero(num.spec)
            den = MultiPoly.one(num.spec)
        elif den.is_const():
            num = num._scaled(den.den, next(iter(den.terms.values())))
            den = MultiPoly.one(num.spec)
        else:
            g = poly_gcd(num, den)
            if not g.is_one():
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
            num, den = _monic(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _coprime(cls, num: MultiPoly, den: MultiPoly) -> "RatFun":
        """num/den for a nonzero den already known coprime to num: the one
        route that takes no gcd, so each caller states why they are coprime."""
        out = cls.__new__(cls)
        if num.is_zero():
            num = MultiPoly.zero(num.spec)
            den = MultiPoly.one(num.spec)
        else:
            num, den = _monic(num, den)
        out.num = num
        out.den = den
        return out

    @property
    def spec(self) -> FieldSpec:
        return self.num.spec

    @classmethod
    def const(cls, spec: FieldSpec, value) -> "RatFun":
        return cls(MultiPoly.const(spec, value), MultiPoly.one(spec))

    @classmethod
    def zero(cls, spec: FieldSpec) -> "RatFun":
        return spec._zero

    @classmethod
    def one(cls, spec: FieldSpec) -> "RatFun":
        return spec._one

    @classmethod
    def variable(cls, spec: FieldSpec, name: str) -> "RatFun":
        return cls(MultiPoly.variable(spec, name), MultiPoly.one(spec))

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RatFun":
        return cls(p, MultiPoly.one(p.spec))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __add__(self, other: "RatFun") -> "RatFun":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RatFun(a + c, b)
        memo = b.spec._sum_memo
        split = memo.get((b, d))
        if split is None:
            g = poly_gcd(b, d)
            split = memo[(b, d)] = (g, poly_divexact(b, g), poly_divexact(d, g))
        g, b1, d1 = split
        if g.is_one():
            # a prime factor of b divides neither a nor d, so not a*d + c*b;
            # likewise for d
            return RatFun._coprime(a * d + c * b, b * d)
        t = a * d1 + c * b1
        # b1 and d1 are coprime, so as above no factor of b1 or d1 divides
        # t: t and the denominator g*b1*d1 share the factors of h only
        h = poly_gcd(t, g)
        return RatFun._coprime(poly_divexact(t, h), poly_divexact(d, h) * b1)

    def __neg__(self) -> "RatFun":
        if not self.num.terms:
            return self
        out = RatFun.__new__(RatFun)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __mul__(self, other: "RatFun") -> "RatFun":
        if self.is_zero() or other.is_zero():
            return RatFun.zero(self.spec)
        if self.is_one():
            return other
        if other.is_one():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_one() and d.is_one():
            return RatFun._coprime(a * c, b)
        # gcd(a, b) = gcd(c, d) = 1: after the cross gcds are cancelled no
        # factor of the numerator is left in the denominator
        g1 = poly_gcd(a, d)
        g2 = poly_gcd(c, b)
        return RatFun._coprime(
            poly_divexact(a, g1) * poly_divexact(c, g2),
            poly_divexact(b, g2) * poly_divexact(d, g1),
        )

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        if other.is_one():
            return self
        # other = c/d is canonical, so d/c is coprime as it stands
        return self * RatFun._coprime(other.den, other.num)

    def inverse(self) -> "RatFun":
        return RatFun.one(self.spec) / self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __str__(self) -> str:
        return f"({self.num.render()})/({self.den.render()})"

    def __repr__(self) -> str:
        return f"RatFun({self})"


# --- spec-level operations ---------------------------------------------------


def partial_derivative(x: RatFun, v: str | int) -> RatFun:
    """Coordinate partial derivative, by the quotient rule with the small
    gcd: with h = gcd(d, d'), e = d/h and f = d'/h,
    (n/d)' = (n'e - n f) / (h e^2).

    A prime p involving the variable with p^k exactly dividing d divides
    h exactly k-1 times (characteristic 0), so it divides e but not f, and
    not n: it does not divide n'e - n f.  The only common factors left are
    those of the content of d in the variable, its factors free of the
    variable, so one gcd against that content cancels them, and none is
    taken when the content is constant.  Everything but n' and the final
    cancellation depends on d and the variable only, and is memoized on the
    field."""
    i = x.spec.index(v) if isinstance(v, str) else v
    if not (0 <= i < len(x.spec)):
        raise UnknownVariable(f"variable index {i} out of range")
    n, d = x.num, x.den
    dn = n.derivative(i)
    dd = d.derivative(i)
    if dd.is_zero():
        return RatFun(dn, d)
    memo = x.spec._quotient_memo
    split = memo.get((i, d))
    if split is None:
        h = poly_gcd(d, dd)
        e = poly_divexact(d, h)
        split = memo[(i, d)] = (e, poly_divexact(dd, h), h * e * e,
                                _coeff_content(_as_coeffs(d, i)))
    e, f, den, content = split
    num = dn * e - n * f
    if not content.is_const():
        g = poly_gcd(num, content)
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    return RatFun._coprime(num, den)


def _eval_poly(p: MultiPoly, images: Sequence[RatFun], target: FieldSpec) -> RatFun:
    powers: list[list[RatFun]] = [[RatFun.one(target)] for _ in images]
    out = RatFun.zero(target)
    for e, c in sorted(p.coefficients().items(), key=lambda t: _grlex(t[0])):
        term = RatFun.const(target, c)
        for i, k in enumerate(e):
            if k:
                cache = powers[i]
                while len(cache) <= k:
                    cache.append(cache[-1] * images[i])
                term = term * cache[k]
        out = out + term
    return out


def substitute(x: RatFun, assignment: Mapping[str, RatFun], target: FieldSpec) -> RatFun:
    """Image of ``x`` under the ring homomorphism sending each variable to
    its assigned value; partial on poles of the denominator."""
    spec = x.spec
    images: list[RatFun] = []
    needed = x.num.variables_used() | x.den.variables_used()
    for i, name in enumerate(spec.variables):
        if name in assignment:
            img = assignment[name]
            if img.spec != target:
                raise ValueError(f"image of {name!r} lives in the wrong field")
            images.append(img)
        elif i in needed:
            raise UnknownVariable(f"no image assigned for variable {name!r}")
        else:
            images.append(RatFun.zero(target))
    den_val = _eval_poly(x.den, images, target)
    if den_val.is_zero():
        raise DenominatorVanishes(f"denominator of {x} vanishes under substitution")
    return _eval_poly(x.num, images, target) / den_val


# --- parsing ------------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.items.append(("int", text[i:j], i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.items.append(("name", text[i:j], i))
                i = j
            elif ch in "+-*/^()":
                self.items.append((ch, ch, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", position=i)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", position=len(self.text))
        self.pos += 1
        return tok


# open parentheses in one expression; each costs four Python frames, so the
# deepest allowed expression stays well inside the default recursion limit
MAX_NESTING = 100
# largest exponent of ^, and of the exponent times the degree of its base;
# powers are exact, so the cost grows with the degree of the power
MAX_EXPONENT = 256
# largest exponent of ^ times the bit length of the base's largest integer:
# the bits of a 4300-digit integer, CPython's default int-to-str limit
MAX_POWER_BITS = 14_284


def parse_ratfun(spec: FieldSpec, text: str) -> RatFun:
    """Parse an expression in +, -, *, /, ^, parentheses, integers and
    variable names into a canonical rational function."""
    toks = _Tokens(text)
    depth = 0

    def integer(digits: str, pos: int) -> int:
        try:
            return int(digits)
        except ValueError:  # over int()'s digit limit, or a non-ASCII digit such as '²'
            raise ParseError("integer literal too long or not base 10", position=pos) from None

    def expr() -> RatFun:
        out = term()
        while True:
            tok = toks.peek()
            if tok and tok[0] in "+-":
                toks.next()
                rhs = term()
                out = out + rhs if tok[0] == "+" else out - rhs
            else:
                return out

    def term() -> RatFun:
        out = factor()
        while True:
            tok = toks.peek()
            if tok and tok[0] in "*/":
                toks.next()
                rhs = factor()
                if tok[0] == "/" and rhs.is_zero():
                    raise ParseError("division by zero", position=tok[2])
                out = out * rhs if tok[0] == "*" else out / rhs
            else:
                return out

    def factor() -> RatFun:
        sign = 1
        tok = toks.peek()
        while tok and tok[0] == "-":
            toks.next()
            sign = -sign
            tok = toks.peek()
        base = atom()
        tok = toks.peek()
        if tok and tok[0] == "^":
            toks.next()
            kind, value, pos = toks.next()
            if kind != "int":
                raise ParseError("exponent must be an integer", position=pos)
            power = integer(value, pos)
            num, den = base.num, base.den
            degree = max(num.total_degree(), den.total_degree())
            bits = max(abs(c).bit_length() for p in (num, den) for c in (p.den, *p.terms.values()))
            if max(power, power * degree) > MAX_EXPONENT or power * bits > MAX_POWER_BITS:
                raise ParseError("exponent too large", position=pos)
            # powers of coprime polynomials stay coprime
            base = RatFun._coprime(num.pow(power), den.pow(power))
        return base if sign == 1 else -base

    def atom() -> RatFun:
        nonlocal depth
        kind, value, pos = toks.next()
        if kind == "int":
            return RatFun.const(spec, integer(value, pos))
        if kind == "name":
            if value not in spec._index:
                raise ParseError(f"unknown variable {value!r}", position=pos)
            return RatFun.variable(spec, value)
        if kind == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError("expression nested too deeply", position=pos)
            out = expr()
            kind2, _, pos2 = toks.next()
            if kind2 != ")":
                raise ParseError("expected ')'", position=pos2)
            depth -= 1
            return out
        raise ParseError(f"unexpected token {value!r}", position=pos)

    out = expr()
    tok = toks.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", position=tok[2])
    return out
