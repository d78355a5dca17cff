"""Exact arithmetic in multivariate rational function fields Q(v1, ..., vN).

Elements are kept in a canonical form at all times: a polynomial stores
integer terms over one positive common denominator coprime to them, with
no zero terms, each keyed by one packed integer per monomial (see
``FieldSpec``), whose integer order is the graded lexicographic order
induced by the variable order; rational functions store coprime
numerator/denominator with a monic denominator.  Equality of values is
therefore structural equality, and the text rendering is a bit-exact
interchange form.  Products, sums, exact division and the gcd run on
Python ints, and the key of a product of monomials is the sum of their
keys; ``Fraction`` and exponent tuples appear only at the edges (parsing
constants, ``leading``, ``coefficients`` and ``render``).

Every denominator is also kept factored, as an exponent vector over a
coprime base that belongs to its ``FieldSpec`` (factor refinement; Bach,
Driscoll & Shallit, J. Algorithms 15, 1993).  The lcm and gcd of two
denominators are then a max and a min of exponents, and gcds are taken
only between a numerator and single base elements: a product cancels
each numerator against the elements of the other denominator, a sum
against the elements whose exponents agree in both (Henrici; Knuth,
TAOCP 2, 4.5.1), and the quotient rule takes no gcd with d or d' at all.
Division is the product with the inverse; ``substitute`` and ``RatFun(num,
den)`` divide.  So only ``inverse`` factors a polynomial, the one that
becomes a denominator, with general gcds, once per polynomial in the life
of its field.  ``poly_gcd`` proves coprimality from a modular image
before it falls back to the pseudo-remainder sequence.

All values are immutable; operations are pure functions.  So a value
may remember what it computed: each ``RatFun`` object memoizes its
partial derivatives, by variable index, and its rendered text, and a memo
hit returns what a recomputation would.  Connection matrices copy one
entry object into many cells (the shared zero above all), and the
prolongation, ``at2`` and certificate writers then differentiate and
render the same objects again; the memos make that work once per object.
"""

from __future__ import annotations

import heapq
import math
import re
import sys
import weakref
from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterable, Mapping, Sequence

from .errors import (DenominatorVanishes, DivisionByZero, ParamjetError, ParseError,
                     StructureMismatch, UnknownVariable)

Exponents = tuple[int, ...]

# bits of each field of a packed monomial key (see FieldSpec): a polynomial
# of total degree 2^EXPONENT_BITS or more is refused.  Every fixture and
# benchmark session stays below degree 64; 12 bits keep the keys of up to
# four variables, and most horizontal-search row keys, within two and one
# 30-bit int digits, measurably faster than 16 bits or more
EXPONENT_BITS = 12


class FieldSpec:
    """An ordered list of variable names; fixes indexing for the session.

    It fixes the layout of a packed monomial key.  For N variables and
    W = EXPONENT_BITS = 12, the key of x^e is sum(e) shifted left by N·W bits,
    plus e_i shifted left by (N−1−i)·W bits for each variable i: a
    total-degree field on top, then one W-bit field per variable, the first
    variable highest (Monagan & Pearce, J. Symb. Comp. 46, 2011).  So
    integer order is graded lexicographic order, the key of a product of
    monomials is the sum of their keys, and ``units[i]``, the key of the
    variable itself, is what ∂/∂v_i subtracts.  The layout holds while the
    total degree stays below 2^W; a product or a polynomial built past
    that is refused with a ParamjetError.  ``exponents`` reads a key back,
    and ``_monos`` remembers the rendered text of each monomial.

    It also holds the field's zero and one, built once: values are
    immutable, so every caller can share them.  And it holds the coprime
    base of the field's denominators: an append-only list of monic,
    squarefree, pairwise coprime polynomials, over which every denominator
    of the field is an exponent vector.  A base element that shares only a
    proper factor with a new polynomial is split into two new elements;
    the split is recorded, and vectors that name the old element are read
    over its pieces when next used.  Beside the base are its memos: the
    denominators by exponent vector, the exponent vectors by factored
    polynomial, the rendered denominators by exponent vector and the
    partial derivatives of the base elements.  Exponent vectors mean
    nothing outside the base they index, so the base belongs to its field,
    which is one object: FieldSpecs are equal only when identical and hash
    by identity, and an operation on the values of two of them raises
    StructureMismatch."""

    __slots__ = ("variables", "_index", "units", "_shifts", "_mask", "_top", "_key_cap", "_monos",
                 "_poly_zero", "_poly_one", "_zero", "_one", "_base", "_splits", "_dens", "_den_texts",
                 "_facs", "_derivs")

    def __init__(self, variables: Iterable[str]):
        names = tuple(variables)
        if any(not v for v in names):
            raise ValueError("variable names must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.variables = names
        self._index = {v: i for i, v in enumerate(names)}
        n, bits = len(names), EXPONENT_BITS
        self._shifts = tuple((n - 1 - i) * bits for i in range(n))
        self._mask = (1 << bits) - 1
        self._top = n * bits
        self.units = tuple((1 << self._top) + (1 << s) for s in self._shifts)
        self._key_cap = self.degree_key(1 << bits)
        self._monos: dict[int, str] = {}
        self._poly_zero = MultiPoly(self, {})
        self._poly_one = MultiPoly(self, {0: 1})
        self._base: list[MultiPoly] = []
        self._splits: dict[int, tuple[int, int]] = {}
        self._dens: dict[tuple, MultiPoly] = {(): self._poly_one}
        self._den_texts: dict[tuple, str] = {}
        self._facs: dict[MultiPoly, tuple] = {}
        self._derivs: dict[tuple[int, int], MultiPoly] = {}
        self._zero = RatFun._over(self, self._poly_zero, ())
        self._one = RatFun._over(self, self._poly_one, ())

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def __len__(self) -> int:
        return len(self.variables)

    def key(self, exps: Exponents) -> int:
        """The packed key of the monomial x^exps."""
        return sum(map(mul, exps, self.units))

    def exponents(self, key: int) -> Exponents:
        """The exponent vector of a packed key."""
        mask = self._mask
        return tuple([(key >> s) & mask for s in self._shifts])

    def degree_key(self, degree: int) -> int:
        """The least key of total degree ``degree``, above every key of a
        lower degree; a degree past 2^EXPONENT_BITS, whose lower degrees
        would not fit the layout, is refused."""
        if degree > self._mask + 1:
            _refuse_degree(self, degree - 1)
        return degree << self._top

    def __repr__(self) -> str:
        return f"FieldSpec({', '.join(self.variables)})"


class MultiPoly:
    """Sparse multivariate polynomial with rational coefficients, stored as
    integer terms over one common denominator: the coefficient of x^e is
    terms[key] / den for the packed key of e (see FieldSpec).  The form is
    canonical: no zero terms, den > 0 and gcd(den, every term) = 1, so den
    is 1 exactly when every coefficient is an integer."""

    __slots__ = ("spec", "terms", "den")

    def __init__(self, spec: FieldSpec, terms: dict, den: int = 1):
        self.spec = spec
        self.terms = terms
        self.den = den

    @classmethod
    def from_terms(cls, spec: FieldSpec, items) -> "MultiPoly":
        """The polynomial of (exponent vector, coefficient) pairs."""
        return cls.from_keys(spec, ((spec.key(e), c) for e, c in items))

    @classmethod
    def from_keys(cls, spec: FieldSpec, items) -> "MultiPoly":
        """The polynomial of (packed key, coefficient) pairs."""
        acc: dict = {}
        for key, coeff in items:
            c = Fraction(coeff)
            if c:
                acc[key] = acc[key] + c if key in acc else c
        if acc and max(acc) >= spec._key_cap:
            _refuse_degree(spec, max(acc) >> spec._top)
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
        return cls(spec, {0: c.numerator}, c.denominator)

    @classmethod
    def one(cls, spec: FieldSpec) -> "MultiPoly":
        return spec._poly_one

    @classmethod
    def variable(cls, spec: FieldSpec, name: str) -> "MultiPoly":
        return cls(spec, {spec.units[spec.index(name)]: 1})

    def coefficients(self) -> dict[Exponents, Fraction]:
        """The nonzero coefficients as Fractions, keyed by exponents."""
        exponents = self.spec.exponents
        return {exponents(e): Fraction(c, self.den) for e, c in self.terms.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not any(self.terms)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.den == 1 and self.terms.get(0) == 1

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(self.terms) >> self.spec._top

    def leading(self) -> tuple[Exponents, Fraction]:
        e = max(self.terms)
        return self.spec.exponents(e), Fraction(self.terms[e], self.den)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if other.spec is not self.spec:
            raise StructureMismatch("values of different FieldSpec objects")
        if not self.terms:
            return other
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
        """The product; keys add, so the leading keys bound the degree."""
        spec = self.spec
        if other.spec is not spec:
            raise StructureMismatch("values of different FieldSpec objects")
        if not self.terms or not other.terms:
            return spec._poly_zero
        if self.is_one():
            return other
        if other.is_one():
            return self
        if max(self.terms) + max(other.terms) >= spec._key_cap:
            _refuse_degree(spec, self.total_degree() + other.total_degree())
        terms: dict = {}
        get = terms.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                terms[e] = get(e, 0) + c1 * c2
        if not all(terms.values()):
            terms = {e: c for e, c in terms.items() if c}
        return _reduced(spec, terms, self.den * other.den)

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
        spec = self.spec
        shift, mask, unit = spec._shifts[var_index], spec._mask, spec.units[var_index]
        terms = {}
        for e, c in self.terms.items():
            k = (e >> shift) & mask
            if k:
                # distinct exponents stay distinct, so no two terms meet
                terms[e - unit] = c * k
        return _reduced(spec, terms, self.den)

    def variables_used(self) -> set[int]:
        # a field of the or of all keys is nonzero iff some key's is
        used = 0
        for e in self.terms:
            used |= e
        mask = self.spec._mask
        return {i for i, s in enumerate(self.spec._shifts) if (used >> s) & mask}

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, MultiPoly)
            and self.spec is other.spec
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
        spec = self.spec
        monos = spec._monos
        parts = []
        try:
            for e in sorted(self.terms, reverse=True):
                c = self.terms[e]
                if self.den != 1:
                    c = Fraction(c, self.den)
                mono = monos.get(e)
                if mono is None:
                    factors = []
                    for name, shift in zip(spec.variables, spec._shifts):
                        k = (e >> shift) & spec._mask
                        if k == 1:
                            factors.append(name)
                        elif k > 1:
                            factors.append(f"{name}^{k}")
                    mono = monos[e] = "*".join(factors)
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


def _refuse_degree(spec: FieldSpec, degree: int):
    bits = spec._mask.bit_length()
    raise ParamjetError(f"polynomial of total degree {degree}, past the {bits}-bit exponent field")


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
# the main variable is the one of least degree in the two operands, the last
# in the FieldSpec order on a tie, which keeps the remainder sequence and the
# recursion into the contents short.  The result is
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
    if p.terms[max(p.terms)] < 0:
        g = -g
    if g == 1:
        return p if p.den == 1 else MultiPoly(p.spec, p.terms)
    return MultiPoly(p.spec, {e: c // g for e, c in p.terms.items()})


def _main_variable(f: MultiPoly, g: MultiPoly) -> int | None:
    """The variable of least degree in f and g, the last of those on a tie:
    the pseudo-remainder sequence in it is the shortest."""
    mask, keys = f.spec._mask, [*f.terms, *g.terms]
    degree = {i: max((e >> s) & mask for e in keys) for i, s in enumerate(f.spec._shifts)}
    degree = {i: k for i, k in degree.items() if k}
    return min(degree, key=lambda i: (degree[i], -i)) if degree else None


def _as_coeffs(p: MultiPoly, v: int) -> dict[int, MultiPoly]:
    """p as a polynomial in variable v: the coefficient of v^k, by k."""
    shift, mask, unit = p.spec._shifts[v], p.spec._mask, p.spec.units[v]
    out: dict[int, dict] = {}
    for e, c in p.terms.items():
        k = (e >> shift) & mask
        out.setdefault(k, {})[e - k * unit] = c
    return {k: _reduced(p.spec, t, p.den) for k, t in out.items()}


def _from_coeffs(spec: FieldSpec, coeffs: dict[int, MultiPoly], v: int) -> MultiPoly:
    den = 1
    for poly in coeffs.values():
        den = math.lcm(den, poly.den)
    unit = spec.units[v]
    terms = {}
    for k, poly in coeffs.items():
        m = den // poly.den
        for e, c in poly.terms.items():
            terms[e + k * unit] = c * m
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
    of its denominator, and none when that is 1; each monomial, the power
    _POINT_BASE^(sum (j+1)·e_j), is computed once per call."""
    powers: dict[int, int] = {}
    out = [0] * (max(coeffs) + 1)
    for k, poly in coeffs.items():
        acc = 0
        for e, c in poly.terms.items():
            if e:
                pw = powers.get(e)
                if pw is None:
                    weight = sum(j * ej for j, ej in enumerate(poly.spec.exponents(e), 1))
                    pw = powers[e] = pow(_POINT_BASE, weight, _P)
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
    """A proof that the primitive parts of two polynomials, given by their
    coefficients in the main variable v, are coprime, with no content
    divided out; False means no proof, not a common factor.

    Let phi: Q[others][v] -> Z_p[v] reduce mod p at the fixed point.  It
    is defined on F and G, since no coefficient denominator vanishes mod
    p, and it keeps their degrees in v, since neither leading coefficient
    does.  Let H be the primitive gcd of the primitive parts, a divisor of
    F and G.  By Gauss's lemma, clearing denominators and integer contents
    (units mod p, as the images are nonzero) gives integer polynomials
    that H divides in Z[others][v], so phi(H) divides both images up to
    units.  lc(H) divides lc(F), whose image is nonzero, so deg phi(H) =
    deg_v H.  An image gcd of 1 thus forces deg_v H = 0, and a common
    factor free of v would divide the content of a primitive part: H is 1."""
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
    if g.spec is not f.spec:
        raise StructureMismatch("values of different FieldSpec objects")
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
        exps = [f.spec.exponents(e) for e in (*f.terms, *g.terms)]
        return MultiPoly(f.spec, {f.spec.key([min(column) for column in zip(*exps)]): 1})
    v = _main_variable(f, g)
    F = _as_coeffs(f, v)
    G = _as_coeffs(g, v)
    cf = _coeff_content(F)
    cg = _coeff_content(G)
    c = poly_gcd(cf, cg)
    if _images_coprime(F, G):
        return c
    Fp = _coeffs_divexact(F, cf)
    Gp = _coeffs_divexact(G, cg)
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
    terms taken from a heap of negated keys; a leading term is divisible
    when each exponent field of its key is at least that of lt(G)."""
    spec = f.spec
    if g.spec is not spec:
        raise StructureMismatch("values of different FieldSpec objects")
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if f.is_zero() or g.is_one():
        return f
    if g.is_const():
        return f._scaled(g.den, next(iter(g.terms.values())))
    k = int_content(g.terms.values())
    eg = max(g.terms)
    lg = g.terms[eg] // k
    rest = [(e, c // k) for e, c in g.terms.items() if e != eg]
    mask = spec._mask
    fields = [(s, (eg >> s) & mask) for s in spec._shifts if (eg >> s) & mask]
    r = dict(f.terms)
    heap = [-e for e in r]
    heapq.heapify(heap)
    out = {}
    while r:
        er = -heapq.heappop(heap)
        cr = r.pop(er, 0)
        if not cr:
            continue  # a stale heap entry: the term cancelled
        q, rem = divmod(cr, lg)
        if rem or any(((er >> s) & mask) < k_s for s, k_s in fields):
            raise ArithmeticError("inexact polynomial division")
        e = er - eg
        out[e] = q
        for e2, c2 in rest:
            m = e + e2
            c = r.get(m)
            if c is None:
                r[m] = -q * c2
                heapq.heappush(heap, -m)
            elif c == q * c2:
                del r[m]
            else:
                r[m] = c - q * c2
    return MultiPoly(spec, out)._scaled(g.den, f.den * k)


# --- the coprime base of the denominators -------------------------------------
#
# An exponent vector is a tuple of sorted pairs (k, e), e > 0, standing for
# prod base[k]^e over the base of its FieldSpec (see FieldSpec and the
# module docstring).


def _base_element(p: MultiPoly) -> MultiPoly:
    """p divided by its graded-lex leading coefficient."""
    return p._scaled(p.den, p.terms[max(p.terms)])


def _fac(exps: dict) -> tuple:
    return tuple(sorted((k, e) for k, e in exps.items() if e))


def _live(spec: FieldSpec, fac: tuple) -> tuple:
    """fac with every split base element replaced by its pieces."""
    splits = spec._splits
    if not splits or not any(k in splits for k, _ in fac):
        return fac
    exps: dict = {}
    todo = list(fac)
    while todo:
        k, e = todo.pop()
        pieces = splits.get(k)
        if pieces is None:
            exps[k] = exps.get(k, 0) + e
        else:
            todo.extend((j, e) for j in pieces)
    return _fac(exps)


def _den_of(spec: FieldSpec, fac: tuple) -> MultiPoly:
    """The monic polynomial prod base[k]^e, built once per exponent vector
    from the cached powers."""
    dens = spec._dens
    d = dens.get(fac)
    if d is None:
        if len(fac) == 1:
            ((k, e),) = fac
            d = spec._base[k].pow(e)
        else:
            d = spec._poly_one
            for ke in fac:
                d = d * _den_of(spec, (ke,))
        dens[fac] = d
    return d


def _split(spec: FieldSpec, k: int, g: MultiPoly) -> tuple[int, int]:
    """Split base element k into g, a proper factor of it, and the
    cofactor; returns the indices of the two pieces."""
    base = spec._base
    j = len(base)
    base.append(_base_element(g))
    base.append(_base_element(poly_divexact(base[k], g)))
    spec._splits[k] = (j, j + 1)
    return j, j + 1


def _cancel(spec: FieldSpec, num: MultiPoly, exps: dict, ks) -> MultiPoly:
    """num with its common factors with den(exps) divided out, for a num
    that can share factors with the base elements ks only; exps[k] drops by
    the times element k was divided out.  Each gcd is taken against one
    base element; one that shares only a proper factor with num is split
    first, and its pieces take its place in exps.  An element of total
    degree 1 is irreducible, so its gcd with num is 1 or itself: trial
    division alone decides which."""
    base = spec._base
    for k in ks:
        e = exps.pop(k)
        while e and not num.is_const():
            f = base[k]
            linear = f.total_degree() == 1
            if not linear:
                g = poly_gcd(num, f)
                if g.is_one():
                    break
                if g.total_degree() < f.total_degree():
                    k, rest = _split(spec, k, g)
                    exps[rest] = e
                    f = base[k]
            try:  # the powers of f that divide num, by trial division
                while e:
                    num = poly_divexact(num, f)
                    e -= 1
            except ArithmeticError:
                if linear:
                    break
        exps[k] = e
    return num


def _squarefree(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Pairs (q, m) of squarefree, pairwise coprime, nonconstant q with
    p = c·prod q^m for a constant c.  The content of p in its main
    variable v is decomposed recursively and the primitive part w by Yun's
    algorithm in v, which holds because every factor of w involves v, so
    no factor divides its own derivative.  A modular image proves most w
    squarefree at once: w is primitive, so a gcd with its derivative of
    degree 0 in v is a constant (see _images_coprime)."""
    v = _main_variable(p, p)
    content = _coeff_content(_as_coeffs(p, v))
    out = [] if content.is_const() else _squarefree(content)
    w = poly_divexact(p, content)
    y = w.derivative(v)
    if _images_coprime(_as_coeffs(w, v), _as_coeffs(y, v)):
        return out + [(w, 1)]
    g = poly_gcd(w, y)
    w, y = poly_divexact(w, g), poly_divexact(y, g)
    m = 1
    while not w.is_const():
        z = y - w.derivative(v)
        g = poly_gcd(w, z)
        if not g.is_const():
            out.append((g, m))
        w, y = poly_divexact(w, g), poly_divexact(z, g)
        m += 1
    return out


def _factor(spec: FieldSpec, p: MultiPoly) -> tuple:
    """The exponent vector of the monic associate of a nonconstant p,
    refining the base to take it: the one step that takes general gcds,
    once per polynomial in the life of the field.  Every live element is
    divided out of p as often as it divides.  Then each variable that
    divides the rest, as its least exponent over the terms says, joins the
    base as an element of degree 1, which ``_cancel`` takes by trial
    division: x^2 - x enters as x and x - 1.  The squarefree parts of what
    is left, coprime to the whole base, join it too.  So no element of
    degree above 1 has a variable factor, and a variable not in the base
    is coprime to every element."""
    fac = spec._facs.get(p)
    if fac is None:
        base, cap = spec._base, p.total_degree()
        exps = {k: cap for k in range(len(base)) if k not in spec._splits}
        rest = _cancel(spec, p, exps, list(exps))
        exps = {k: cap - e for k, e in exps.items()}
        mask = spec._mask
        for s, unit in zip(spec._shifts, spec.units):
            low = min((e >> s) & mask for e in rest.terms)
            if low:
                exps[len(base)] = low
                base.append(MultiPoly(spec, {unit: 1}))
                rest = MultiPoly(spec, {e - low * unit: c for e, c in rest.terms.items()}, rest.den)
        if not rest.is_const():
            for q, m in _squarefree(rest):
                exps[len(base)] = m
                base.append(_base_element(q))
        fac = spec._facs[p] = _fac(exps)
    return _live(spec, fac)


def _base_derivative(spec: FieldSpec, k: int, i: int) -> MultiPoly | None:
    """The partial derivative in variable i of base element k, memoized; a
    base element that involves the variable is made primitive in it first:
    when it has a content, it is split off and None is returned."""
    key = (k, i)
    d = spec._derivs.get(key)
    if d is None:
        f = spec._base[k]
        d = f.derivative(i)
        if d.terms:
            content = _coeff_content(_as_coeffs(f, i))
            if not content.is_const():
                _split(spec, k, content)
                return None
        spec._derivs[key] = d
    return d


class RatFun:
    """A rational function in canonical form: gcd(num, den) = 1, den monic.
    ``fac`` is the exponent vector of den over the field's coprime base.

    ``partials`` (a dict from variable index to the partial derivative,
    filled by ``partial_derivative``), ``text`` (the rendering, filled by
    ``__str__``) and ``neg`` (filled by ``__neg__``) are memos, None until
    first used.  The value never changes, so they never go stale; they are
    keyed on the object, not the value, since hashing a value costs a pass
    over its terms.  Every value is made by ``_over``; ``__init__`` copies
    one, the product num · den⁻¹, so each new value starts with empty
    memos; a derivative lives as long as the value it came from.  ``neg``
    holds −x on x, and on −x a weak reference back to x, so ``-x`` is one
    object with its own memos, ``-(-x)`` is x while x lives, and no
    reference cycle forms."""

    __slots__ = ("num", "den", "fac", "partials", "text", "neg", "__weakref__")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        spec = num.spec
        if den.spec is not spec:
            raise StructureMismatch("values of different FieldSpec objects")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        q = RatFun._over(spec, num, ()) * RatFun._over(spec, den, ()).inverse()
        self.num, self.den, self.fac = q.num, q.den, q.fac
        self.partials = self.text = self.neg = None

    @classmethod
    def _over(cls, spec: FieldSpec, num: MultiPoly, fac: tuple) -> "RatFun":
        """num / den(fac) for num already coprime to it: the one route that
        takes no gcd, so each caller states why they are coprime."""
        out = cls.__new__(cls)
        if not num.terms:
            num, fac = spec._poly_zero, ()
        out.num = num
        out.den = _den_of(spec, fac)
        out.fac = fac
        out.partials = out.text = out.neg = None
        return out

    @property
    def spec(self) -> FieldSpec:
        return self.num.spec

    @classmethod
    def const(cls, spec: FieldSpec, value) -> "RatFun":
        return cls._over(spec, MultiPoly.const(spec, value), ())

    @classmethod
    def zero(cls, spec: FieldSpec) -> "RatFun":
        return spec._zero

    @classmethod
    def one(cls, spec: FieldSpec) -> "RatFun":
        return spec._one

    @classmethod
    def variable(cls, spec: FieldSpec, name: str) -> "RatFun":
        return cls._over(spec, MultiPoly.variable(spec, name), ())

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RatFun":
        return cls._over(p.spec, p, ())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __add__(self, other: "RatFun") -> "RatFun":
        a, c = self.num, other.num
        spec = a.spec
        if c.spec is not spec:
            raise StructureMismatch("values of different FieldSpec objects")
        if not a.terms:
            return other
        if not c.terms:
            return self
        if self is other:  # gcd(2a, b) = gcd(a, b) = 1
            return RatFun._over(spec, a._scaled(2, 1), self.fac)
        if not self.fac and not other.fac:
            return RatFun._over(spec, a + c, ())
        # with g = gcd(b, d) = b/b1 = d/d1 the sum is (a d1 + c b1)/(g b1 d1)
        b, d = dict(_live(spec, self.fac)), dict(_live(spec, other.fac))
        exps = dict(b)
        b1, d1 = dict(b), dict(d)
        shared = []
        for k, e in d.items():
            if k in b:
                low = min(e, b[k])
                b1[k] -= low
                d1[k] -= low
                if e == b[k]:
                    shared.append(k)
            if e > b.get(k, 0):
                exps[k] = e
        t = a * _den_of(spec, _fac(d1)) + c * _den_of(spec, _fac(b1))
        # a prime factor of base element k with unequal exponents in b and d
        # divides exactly one of the two products a d1 and c b1, so not t:
        # t can share factors only with the elements of equal exponent
        return RatFun._over(spec, _cancel(spec, t, exps, shared), _fac(exps))

    def __neg__(self) -> "RatFun":
        out = self.neg
        if out is not None:
            if out.__class__ is RatFun:
                return out
            out = out()  # self is a negation, and out its operand
            if out is not None:
                return out
        if not self.num.terms:
            return self
        out = self.neg = RatFun._over(self.spec, -self.num, self.fac)
        out.neg = weakref.ref(self)
        return out

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __mul__(self, other: "RatFun") -> "RatFun":
        a, c = self.num, other.num
        spec = a.spec
        if c.spec is not spec:
            raise StructureMismatch("values of different FieldSpec objects")
        if not a.terms or not c.terms:
            return spec._zero
        if self.is_one():
            return other
        if other.is_one():
            return self
        if not self.fac and not other.fac:
            return RatFun._over(spec, a * c, ())
        b, d = dict(_live(spec, self.fac)), dict(_live(spec, other.fac))
        # gcd(a, b) = gcd(c, d) = 1: a can share factors only with the
        # elements of d that are not in b, and c with those of b not in d
        a = _cancel(spec, a, d, [k for k in d if k not in b])
        c = _cancel(spec, c, b, [k for k in b if k not in d])
        for k, e in d.items():
            b[k] = b.get(k, 0) + e
        return RatFun._over(spec, a * c, _fac(b))

    def __truediv__(self, other: "RatFun") -> "RatFun":
        return self * other.inverse()

    def inverse(self) -> "RatFun":
        """d/c for self = c/d; division is the product with the inverse.
        c enters the base, and d, coprime to c already, is scaled by
        1/lc(c): no gcd is taken."""
        c = self.num
        if not c.terms:
            raise DivisionByZero("division by zero rational function")
        fac = _factor(c.spec, c) if not c.is_const() else ()
        return RatFun._over(c.spec, self.den._scaled(c.den, c.terms[max(c.terms)]), fac)

    def __pow__(self, n: int) -> "RatFun":
        """A power with a nonnegative integer exponent; powers of coprime
        polynomials stay coprime."""
        spec = self.spec
        if not n:
            return spec._one
        fac = _live(spec, self.fac)
        return RatFun._over(spec, self.num.pow(n), tuple((k, e * n) for k, e in fac))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __str__(self) -> str:
        text = self.text
        if text is None:
            num = self.num.render()
            texts = self.num.spec._den_texts
            den = texts.get(self.fac)
            if den is None:
                den = texts[self.fac] = self.den.render()
            text = self.text = f"({num})/({den})"
        return text

    def __repr__(self) -> str:
        return f"RatFun({self})"


def reciprocal_lcm(values: Iterable[RatFun], spec: FieldSpec) -> RatFun:
    """1/L for the monic lcm L of the denominators of values: the max of
    their exponent vectors."""
    exps: dict = {}
    for x in values:
        if x.num.spec is not spec:
            raise StructureMismatch("values of different FieldSpec objects")
        for k, e in _live(spec, x.fac):
            if e > exps.get(k, 0):
                exps[k] = e
    return RatFun._over(spec, spec._poly_one, _fac(exps))


def addends(rows: Sequence[Sequence[RatFun]], sign: int) -> list[list[tuple]]:
    """Each row's nonzero values as (column, sign·num, f), sign 1 or −1 and
    f the exponent vector of den with split base elements read as their
    pieces: the terms of ``sum_is_zero``."""
    return [[(c, x.num if sign > 0 else -x.num, _live(x.num.spec, x.fac))
             for c, x in enumerate(row) if x.num.terms] for row in rows]


def sum_is_zero(groups: dict) -> bool:
    """Whether Σ n/den(f) over the items (f, n) of groups is zero, with no
    gcd and no canonical form (Moses, CACM 14, 1971: a zero test needs
    only a normal form).  An f is a tuple of pairs (k, e) in which k may
    repeat, so f + g is the vector of the product of the terms of f and g;
    the numerators whose f come to one vector are summed first.  L, the
    componentwise max of the vectors, is at least every f, so
    den(L) = den(f)·den(L − f) and the sum is Σ n·den(L − f) over den(L).
    The test is exact: L is a common multiple of the term denominators,
    not necessarily the least, and den(L) ≠ 0, so the sum is zero exactly
    when that numerator is the zero polynomial."""
    if len(groups) < 2:
        return not any(n.terms for n in groups.values())
    sums: dict = {}
    for f, n in groups.items():
        if len(f) > 1:
            exps: dict = {}
            for k, e in f:
                exps[k] = exps.get(k, 0) + e
            f = _fac(exps)
        sums[f] = sums[f] + n if f in sums else n
    sums = {f: n for f, n in sums.items() if n.terms}
    if len(sums) < 2:
        return not sums
    top: dict = {}
    for f in sums:
        for k, e in f:
            if e > top.get(k, 0):
                top[k] = e
    spec = next(iter(sums.values())).spec
    total = spec._poly_zero
    for f, n in sums.items():
        rest = dict(top)
        for k, e in f:
            rest[k] -= e
        total = total + n * _den_of(spec, _fac(rest))
    return not total.terms


# --- spec-level operations ---------------------------------------------------


def partial_derivative(x: RatFun, v: str | int) -> RatFun:
    """Coordinate partial derivative in the variable of name or index v,
    memoized on x: the quotient rule runs once per value object and
    variable (see RatFun)."""
    spec = x.spec
    i = spec.index(v) if isinstance(v, str) else v
    if not (0 <= i < len(spec)):
        raise UnknownVariable(f"variable index {i} out of range")
    memo = x.partials
    if memo is None:
        memo = x.partials = {}
    d = memo.get(i)
    if d is None:
        d = memo[i] = _quotient_rule(x, i)
    return d


def _quotient_rule(x: RatFun, i: int) -> RatFun:
    """The partial derivative in variable i, by the quotient rule over the
    base: for n/d with d = prod f_k^e_k, let F be the product of the f_k
    that involve the variable and G = sum e_k f_k' F / f_k over them; then
    (n/d)' = (n' F - n G) / (d F).

    Each f_k that involves the variable is made primitive in it, so every
    prime factor p of it involves the variable and does not divide f_k'
    (f_k is squarefree, characteristic 0).  Modulo p the numerator is
    -n e_k f_k' F / f_k, and p divides none of those factors: the numerator
    can share factors only with the elements free of the variable, and the
    gcds are taken against those alone."""
    spec = x.spec
    n = x.num
    dn = n.derivative(i)
    if not x.fac:
        return RatFun._over(spec, dn, ())
    while True:  # until no element splits off a content
        exps = dict(_live(spec, x.fac))
        derivs = {k: _base_derivative(spec, k, i) for k in exps}
        if all(d is not None for d in derivs.values()):
            break
    moving = [k for k, dk in derivs.items() if dk.terms]
    if moving:
        g = MultiPoly.zero(spec)
        for k in moving:
            others = _den_of(spec, tuple((j, 1) for j in moving if j != k))
            g = g + (derivs[k] * others)._scaled(exps[k], 1)
        dn = dn * _den_of(spec, tuple((k, 1) for k in moving)) - n * g
        for k in moving:
            exps[k] += 1
    num = _cancel(spec, dn, exps, [k for k in derivs if not derivs[k].terms])
    return RatFun._over(spec, num, _fac(exps))


def _eval_poly(p: MultiPoly, images: Sequence[RatFun], target: FieldSpec) -> RatFun:
    powers: list[list[RatFun]] = [[RatFun.one(target)] for _ in images]
    out = RatFun.zero(target)
    for key in sorted(p.terms):
        term = RatFun.const(target, Fraction(p.terms[key], p.den))
        for i, k in enumerate(p.spec.exponents(key)):
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

# One match per token, with the white space before it (group 1): an integer
# of ASCII digits (2), a name that starts with an ASCII letter or '_' (3), an
# operator (4), or any other word or character (5), which _classified reads.
# For every character \s is str.isspace and \w is str.isalnum or '_', so a
# run of name characters is one token.
_TOKEN = re.compile(r"(\s*)(?:([0-9]+)(?!\w)|([A-Za-z_]\w*)|([-+*/^()])|(\w+|\S))")
_END = ("", "", "", "", "")
_OTHER = itemgetter(4)


def _classified(toks: list) -> list:
    """toks with each token of group 5 read as str.isdigit and str.isalpha
    read it: a run of digits is an integer, a letter or '_' starts a name
    that takes the rest of the word, and any other character is
    unexpected."""
    out, at = [], 0
    for tok in toks:
        space, word = tok[0], tok[4]
        if not word:
            out.append(tok)
            at += len("".join(tok))
            continue
        at += len(space)
        n = 0
        while n < len(word) and word[n].isdigit():
            n += 1
        if n:
            out.append((space, word[:n], "", "", ""))
            space = ""
        if n < len(word):
            ch = word[n]
            if not (ch.isalpha() or ch == "_"):
                raise ParseError(f"unexpected character {ch!r}", position=at + n)
            out.append((space, "", word[n:], "", ""))
        at += len(word)
    return out


def _position(toks: list, k: int) -> int:
    """The position of token k in the text that the tokens before it, with
    their white space, spell."""
    return len("".join(["".join(tok) for tok in toks[:k]])) + len(toks[k][0])


# open parentheses in one expression; each costs two Python frames, so the
# deepest allowed expression stays well inside the default recursion limit
MAX_NESTING = 100
# largest exponent of ^, and of the exponent times the degree of its base;
# powers are exact, so the cost grows with the degree of the power
MAX_EXPONENT = 256
# largest exponent of ^ times the bit length of the base's largest integer:
# the bits of a 4300-digit integer, CPython's default int-to-str limit
MAX_POWER_BITS = 14_284
# largest bound on the term count of a power (see _power_too_large): the
# largest powers it allows of bases in up to four variables parse in under
# 0.4 s on a shared 2-vCPU host, and (x+t+1)^256, 33,153 terms, is refused
MAX_POWER_TERMS = 3000


# A value being parsed is a polynomial while it can be: a monomial, the pair
# (coefficient, key) with an int or Fraction coefficient, zero only in the
# pair (0, 0), or a canonical MultiPoly.  It becomes a RatFun at a division
# by a nonconstant value, and a RatFun meets only RatFuns from there on.


def _poly(spec: FieldSpec, v) -> MultiPoly:
    """The MultiPoly of a monomial or a MultiPoly."""
    if type(v) is not tuple:
        return v
    c, key = v
    return MultiPoly(spec, {key: c.numerator}, c.denominator) if c else spec._poly_zero


def _ratfun(spec: FieldSpec, v) -> RatFun:
    """A parsed value as a RatFun; a polynomial is coprime to 1."""
    return v if type(v) is RatFun else RatFun._over(spec, _poly(spec, v), ())


def _product(spec: FieldSpec, a, b):
    """The product of two parsed values; monomials multiply as pairs, and a
    zero factor ends the product as RatFun.__mul__ ends it, before the
    degree is checked."""
    if type(a) is tuple and type(b) is tuple:
        (c1, k1), (c2, k2) = a, b
        if not c1 or not c2:
            return (0, 0)
        if k1 + k2 >= spec._key_cap:
            _refuse_degree(spec, (k1 >> spec._top) + (k2 >> spec._top))
        return c1 * c2, k1 + k2
    if type(a) is RatFun or type(b) is RatFun:
        return _ratfun(spec, a) * _ratfun(spec, b)
    return _poly(spec, a) * _poly(spec, b)


def _gather(acc: dict, v, minus: bool):
    """Add the polynomial v to acc, or subtract it when minus; acc maps
    keys to nonzero int or Fraction coefficients.  A term that cancels is
    deleted and one that comes back goes last, as in MultiPoly.__add__, so
    the terms come in the order a chain of those sums gives."""
    get = acc.get
    if type(v) is tuple:
        c, key = v
        items = ((key, c),) if c else ()
    elif v.den == 1:
        items = v.terms.items()
    else:
        items = [(key, Fraction(c, v.den)) for key, c in v.terms.items()]
    for key, c in items:
        c = get(key, 0) - c if minus else get(key, 0) + c
        if c:
            acc[key] = c
        else:
            del acc[key]


def _canonical(spec: FieldSpec, acc: dict) -> MultiPoly:
    """The MultiPoly of a dict from keys to nonzero int or Fraction
    coefficients, which is its terms when they are all ints."""
    for c in acc.values():
        if type(c) is not int:
            return MultiPoly.from_keys(spec, acc.items())
    return MultiPoly(spec, acc) if acc else spec._poly_zero


def _power_too_large(spec: FieldSpec, base, n: int) -> bool:
    """Whether base^n is out of reach, its canonical numerator and
    denominator taken: its exponent, degree, integer bits or term count over
    the caps.  The n-th power of a polynomial of T terms in v variables and
    total degree d has at most C(n+T-1, T-1) terms, and at most C(nd+v, v),
    the monomials of degree nd or less; a monomial has one term, over the
    one term of 1."""
    if type(base) is tuple:
        c, key = base
        degree, bits = key >> spec._top, max(abs(c.numerator).bit_length(), c.denominator.bit_length(), 1)
        return max(n, n * degree) > MAX_EXPONENT or n * bits > MAX_POWER_BITS
    polys = (base.num, base.den) if type(base) is RatFun else (base, spec._poly_one)
    degree = max(p.total_degree() for p in polys)
    if max(n, n * degree) > MAX_EXPONENT:
        return True
    if n * max(abs(c).bit_length() for p in polys for c in (p.den, *p.terms.values())) > MAX_POWER_BITS:
        return True
    for p in polys:
        t, v = len(p.terms), len(p.variables_used())
        if t and min(math.comb(n + t - 1, t - 1), math.comb(n * p.total_degree() + v, v)) > MAX_POWER_TERMS:
            return True
    return False


def _power(v, n: int):
    if type(v) is tuple:
        return v[0] ** n, v[1] * n
    return v.pow(n) if type(v) is MultiPoly else v ** n


def parse_ratfun(spec: FieldSpec, text: str) -> RatFun:
    """Parse an expression in +, -, *, /, ^, parentheses, integers and
    variable names into a canonical rational function.

    The text is cut into tokens by one regular expression, in full before
    any of it is evaluated.  A subexpression is evaluated as a polynomial
    while it is one: a product of atoms as one monomial, a sum as one dict
    of terms, put in canonical form once, when the sum ends.  At a division
    by a nonconstant value it turns to RatFun arithmetic, which keeps its
    denominators factored over the field's coprime base; a divisor b^n
    enters that base as the factors of b.  So a polynomial entry builds one
    RatFun and takes no gcd."""
    # white space that ends the text matches no token, and findall would
    # scan it again from each of its positions
    toks = _TOKEN.findall(text.rstrip())
    if any(map(_OTHER, toks)):
        toks = _classified(toks)
    toks.append(_END)
    index, units = spec._index, spec.units
    pos = depth = 0  # the next token, and the parentheses open

    def fail(message: str, k: int) -> ParseError:
        """The error at token k, or the end of the expression there."""
        if toks[k] is _END:
            return ParseError("unexpected end of expression", position=len(text))
        return ParseError(message, position=_position(toks, k))

    def integer(k: int) -> int:
        try:
            return int(toks[k][1])
        except ValueError:  # over int()'s digit limit, or a digit int() does not read, such as '²'
            raise fail("integer literal too long or not base 10", k) from None

    def expr():
        nonlocal pos
        out = term()
        op = toks[pos][3]
        if op != "+" and op != "-":
            return out
        acc = None if type(out) is RatFun else {}
        if acc is not None:
            _gather(acc, out, False)
        while op == "+" or op == "-":
            pos += 1
            rhs = term()
            if acc is not None and type(rhs) is not RatFun:
                _gather(acc, rhs, op == "-")
            else:
                if acc is not None:
                    out, acc = RatFun._over(spec, _canonical(spec, acc), ()), None
                rhs = _ratfun(spec, rhs)
                out = out + rhs if op == "+" else out - rhs
            op = toks[pos][3]
        return out if acc is None else _canonical(spec, acc)

    def term():
        """A product of signed powers of atoms.  A divisor b^n, after the
        '/' of token divisor_at, comes back as (1/b)^n: the factors of b
        enter the base, not those of b^n."""
        nonlocal pos, depth
        out = divisor_at = None
        while True:
            negate = False
            while toks[pos][3] == "-":
                pos += 1
                negate = not negate
            k = pos
            pos += 1
            _, digits, name, op, _ = toks[k]
            if digits:
                base = integer(k), 0
            elif name:
                i = index.get(name)
                if i is None:
                    raise fail(f"unknown variable {name!r}", k)
                base = 1, units[i]
            elif op == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise fail("expression nested too deeply", k)
                base = expr()
                if toks[pos][3] != ")":
                    raise fail("expected ')'", pos)
                pos += 1
                depth -= 1
            else:
                raise fail(f"unexpected token {op!r}", k)
            power = 1
            if toks[pos][3] == "^":
                k = pos + 1
                pos += 2
                if not toks[k][1]:
                    raise fail("exponent must be an integer", k)
                power = integer(k)
                if _power_too_large(spec, base, power):
                    raise fail("exponent too large", k)
            if divisor_at is not None:
                num = base.num if type(base) is RatFun else _poly(spec, base)
                if not num.terms:
                    if power:
                        raise fail("division by zero", divisor_at)
                elif type(base) is not RatFun and not any(num.terms):
                    base = Fraction(num.den, num.terms[0]), 0
                else:
                    base = _ratfun(spec, base).inverse()
            if power != 1:
                base = _power(base, power)
            if negate:
                base = (-base[0], base[1]) if type(base) is tuple else -base
            out = base if out is None else _product(spec, out, base)
            op = toks[pos][3]
            if op != "*" and op != "/":
                return out
            divisor_at = pos if op == "/" else None
            pos += 1

    out = expr()
    if toks[pos] is not _END:
        raise fail(f"trailing input {''.join(toks[pos][1:])!r}", pos)
    return _ratfun(spec, out)
