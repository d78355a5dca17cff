"""First and second jet rings of a differential structure.

The 1-jet ring is the square-zero extension R ⊕ Ω; the 2-jet ring is the
subset of (P1 ⊗ P1) of elements a⊗1 + 1⊗ω + ω⊗1 − η whose η has
antisymmetric part dω.  Elements of P1 ⊗ P1 are kept in a canonical
left-coefficient form: every scalar is pulled to the outer left through
the bimodule relation 1⊗(c·γ) = c(1⊗γ) + dc⊗γ, so an element is a tuple
of coefficients over the basis {1⊗1, ωi⊗1, 1⊗ωj, ωi⊗ωj} and equality is
componentwise.  The rewrite terminates and is confluent because each
application strictly lowers the slot a scalar sits in (rightmost to left)
while the ωi⊗ωj block only ever accumulates, so a normal form is reached
after one pass per slot and does not depend on the order of pulls.  The
stored η of a ``Jet2Element`` is the literal tensor of the defining
expression, not the canonical-form coefficient block; the two differ by
the derivative matrix of ω and the conversions below translate between
them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .diffstruct import DiffStructure, deRham_d0, deRham_d1
from .errors import MembershipViolated, NotInAugmentationIdeal
from .field import RatFun

Matrix = list  # d x d, as in linalg


def _outer(u: list[RatFun], v: list[RatFun]) -> Matrix:
    return [[x * y for y in v] for x in u]


def _deriv_matrix(omega: list[RatFun], s: DiffStructure) -> Matrix:
    """Matrix with entry (i, j) = δi(ωj-coefficient)."""
    return [[d.apply(c) for c in omega] for d in s.basis]


# --- level 1 -------------------------------------------------------------------


class Jet1Element(NamedTuple):
    a: RatFun
    omega: list[RatFun]


def jet1_mul(x: Jet1Element, y: Jet1Element) -> Jet1Element:
    """(a + ω)(b + η) = ab + aη + bω; the form-by-form product vanishes."""
    return Jet1Element(x.a * y.a, [x.a * u + y.a * v for u, v in zip(y.omega, x.omega)])


def jet1_l(a: RatFun, s: DiffStructure) -> Jet1Element:
    return Jet1Element(a, [RatFun.zero(s.base)] * s.dim)


def jet1_r(a: RatFun, s: DiffStructure) -> Jet1Element:
    return Jet1Element(a, deRham_d0(a, s))


def jet1_e(x: Jet1Element) -> RatFun:
    return x.a


# --- level 2 -------------------------------------------------------------------


class Jet2Element(NamedTuple):
    """The element a⊗1 + 1⊗ω + ω⊗1 − η with η = sum η[i][j]·ωi⊗ωj."""

    a: RatFun
    omega: list[RatFun]
    eta: Matrix

    def add(self, other: "Jet2Element") -> "Jet2Element":
        return Jet2Element(
            self.a + other.a,
            [u + v for u, v in zip(self.omega, other.omega)],
            linalg.mat_add(self.eta, other.eta),
        )


def jet2_l(a: RatFun, s: DiffStructure) -> Jet2Element:
    return Jet2Element(a, [RatFun.zero(s.base)] * s.dim, linalg.zeros(s.base, s.dim, s.dim))


def jet2_r(a: RatFun, s: DiffStructure) -> Jet2Element:
    return Jet2Element(a, deRham_d0(a, s), linalg.zeros(s.base, s.dim, s.dim))


def jet2_e(x: Jet2Element) -> RatFun:
    return x.a


def jet2_proj1(x: Jet2Element) -> Jet1Element:
    """The quotient map to the 1-jet ring; its kernel is the symmetric-η,
    a = ω = 0 part (second symmetric power of Ω)."""
    return Jet1Element(x.a, x.omega)


def jet2_membership_defect(x: Jet2Element, s: DiffStructure) -> Matrix:
    """Antisymmetric part of η minus dω, (η − ηᵀ) − dω; zero exactly on
    members."""
    asym = linalg.mat_sub(x.eta, linalg.transpose(x.eta))
    return linalg.mat_sub(asym, deRham_d1(x.omega, s))


def jet2_is_member(x: Jet2Element, s: DiffStructure) -> bool:
    return linalg.is_zero_matrix(jet2_membership_defect(x, s))


def jet2_canonical_lift(omega: list[RatFun], s: DiffStructure) -> Jet2Element:
    """The member 1⊗ω + ω⊗1 − ½dω, lifting dω antisymmetrically
    (possible since 2 is invertible)."""
    half = RatFun.const(s.base, Fraction(1, 2))
    return Jet2Element(RatFun.zero(s.base), omega, linalg.mat_scale(half, deRham_d1(omega, s)))


def jet2_mul(x: Jet2Element, y: Jet2Element, s: DiffStructure) -> Jet2Element:
    """Product in the 2-jet ring, computed in the canonical form of
    P1 ⊗ P1 and read back.  Each operand is differentiated once: the
    membership defect of x is that of its image Δ(x), whose η-block
    D(ω) − η gives (η − ηᵀ) − (D − Dᵀ − ⟨ω, c_ij⟩) = (η − ηᵀ) − dω."""
    dx, dy = jet2_Delta(x, s), jet2_Delta(y, s)
    if not all(linalg.is_zero_matrix(jet11_membership_defect(d, s)) for d in (dx, dy)):
        raise MembershipViolated("operand is not a 2-jet element")
    return jet11_to_jet2(jet11_mul(dx, dy), s)


def jet2_gamma(x: Jet2Element, s: DiffStructure) -> Matrix:
    """Divided power on the augmentation ideal: γ(1⊗ω + ω⊗1 − η) = ω⊗ω."""
    if not x.a.is_zero():
        raise NotInAugmentationIdeal("γ is defined on elements with zero scalar part")
    return _outer(x.omega, x.omega)


def jet2_sym_value(x: Jet2Element) -> Matrix:
    """The element of Ω⊗Ω represented by a Jet2Element with a = ω = 0
    (it equals −η)."""
    if not x.a.is_zero() or not linalg.is_zero_matrix([x.omega]):
        raise ValueError("element is not in the symmetric-square part")
    return linalg.mat_neg(x.eta)


# --- the ambient tensor square ---------------------------------------------------


class Jet11Element(NamedTuple):
    """An element of P1 ⊗ P1 in canonical left-coefficient form:

    a(1⊗1) + Σ ωL[i](ωi⊗1) + Σ ωR[j](1⊗ωj) + Σ eta[i][j](ωi⊗ωj).
    """

    a: RatFun
    omega_left: list[RatFun]
    omega_right: list[RatFun]
    eta: Matrix

    def add(self, other: "Jet11Element") -> "Jet11Element":
        return Jet11Element(
            self.a + other.a,
            [u + v for u, v in zip(self.omega_left, other.omega_left)],
            [u + v for u, v in zip(self.omega_right, other.omega_right)],
            linalg.mat_add(self.eta, other.eta),
        )


def jet11_mul(x: Jet11Element, y: Jet11Element) -> Jet11Element:
    """Componentwise product; both mixed slots multiply into the ω⊗ω block.
    When each operand holds one list in both form slots, as ``jet2_Delta``
    gives them, the two product slots are one list too."""
    a = x.a * y.a
    omega_left = [x.a * u + y.a * v for u, v in zip(y.omega_left, x.omega_left)]
    if x.omega_left is x.omega_right and y.omega_left is y.omega_right:
        omega_right = omega_left
    else:
        omega_right = [x.a * u + y.a * v for u, v in zip(y.omega_right, x.omega_right)]
    eta = linalg.mat_add(linalg.mat_scale(x.a, y.eta), linalg.mat_scale(y.a, x.eta))
    eta = linalg.mat_add(eta, _outer(x.omega_left, y.omega_right))
    eta = linalg.mat_add(eta, _outer(y.omega_left, x.omega_right))
    return Jet11Element(a, omega_left, omega_right, eta)


def jet2_Delta(x: Jet2Element, s: DiffStructure) -> Jet11Element:
    """The embedding of the 2-jet ring into P1 ⊗ P1 in canonical form.

    Writing ω = Σ cj ωj, the literal tensor 1⊗ω contributes δi(cj) to the
    (i, j) slot when the scalars are pulled left.
    """
    return Jet11Element(
        x.a, x.omega, x.omega, linalg.mat_sub(_deriv_matrix(x.omega, s), x.eta)
    )


def jet11_to_jet2(x: Jet11Element, s: DiffStructure) -> Jet2Element:
    """Read a canonical-form element back as a 2-jet element; raises
    MembershipViolated when it is not one."""
    defect = jet11_membership_defect(x, s)
    if defect is None:
        raise MembershipViolated("left and right form slots differ")
    if not linalg.is_zero_matrix(defect):
        raise MembershipViolated("antisymmetric part does not match dω")
    return Jet2Element(x.a, x.omega_left, linalg.mat_sub(_deriv_matrix(x.omega_left, s), x.eta))


def jet11_membership_defect(x: Jet11Element, s: DiffStructure) -> Matrix | None:
    """Membership defect of a canonical-form element, or None when the two
    form slots already disagree.  Read back, η = D(ω) − x.eta, and the
    derivatives in D(ω) cancel against dω: the defect is ω(c_ij) − (x.eta
    antisymmetrised), with no derivative taken."""
    if x.omega_left != x.omega_right:
        return None
    w, eta = x.omega_left, x.eta
    d = s.dim
    return [
        [linalg.mat_vec([w], s.constants(i, j))[0] - (eta[i][j] - eta[j][i]) for j in range(d)]
        for i in range(d)
    ]
