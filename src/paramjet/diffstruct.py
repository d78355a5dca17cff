"""Differential ring structures on a rational function field.

A structure is a basis of derivations together with the structure constants
of its Lie bracket; on top of it live the dual module of 1-forms with the
de Rham differential, Lie derivatives, morphisms with their integrability
condition, and the parameterized (principal/parameter split) structures
used by the module and prolongation layers.

Derivations are represented extrinsically by their coefficient vectors
over the coordinate partials, so the action on the field determines the
derivation.  Like every vector of the engine, a coefficient vector, a row
of structure constants and a 1-form (its coordinates in the dual basis)
are plain lists of ``RatFun``, the row type of ``linalg``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .errors import (
    ConstantsMismatch,
    NotClosed,
    NotCommuting,
    NotIndependent,
    PrincipalMovesConstants,
)
from .field import FieldSpec, RatFun, partial_derivative, substitute


class Derivation:
    """A derivation sum_i coeffs[i] * d/dv_i of the field."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: list[RatFun]):
        if len(coeffs) != len(spec):
            raise ValueError("coefficient vector length mismatch")
        self.spec = spec
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Derivation)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def apply(self, a: RatFun) -> RatFun:
        out = RatFun.zero(self.spec)
        if a.is_zero():
            return out
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out + c * partial_derivative(a, i)
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def add(self, other: "Derivation") -> "Derivation":
        return Derivation(self.spec, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c: RatFun) -> "Derivation":
        return Derivation(self.spec, [c * a for a in self.coeffs])


def coordinate_derivation(spec: FieldSpec, name: str) -> Derivation:
    return Derivation(spec, linalg.identity(spec, len(spec))[spec.index(name)])


def bracket(a: Derivation, b: Derivation) -> Derivation:
    """Lie bracket [a, b] = a∘b - b∘a, in coefficient form."""
    if a.spec != b.spec:
        raise ValueError("derivations over different fields")
    return Derivation(a.spec, [a.apply(cb) - b.apply(ca) for ca, cb in zip(a.coeffs, b.coeffs)])


class DiffStructure(NamedTuple):
    """A derivation basis closed under bracket, with structure constants."""

    base: FieldSpec
    basis: tuple[Derivation, ...]
    structure_constants: dict  # (i, j), i < j -> list of RatFun

    @property
    def dim(self) -> int:
        return len(self.basis)

    def constants(self, i: int, j: int) -> list[RatFun]:
        """Coefficients of [δi, δj] in the basis, for any i, j."""
        if i == j:
            return [RatFun.zero(self.base)] * self.dim
        if i < j:
            return self.structure_constants[(i, j)]
        return [-c for c in self.structure_constants[(j, i)]]


def _expand_in_basis(basis: tuple[Derivation, ...], target: Derivation):
    """Solve sum_q c_q * basis_q = target; returns (coeffs, residual Derivation)."""
    spec = target.spec
    a = [[b.coeffs[n] for b in basis] for n in range(len(spec))]
    coeffs, residual = linalg.solve_or_residual(a, target.coeffs)
    return coeffs, Derivation(spec, residual)


def _independent_basis(base: FieldSpec, basis) -> tuple[Derivation, ...]:
    """The basis, checked nonempty, over ``base`` and independent."""
    basis = tuple(basis)
    if not basis:
        raise ValueError("empty derivation basis")
    for b in basis:
        if b.spec != base:
            raise ValueError("derivation over the wrong field")
    if linalg.rank([b.coeffs for b in basis]) != len(basis):
        raise NotIndependent("derivation basis is linearly dependent over the field")
    return basis


def _commuting_structure(base: FieldSpec, basis: tuple[Derivation, ...]) -> DiffStructure:
    """The structure of a basis whose brackets are known to vanish."""
    zero = [RatFun.zero(base)] * len(basis)
    return DiffStructure(base, basis, {(i, j): zero for j in range(len(basis)) for i in range(j)})


def build_structure(base: FieldSpec, basis) -> DiffStructure:
    """Verify independence and bracket closure; compute structure constants."""
    basis = _independent_basis(base, basis)
    constants = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            br = bracket(basis[i], basis[j])
            coeffs, residual = _expand_in_basis(basis, br)
            if not residual.is_zero():
                raise NotClosed((i, j), residual)
            constants[(i, j)] = coeffs
    return DiffStructure(base, basis, constants)


def deRham_d0(a: RatFun, s: DiffStructure) -> list[RatFun]:
    """The differential of a scalar: (d a)(δ) = δ(a), in dual-basis coordinates."""
    return [delta.apply(a) for delta in s.basis]


def deRham_d1(omega: list[RatFun], s: DiffStructure) -> linalg.Matrix:
    """d of a 1-form, including the bracket correction term, as the
    antisymmetric d x d matrix of its values on pairs of basis elements."""
    d = s.dim
    out = linalg.zeros(s.base, d, d)
    for i in range(d):
        for j in range(i + 1, d):
            term = s.basis[i].apply(omega[j]) - s.basis[j].apply(omega[i])
            v = term - linalg.mat_vec([omega], s.constants(i, j))[0]
            out[i][j] = v
            out[j][i] = -v
    return out


def lie_derivative(index: int, omega: list[RatFun], s: DiffStructure) -> list[RatFun]:
    """Lie derivative along the basis derivation with the given index."""
    d_pair = deRham_d0(omega[index], s)
    contraction = deRham_d1(omega, s)[index]
    return [a + b for a, b in zip(d_pair, contraction)]


def lie_derivative_general(deriv: Derivation, omega: list[RatFun], s: DiffStructure) -> list[RatFun]:
    """Lie derivative along an arbitrary derivation in the span of the basis."""
    coeffs, residual = _expand_in_basis(s.basis, deriv)
    if not residual.is_zero():
        raise ValueError("derivation is not in the span of the basis")
    d_pair = deRham_d0(linalg.mat_vec([omega], coeffs)[0], s)
    contraction = linalg.mat_vec(linalg.transpose(deRham_d1(omega, s)), coeffs)
    return [a + b for a, b in zip(d_pair, contraction)]


# --- morphisms ----------------------------------------------------------------


class DiffMorphism(NamedTuple):
    """A ring homomorphism with a compatible map on 1-forms.

    ``gen_images`` sends each source variable to its image; ``omega_matrix``
    has shape (target dim) x (source dim) and gives the image of the i-th
    source dual basis element as its i-th column.
    """

    source: DiffStructure
    target: DiffStructure
    gen_images: dict
    omega_matrix: list

    def apply(self, a: RatFun) -> RatFun:
        if a.is_zero():
            return RatFun.zero(self.target.base)
        return substitute(a, self.gen_images, self.target.base)

    def push_omega(self, omega: list[RatFun]) -> list[RatFun]:
        """W·φ(ω) for the omega matrix W."""
        return linalg.mat_vec(self.omega_matrix, [self.apply(c) for c in omega])

    def push_two_form(self, t: linalg.Matrix) -> linalg.Matrix:
        """W·φ(T)·Wᵀ for the omega matrix W."""
        w = self.omega_matrix
        pushed = linalg.entrywise(self.apply, t)
        return linalg.mat_mul(linalg.mat_mul(w, pushed), linalg.transpose(w))


class MorphismVerdict(NamedTuple):
    kind: str  # "ok" | "d_compat_fail" | "integrability_fail"
    variable: str | None = None
    dual_index: int | None = None
    witness_form: list[RatFun] | None = None
    witness_two_form: linalg.Matrix | None = None

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


def d_compat_failure(m: DiffMorphism) -> MorphismVerdict | None:
    """The first source variable v with d(φ(v)) ≠ W·φ(dv), as a
    ``d_compat_fail`` verdict, or None when the morphism is d-compatible;
    by the Leibniz rule the generators suffice."""
    src = m.source
    for v in src.base.variables:
        lhs = deRham_d0(m.apply(RatFun.variable(src.base, v)), m.target)
        rhs = m.push_omega(deRham_d0(RatFun.variable(src.base, v), src))
        if lhs != rhs:
            diff = [a - b for a, b in zip(lhs, rhs)]
            return MorphismVerdict("d_compat_fail", variable=v, witness_form=diff)
    return None


def check_morphism(m: DiffMorphism) -> MorphismVerdict:
    """Check d-compatibility on the source variables and the integrability
    condition on the source dual basis; sufficiency on generators follows
    from the Leibniz rule and linearity."""
    failure = d_compat_failure(m)
    if failure is not None:
        return failure
    src = m.source
    for i, omega_i in enumerate(linalg.identity(src.base, src.dim)):
        lhs = deRham_d1(m.push_omega(omega_i), m.target)
        rhs = m.push_two_form(deRham_d1(omega_i, src))
        diff = linalg.mat_sub(lhs, rhs)
        if not linalg.is_zero_matrix(diff):
            return MorphismVerdict("integrability_fail", dual_index=i, witness_two_form=diff)
    return MorphismVerdict("ok")


# --- parameterized structures ---------------------------------------------------


class ParamStructure(NamedTuple):
    """A commuting basis split into principal and parameter derivations.

    The first ``principal_count`` basis elements annihilate the constant
    variables and span the relative directions; the remaining
    ``parameter_count`` elements restrict to a basis of derivations of the
    constant subfield.
    """

    full: DiffStructure
    principal_count: int
    parameter_count: int
    constant_variables: tuple[str, ...]
    principal_structure: DiffStructure

    @property
    def base(self) -> FieldSpec:
        return self.full.base

    @property
    def principal(self) -> tuple[Derivation, ...]:
        return self.full.basis[: self.principal_count]

    @property
    def parameter(self) -> tuple[Derivation, ...]:
        return self.full.basis[self.principal_count:]


def build_param_structure(base, principal, parameter, constant_variables) -> ParamStructure:
    """Validate and assemble a parameterized structure.

    Only fully commuting bases are accepted; in that setting the stability
    of the principal directions under the parameter ones holds identically.
    Beyond the commuting and annihilation conditions this also checks that
    the principal span is exactly the span of the partials of the
    non-constant variables (so the declared constants are precisely the
    joint constants of the principal directions) and that the parameter
    restrictions to the constant subfield stay independent.
    """
    principal = tuple(principal)
    parameter = tuple(parameter)
    constant_variables = tuple(constant_variables)
    basis = _independent_basis(base, principal + parameter)
    for v in constant_variables:
        base.index(v)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            br = bracket(basis[i], basis[j])
            if not br.is_zero():
                raise NotCommuting((i, j), br)
    const_idx = {base.index(v) for v in constant_variables}
    for i, d in enumerate(principal):
        for v in constant_variables:
            val = d.apply(RatFun.variable(base, v))
            if not val.is_zero():
                raise PrincipalMovesConstants(i, v)
    nonconst = [n for n in range(len(base)) if n not in const_idx]
    principal_nonconst = [[d.coeffs[n] for n in nonconst] for d in principal]
    if linalg.rank(principal_nonconst) != len(nonconst):
        raise ConstantsMismatch(
            "principal derivations do not span all non-constant directions"
        )
    if parameter:
        param_const = [[d.coeffs[n] for n in sorted(const_idx)] for d in parameter]
        if linalg.rank(param_const) != len(parameter):
            raise NotIndependent(
                "parameter derivations restrict to dependent derivations of the constants"
            )
    return ParamStructure(
        full=_commuting_structure(base, basis),
        principal_count=len(principal),
        parameter_count=len(parameter),
        constant_variables=constant_variables,
        principal_structure=_commuting_structure(base, principal),
    )
