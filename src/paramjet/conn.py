"""Differential modules presented by connection matrices.

A module of rank m over a parameterized structure stores one m x m matrix
per principal derivation in the convention ∂(ē) = −ē·A_∂, so a coordinate
vector v is horizontal exactly when ∂i(v) = Ai·v for every principal
direction.  The flatness test, the tensor calculus, extension of scalars,
the jet-membership oracle and a degree-bounded horizontal-vector solver
all live here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import linalg
from .diffstruct import (
    DiffMorphism,
    ParamStructure,
    d_compat_failure,
)
from .errors import MorphismInvalid, NotFlat, SemanticError, StructureMismatch
from .field import FieldSpec, MultiPoly, RatFun, poly_divexact, reciprocal_lcm
from .jet import (
    jet11_membership_defect,
    jet11_omega_left,
    jet11_omega_pair,
    jet11_omega_right,
    jet11_scale_right,
    jet11_unit,
    jet11_zero,
)

Matrix = list


class DiffModule:
    """A finite-rank module with one connection matrix per principal
    derivation.  ``flat`` records what is known of its integrability: None
    until known, set True or False by ``check_integrability``, True from
    ``trivial_module``, and True from a constructor when a theorem makes
    its result flat: ``inherit_flat`` for ``tensor``, ``hom``, ``dual``,
    ``direct_sum`` and the Baer sub of flat operands, and
    ``prolong._prolonged_core`` and ``prolong.at2_module``, which refuse
    curved input.  ``extend_scalars`` and declared modules leave None."""

    __slots__ = ("ps", "rank", "conn", "flat")

    def __init__(self, ps: ParamStructure, rank: int, conn: tuple):
        if len(conn) != ps.principal_count:
            raise StructureMismatch("one connection matrix per principal derivation")
        for a in conn:
            if linalg.shape(a) != (rank, rank):
                raise StructureMismatch("connection matrix shape mismatch")
        self.ps = ps
        self.rank = rank
        self.conn = conn
        self.flat = None

    @property
    def spec(self) -> FieldSpec:
        return self.ps.base

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffModule)
            and self.ps == other.ps
            and self.rank == other.rank
            and all(linalg.mat_eq(a, b) for a, b in zip(self.conn, other.conn))
        )


def trivial_module(ps: ParamStructure, rank: int) -> DiffModule:
    conn = tuple(linalg.zeros(ps.base, rank, rank) for _ in range(ps.principal_count))
    m = DiffModule(ps, rank, conn)
    m.flat = True
    return m


class IntegrabilityVerdict(NamedTuple):
    flat: bool
    witness: tuple | None = None  # (i, j, residual matrix)


def curvature_residual(m: DiffModule, i: int, j: int) -> Matrix:
    """∂i(Aj) − ∂j(Ai) − [Ai, Aj].  The structure-constant term −Σq c_ij^q Aq
    of the general formula vanishes, because build_param_structure accepts
    commuting bases only."""
    di, dj = m.ps.principal[i], m.ps.principal[j]
    ai, aj = m.conn[i], m.conn[j]
    res = linalg.mat_sub(
        linalg.entrywise(di.apply, aj), linalg.entrywise(dj.apply, ai)
    )
    return linalg.mat_sub(res, linalg.mat_sub(linalg.mat_mul(ai, aj), linalg.mat_mul(aj, ai)))


def check_integrability(m: DiffModule) -> IntegrabilityVerdict:
    """The curvature test in full, whatever ``m.flat`` records, so it stays
    an independent route to a flatness that a constructor recorded; the
    first nonzero residual, pairs in order, is the witness."""
    p = m.ps.principal_count
    for i in range(p):
        for j in range(i + 1, p):
            res = curvature_residual(m, i, j)
            if not linalg.is_zero_matrix(res):
                m.flat = False
                return IntegrabilityVerdict(False, (i, j, res))
    m.flat = True
    return IntegrabilityVerdict(True)


def inherit_flat(result: DiffModule, *operands: DiffModule) -> DiffModule:
    """Record ``result`` as flat when every operand is known flat; a curved
    or unchecked operand leaves None.  Sound only for a construction whose
    curvature is built from its operands' curvatures, as its docstring
    shows."""
    if all(op.flat is True for op in operands):
        result.flat = True
    return result


def require_flat(m: DiffModule):
    if m.flat:
        return
    verdict = check_integrability(m)
    if not verdict.flat:
        raise NotFlat(verdict.witness)


# --- tensor calculus -------------------------------------------------------------


def require_same_structure(m: DiffModule, n: DiffModule):
    if m.ps != n.ps:
        raise StructureMismatch("modules over different parameterized structures")


def tensor(m: DiffModule, n: DiffModule) -> DiffModule:
    """Basis e_a⊗f_b ordered row-major over (left basis x right basis); the
    Leibniz rule ∂(e⊗f) = ∂e⊗f + e⊗∂f makes each matrix the Kronecker sum
    A⊗I + I⊗B.

    Flat when both factors are: ∂i is entrywise and the cross terms of
    [Ai⊗I + I⊗Bi, Aj⊗I + I⊗Bj] cancel, so the curvature is F_A⊗I + I⊗F_B."""
    require_same_structure(m, n)
    conn = tuple(linalg.kron_sum(a, b) for a, b in zip(m.conn, n.conn))
    return inherit_flat(DiffModule(m.ps, m.rank * n.rank, conn), m, n)


def dual(m: DiffModule) -> DiffModule:
    """Connection −Aᵀ.  Flat when M is: [Aiᵀ, Ajᵀ] = −[Ai, Aj]ᵀ, so the
    curvature is −F_Aᵀ."""
    conn = tuple(linalg.mat_neg(linalg.transpose(a)) for a in m.conn)
    return inherit_flat(DiffModule(m.ps, m.rank, conn), m)


def hom(m: DiffModule, n: DiffModule) -> DiffModule:
    """Internal Hom N ⊗ M^∨: on matrices Ψ it acts as Ψ ↦ A^N Ψ − Ψ A^M,
    vectorized row-major over (dst basis x src basis).  Flat when M and N
    are, through ``dual`` and ``tensor``."""
    return tensor(n, dual(m))


def direct_sum(m: DiffModule, n: DiffModule) -> DiffModule:
    """Block-diagonal connection.  Flat when M and N are: products of
    block-diagonal matrices stay block-diagonal, so the curvature is the
    block-diagonal matrix of F_A and F_B."""
    require_same_structure(m, n)
    sizes = [m.rank, n.rank]
    conn = [linalg.block(m.spec, sizes, sizes, {(0, 0): a, (1, 1): b}) for a, b in zip(m.conn, n.conn)]
    return inherit_flat(DiffModule(m.ps, m.rank + n.rank, tuple(conn)), m, n)


# --- morphisms --------------------------------------------------------------------


class ModMorphism:
    __slots__ = ("src", "dst", "matrix")

    def __init__(self, src: DiffModule, dst: DiffModule, matrix: Matrix):
        if linalg.shape(matrix) != (dst.rank, src.rank):
            raise StructureMismatch("morphism matrix shape mismatch")
        self.src = src
        self.dst = dst
        self.matrix = matrix  # dst.rank x src.rank


class MorphismCheck(NamedTuple):
    ok: bool
    index: int | None = None
    residual: Matrix | None = None


def morphism_check(t: Matrix, m: DiffModule, n: DiffModule) -> MorphismCheck:
    """Intertwining test: ∂i(T) = Ai^dst·T − T·Ai^src for every principal i."""
    require_same_structure(m, n)
    if linalg.shape(t) != (n.rank, m.rank):
        raise StructureMismatch("morphism matrix must be dst.rank x src.rank")
    for i, d in enumerate(m.ps.principal):
        lhs = linalg.entrywise(d.apply, t)
        rhs = linalg.mat_sub(linalg.mat_mul(n.conn[i], t), linalg.mat_mul(t, m.conn[i]))
        res = linalg.mat_sub(lhs, rhs)
        if not linalg.is_zero_matrix(res):
            return MorphismCheck(False, i, res)
    return MorphismCheck(True)


# --- extension of scalars ----------------------------------------------------------


def extend_scalars(morphism: DiffMorphism, module: DiffModule, target: ParamStructure) -> DiffModule:
    """Transport a module along a morphism of the principal structures.

    Only d-compatibility of the morphism is enforced here; if its
    integrability condition fails, the transported module is typically
    curved, mirroring the source of the failure, so the result's flatness
    is left unknown.  Entries are pushed through the ring homomorphism, so
    substitution poles propagate.
    """
    if morphism.source != module.ps.principal_structure:
        raise MorphismInvalid("morphism source is not the module's principal structure")
    if morphism.target != target.principal_structure:
        raise MorphismInvalid("morphism target is not the target principal structure")
    failure = d_compat_failure(morphism)
    if failure is not None:
        raise MorphismInvalid(f"morphism is not d-compatible at {failure.variable!r}")
    pushed = [linalg.entrywise(morphism.apply, a) for a in module.conn]
    conn = []
    for s in range(target.principal_count):
        acc = linalg.zeros(target.base, module.rank, module.rank)
        for j in range(module.ps.principal_count):
            w = morphism.omega_matrix[s][j]
            if not w.is_zero():
                acc = linalg.mat_add(acc, linalg.mat_scale(w, pushed[j]))
        conn.append(acc)
    return DiffModule(target, module.rank, tuple(conn))


# --- jets of module elements --------------------------------------------------------


class MembershipVerdict(NamedTuple):
    ok: bool
    witness: tuple | None = None  # (i, j) pair of principal indices


def phi2_membership(m: DiffModule) -> MembershipVerdict:
    """Second-order jet membership oracle.

    For each basis vector, the once-lifted element is lifted again inside
    P1 ⊗ P1 ⊗ M and tested for membership in the 2-jet subring, entirely
    through the jet-ring arithmetic; by design this is an independent
    route to the flatness verdict of ``check_integrability``.
    """
    s = m.ps.principal_structure
    p = s.dim
    first_fail: tuple[int, int] | None = None
    for j in range(m.rank):
        # rho_i = ρ(∂i)(e_j) as coordinate vectors
        rho = [[-m.conn[i][l][j] for l in range(m.rank)] for i in range(p)]
        components = [jet11_zero(s) for _ in range(m.rank)]
        # 1 ⊗ 1 ⊗ e_j
        components[j] = components[j].add(jet11_unit(s))
        for i in range(p):
            for l in range(m.rank):
                c = rho[i][l]
                if c.is_zero():
                    continue
                neg = -c
                # − Σ 1 ⊗ ωi ⊗ mi  and  − Σ ωi ⊗ 1 ⊗ mi
                components[l] = components[l].add(
                    jet11_scale_right(jet11_omega_right(i, s), neg, s)
                )
                components[l] = components[l].add(
                    jet11_scale_right(jet11_omega_left(i, s), neg, s)
                )
            # + Σ ωi ⊗ ∇(mi): ∇(mi) has ωu-component ∂u(mi) − Au·mi
            for u in range(p):
                du = m.ps.principal[u]
                au_mi = linalg.mat_vec(m.conn[u], rho[i])
                for l in range(m.rank):
                    c = du.apply(rho[i][l]) - au_mi[l]
                    if not c.is_zero():
                        components[l] = components[l].add(
                            jet11_scale_right(jet11_omega_pair(i, u, s), c, s)
                        )
        for l in range(m.rank):
            defect = jet11_membership_defect(components[l], s)
            if defect is None:
                raise AssertionError("lift left/right slots diverged (internal bug)")
            for a in range(p):
                for b in range(a + 1, p):
                    if not defect[a][b].is_zero():
                        if first_fail is None or (a, b) < first_fail:
                            first_fail = (a, b)
    if first_fail is not None:
        return MembershipVerdict(False, first_fail)
    return MembershipVerdict(True)


# --- constants and horizontal vectors --------------------------------------------------


def constants_check(a: RatFun, ps: ParamStructure) -> bool:
    """True when every principal derivation kills the element."""
    return all(d.apply(a).is_zero() for d in ps.principal)


def _monomials_up_to(nvars: int, degree: int):
    out = [()]
    for _ in range(nvars):
        out = [e + (k,) for e in out for k in range(degree - sum(e) + 1)]
    out.sort(key=lambda e: (sum(e), e))
    return out


# most unknowns (rank x monomials) a horizontal search may set up; the
# system grows as bound^nvars, so a larger search is refused up front
MAX_UNKNOWNS = 4096


def horizontal_space(m: DiffModule, degree_bound: int) -> list[list[RatFun]]:
    """Search for horizontal vectors with a bounded rational ansatz.

    The ansatz is v = N / D^degree_bound where D is the monic lcm of all
    connection-entry denominators and N is a polynomial vector of total
    degree at most degree_bound * (1 + deg D); this family contains every
    vector whose denominator divides a product of factors of D raised to
    the bound with numerator degree up to the bound.  The equations
    ∂i(v) = Ai·v are cleared to polynomial identities and solved exactly
    over Q; the returned vectors are a Q-basis of the solutions inside the
    family (sound, not complete beyond the bound).  Each equation row is
    keyed by its component and the packed key of its monomial, so the
    column of an unknown is its principal's blocks each shifted by one
    integer addition (``_equation_blocks``).  A search of more than
    MAX_UNKNOWNS unknowns is refused with a SemanticError.
    """
    spec = m.spec
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    inv_d = reciprocal_lcm((entry for a in m.conn for row in a for entry in row), spec)
    d_poly = inv_d.den
    num_bound = degree_bound * (1 + max(d_poly.total_degree(), 0))
    nmono = math.comb(num_bound + len(spec), len(spec))
    if m.rank * nmono > MAX_UNKNOWNS:
        raise SemanticError(
            f"horizontal search at degree bound {degree_bound} has {m.rank * nmono} "
            f"unknowns, more than {MAX_UNKNOWNS}"
        )
    inv_denom = inv_d ** degree_bound
    denom = inv_denom.den
    monomials = _monomials_up_to(len(spec), num_bound)
    keys = [spec.key(e) for e in monomials]
    units = spec.units

    # Row (i, l', x^f) is the x^f coefficient of component l' of principal
    # i's cleared identity, numbered as its key first appears; the column of
    # unknown (l, x^e) is made of the blocks of _equation_blocks shifted by
    # x^e, or by x^(e - 1_n) times e_n for the derivative blocks.  With packed
    # keys a shift is one integer addition.
    rows: list[dict[int, int]] = []
    for i in range(m.ps.principal_count):
        derivative, lead, coupling, component = _equation_blocks(m, i, denom, num_bound)
        row_of: dict[int, dict[int, int]] = {}
        for l in range(m.rank):
            for k, (e, packed) in enumerate(zip(monomials, keys)):
                here = packed + l * component
                shifts = [(block, here - units[n], e[n]) for n, block in derivative if e[n]]
                shifts.append((lead, here, 1))
                shifts += [(block, packed, 1) for block in coupling[l]]
                col: dict[int, int] = {}
                for block, shift, factor in shifts:
                    for f, c in block:
                        col[f + shift] = col.get(f + shift, 0) + factor * c
                unknown = l * nmono + k
                for key, x in col.items():
                    row = row_of.get(key)
                    if row is None:
                        row = row_of[key] = {}
                        rows.append(row)
                    if x:
                        row[unknown] = x

    basis = linalg.fraction_nullspace(rows, m.rank * nmono)
    out = []
    for sol in basis:
        vec = []
        for l in range(m.rank):
            terms = [(key, c) for k, key in enumerate(keys) if (c := sol[l * nmono + k])]
            vec.append(RatFun.from_poly(MultiPoly.from_keys(spec, terms)) * inv_denom)
        out.append(vec)
    return out


def _equation_blocks(m: DiffModule, i: int, denom: MultiPoly, num_bound: int):
    """Principal i's cleared identity, per unknown monomial, as blocks of
    integer terms [(row key, int)], and the key offset of one component.

    With A_i = P_i / d_i and ∂i = Σn c_n ∂n / c_den (polynomial c_n), the
    identity for N / D is d_i·(∂'(N)·D − N·∂'(D)) − c_den·D·P_i·N = 0,
    ∂' = Σn c_n ∂n.  For N = x^e in coordinate l it is the sum of e_n·x^(e−1_n)
    times d_i·D·c_n (``derivative``, one block per n with c_n ≠ 0) and x^e
    times −d_i·∂'(D) in component l (``lead``) and x^e times −c_den·D·P[l′][l]
    in component l′ (``coupling[l]``, one block per l′).  Every block is
    scaled by one common denominator, which leaves the solutions alone.

    The row key of x^f in component l′ is the packed key of f (see
    ``field.FieldSpec``) plus l′ times ``component``, the least key of
    degree num_bound plus the largest total degree of a block plus one:
    every block shifted by a monomial of degree at most num_bound stays
    below that degree, so no two rows share a key, and shifting a block is
    an integer addition on the keys its polynomial already holds."""
    spec = m.spec
    a = m.conn[i]
    coeffs = m.ps.principal[i].coeffs
    d_i = reciprocal_lcm((entry for row in a for entry in row), spec).den
    c_den = reciprocal_lcm(coeffs, spec).den
    c_num = [c.num * poly_divexact(c_den, c.den) for c in coeffs]
    d_i_denom = d_i * denom
    derivative = [(n, d_i_denom * c) for n, c in enumerate(c_num) if not c.is_zero()]
    d_denom = MultiPoly.zero(spec)
    for n, c in enumerate(c_num):
        if not c.is_zero():
            d_denom = d_denom + c * denom.derivative(n)
    lead = -(d_i * d_denom)
    c_den_denom = c_den * denom
    coupling = [
        [
            (lp, -(c_den_denom * a[lp][l].num * poly_divexact(d_i, a[lp][l].den)))
            for lp in range(m.rank)
            if not a[lp][l].is_zero()
        ]
        for l in range(m.rank)
    ]
    polys = [p for _, p in derivative] + [lead] + [p for col in coupling for _, p in col]
    scale = math.lcm(*(p.den for p in polys))
    component = spec.degree_key(num_bound + max(p.total_degree() for p in polys) + 1)

    def integer(p: MultiPoly, lp: int = 0) -> list[tuple[int, int]]:
        k = scale // p.den
        offset = lp * component
        return [(e + offset, c * k) for e, c in p.terms.items()]

    return (
        [(n, integer(p)) for n, p in derivative],
        integer(lead),
        [[integer(p, lp) for lp, p in col] for col in coupling],
        component,
    )
