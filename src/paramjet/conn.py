"""Differential modules presented by connection matrices.

A module of rank m over a parameterized structure stores one m x m matrix
per principal derivation in the convention ∂(ē) = −ē·A_∂, so a coordinate
vector v is horizontal exactly when ∂i(v) = Ai·v for every principal
direction.  The flatness test, the tensor calculus, extension of scalars,
the jet-membership oracle and a degree-bounded horizontal-vector solver
all live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .diffstruct import (
    DiffMorphism,
    ParamStructure,
    check_morphism,
)
from .errors import MorphismInvalid, NotFlat, StructureMismatch
from .field import FieldSpec, MultiPoly, RatFun, poly_divexact, poly_gcd
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


@dataclass
class DiffModule:
    """A finite-rank module with one connection matrix per principal
    derivation; ``flat`` caches the integrability verdict."""

    ps: ParamStructure
    rank: int
    conn: tuple
    flat: bool | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.conn) != self.ps.principal_count:
            raise StructureMismatch("one connection matrix per principal derivation")
        for a in self.conn:
            if linalg.shape(a) != (self.rank, self.rank):
                raise StructureMismatch("connection matrix shape mismatch")

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


@dataclass(frozen=True)
class IntegrabilityVerdict:
    flat: bool
    witness: tuple | None = None  # (i, j, residual matrix)

    def __bool__(self) -> bool:
        return self.flat


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
    p = m.ps.principal_count
    for i in range(p):
        for j in range(i + 1, p):
            res = curvature_residual(m, i, j)
            if not linalg.is_zero_matrix(res):
                m.flat = False
                return IntegrabilityVerdict(False, (i, j, res))
    m.flat = True
    return IntegrabilityVerdict(True)


def require_flat(m: DiffModule):
    if m.flat:
        return
    verdict = check_integrability(m)
    if not verdict:
        raise NotFlat(verdict.witness)


# --- tensor calculus -------------------------------------------------------------


def _same_structure(m: DiffModule, n: DiffModule):
    if m.ps != n.ps:
        raise StructureMismatch("modules over different parameterized structures")


def tensor(m: DiffModule, n: DiffModule) -> DiffModule:
    """Basis e_a⊗f_b ordered row-major over (left basis x right basis); the
    Leibniz rule ∂(e⊗f) = ∂e⊗f + e⊗∂f makes each matrix the Kronecker sum
    A⊗I + I⊗B."""
    _same_structure(m, n)
    conn = tuple(linalg.kron_sum(a, b) for a, b in zip(m.conn, n.conn))
    return DiffModule(m.ps, m.rank * n.rank, conn)


def dual(m: DiffModule) -> DiffModule:
    conn = tuple(linalg.mat_neg(linalg.transpose(a)) for a in m.conn)
    return DiffModule(m.ps, m.rank, conn)


def hom(m: DiffModule, n: DiffModule) -> DiffModule:
    """Internal Hom N ⊗ M^∨: on matrices Ψ it acts as Ψ ↦ A^N Ψ − Ψ A^M,
    vectorized row-major over (dst basis x src basis)."""
    return tensor(n, dual(m))


def direct_sum(m: DiffModule, n: DiffModule) -> DiffModule:
    _same_structure(m, n)
    conn = []
    for a, b in zip(m.conn, n.conn):
        za = linalg.zeros(m.spec, m.rank, n.rank)
        zb = linalg.zeros(m.spec, n.rank, m.rank)
        conn.append(linalg.block([[a, za], [zb, b]]))
    return DiffModule(m.ps, m.rank + n.rank, tuple(conn))


# --- morphisms --------------------------------------------------------------------


@dataclass(frozen=True)
class ModMorphism:
    src: DiffModule
    dst: DiffModule
    matrix: tuple  # dst.rank x src.rank

    def __post_init__(self):
        if linalg.shape(list(self.matrix)) != (self.dst.rank, self.src.rank):
            raise StructureMismatch("morphism matrix shape mismatch")


@dataclass(frozen=True)
class MorphismCheck:
    ok: bool
    index: int | None = None
    residual: tuple | None = None


def morphism_check(t: Matrix, m: DiffModule, n: DiffModule) -> MorphismCheck:
    """Intertwining test: ∂i(T) = Ai^dst·T − T·Ai^src for every principal i."""
    _same_structure(m, n)
    if linalg.shape(t) != (n.rank, m.rank):
        raise StructureMismatch("morphism matrix must be dst.rank x src.rank")
    for i, d in enumerate(m.ps.principal):
        lhs = linalg.entrywise(d.apply, t)
        rhs = linalg.mat_sub(linalg.mat_mul(n.conn[i], t), linalg.mat_mul(t, m.conn[i]))
        res = linalg.mat_sub(lhs, rhs)
        if not linalg.is_zero_matrix(res):
            return MorphismCheck(False, i, tuple(tuple(r) for r in res))
    return MorphismCheck(True)


# --- extension of scalars ----------------------------------------------------------


def extend_scalars(morphism: DiffMorphism, module: DiffModule, target: ParamStructure) -> DiffModule:
    """Transport a module along a morphism of the principal structures.

    Only d-compatibility of the morphism is enforced here; if its
    integrability condition fails, the transported module is typically
    curved, mirroring the source of the failure.  Entries are pushed
    through the ring homomorphism, so substitution poles propagate.
    """
    if morphism.source != module.ps.principal_structure:
        raise MorphismInvalid("morphism source is not the module's principal structure")
    if morphism.target != target.principal_structure:
        raise MorphismInvalid("morphism target is not the target principal structure")
    verdict = check_morphism(morphism)
    if verdict.kind == "d_compat_fail":
        raise MorphismInvalid(f"morphism is not d-compatible at {verdict.variable!r}")
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


@dataclass(frozen=True)
class MembershipVerdict:
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
            if defect.is_zero():
                continue
            for a in range(p):
                for b in range(a + 1, p):
                    if not defect.at(a, b).is_zero():
                        if first_fail is None or (a, b) < first_fail:
                            first_fail = (a, b)
    if first_fail is not None:
        return MembershipVerdict(False, first_fail)
    return MembershipVerdict(True)


# --- constants and horizontal vectors --------------------------------------------------


def constants_check(a: RatFun, ps: ParamStructure) -> bool:
    """True when every principal derivation kills the element."""
    return all(d.apply(a).is_zero() for d in ps.principal)


def _poly_lcm(polys: list[MultiPoly], spec: FieldSpec) -> MultiPoly:
    acc = MultiPoly.one(spec)
    for p in polys:
        if p.is_one():
            continue
        g = poly_gcd(acc, p)
        acc = poly_divexact(acc * p, g)
    lc = acc.leading()[1]
    if lc != 1:
        acc = acc.scale(1 / lc)
    return acc


def _monomials_up_to(nvars: int, degree: int):
    def rec(prefix, remaining, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    out = []
    for e in rec([], degree, nvars):
        out.append(e)
    out.sort(key=lambda e: (sum(e), e))
    return out


def horizontal_space(m: DiffModule, degree_bound: int) -> list[list[RatFun]]:
    """Search for horizontal vectors with a bounded rational ansatz.

    The ansatz is v = N / D^degree_bound where D is the monic lcm of all
    connection-entry denominators and N is a polynomial vector of total
    degree at most degree_bound * (1 + deg D); this family contains every
    vector whose denominator divides a product of factors of D raised to
    the bound with numerator degree up to the bound.  The equations
    ∂i(v) = Ai·v are cleared to polynomial identities and solved exactly
    over Q; the returned vectors are a Q-basis of the solutions inside the
    family (sound, not complete beyond the bound).
    """
    spec = m.spec
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    dens = [entry.den for a in m.conn for row in a for entry in row]
    d_poly = _poly_lcm(dens, spec)
    denom = d_poly.pow(degree_bound) if not d_poly.is_one() else MultiPoly.one(spec)
    num_bound = degree_bound * (1 + max(d_poly.total_degree(), 0))
    monomials = _monomials_up_to(len(spec), num_bound)
    nunknowns = m.rank * len(monomials)

    # Row equations: for each principal i and each coordinate l,
    #   d_i * (∂i(N)·D − N·∂i(D)) − D · P_i · N = 0,
    # with A_i = P_i / d_i after clearing entry denominators.
    rows: list[dict[int, Fraction]] = []
    row_index: dict[tuple[int, int, tuple], int] = {}

    def add_coeff(eq_key, poly: MultiPoly, unknown: int):
        for e, c in poly.terms.items():
            key = (eq_key[0], eq_key[1], e)
            r = row_index.get(key)
            if r is None:
                r = len(rows)
                row_index[key] = r
                rows.append({})
            row = rows[r]
            acc = row.get(unknown, 0) + c
            if acc:
                row[unknown] = acc
            else:
                row.pop(unknown, None)

    for i, deriv in enumerate(m.ps.principal):
        a = m.conn[i]
        d_i = _poly_lcm([entry.den for row in a for entry in row], spec)
        p_mat = [
            [entry.num * poly_divexact(d_i, entry.den) for entry in row]
            for row in a
        ]
        ddenom = [denom.derivative(n) for n in range(len(spec))]
        # rational derivation coefficients are cleared too, so the final
        # identity is d_i·(∂'i(N)·D − N·∂'i(D)) = coeff_den·D·P_i·N with
        # ∂'i := coeff_den·∂i polynomial
        coeff_den = _poly_lcm([c.den for c in deriv.coeffs], spec)
        coeff_num = [c.num * poly_divexact(coeff_den, c.den) for c in deriv.coeffs]
        dD = MultiPoly.zero(spec)
        for n in range(len(spec)):
            if not coeff_num[n].is_zero():
                dD = dD + coeff_num[n] * ddenom[n]
        for l in range(m.rank):
            for k, e_mono in enumerate(monomials):
                unknown = l * len(monomials) + k
                mono = MultiPoly(spec, {tuple(e_mono): Fraction(1)})
                dmono = MultiPoly.zero(spec)
                for n in range(len(spec)):
                    if not coeff_num[n].is_zero():
                        dmono = dmono + coeff_num[n] * mono.derivative(n)
                lead = d_i * (dmono * denom - mono * dD)
                add_coeff((i, l), lead, unknown)
                for lp in range(m.rank):
                    coeff = p_mat[lp][l]
                    if coeff.is_zero():
                        continue
                    add_coeff((i, lp), -(coeff_den * denom * coeff * mono), unknown)

    basis = linalg.fraction_nullspace(rows, nunknowns)
    out = []
    den_rf = RatFun.from_poly(denom)
    for sol in basis:
        vec = []
        for l in range(m.rank):
            terms = {}
            for k, e_mono in enumerate(monomials):
                c = sol[l * len(monomials) + k]
                if c:
                    terms[tuple(e_mono)] = c
            vec.append(RatFun.from_poly(MultiPoly(spec, terms)) / den_rf)
        out.append(vec)
    return out
