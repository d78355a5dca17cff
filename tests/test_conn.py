import argparse
import functools
import gc
import math
import pathlib
import random
import time

import pytest

from paramjet import field, linalg
from paramjet.cli import parse_session, run_session
from paramjet.conn import (
    DiffModule,
    ModMorphism,
    check_integrability,
    constants_check,
    curvature_residual,
    direct_sum,
    dual,
    extend_scalars,
    hom,
    horizontal_space,
    morphism_check,
    phi2_membership,
    tensor,
    trivial_module,
)
from paramjet.diffstruct import Derivation, build_param_structure, coordinate_derivation
from paramjet.errors import MorphismInvalid, NotFlat, StructureMismatch
from paramjet.conn import _monomials_up_to
from paramjet.field import FieldSpec, MultiPoly, RatFun, parse_ratfun, poly_divexact, poly_gcd

from conftest import (
    fraction_gauss_jordan,
    gauge_module,
    identity_diff_morphism,
    morphism39,
    perturb_module,
    rand_gauge_module,
    rand_poly,
    rand_ratfun,
    rand_unipotent,
)


def rf(spec, s):
    return parse_ratfun(spec, s)


@pytest.fixture(scope="module")
def fg_setup():
    spec = FieldSpec(["x", "y"])
    ps = build_param_structure(
        spec,
        [coordinate_derivation(spec, "x"), coordinate_derivation(spec, "y")],
        [],
        [],
    )
    def make(f, g):
        return DiffModule(ps, 1, ([[-rf(spec, f)]], [[-rf(spec, g)]]))
    return spec, ps, make


def test_rank_one_p1_always_flat(xt):
    spec, ps = xt
    m = DiffModule(ps, 1, ([[rf(spec, "t/x")]],))
    assert check_integrability(m).flat


def test_fg_flat_iff_crossed_partials(fg_setup):
    spec, ps, make = fg_setup
    assert check_integrability(make("y", "x")).flat
    v = check_integrability(make("y", "0"))
    assert not v.flat
    i, j, res = v.witness
    assert (i, j) == (0, 1)
    assert res[0][0] == rf(spec, "1")


def test_require_flat_checks_a_curved_module_once(fg_setup, monkeypatch):
    import paramjet.conn as conn

    spec, ps, make = fg_setup
    calls = []
    check = conn.check_integrability

    def counted(module):
        calls.append(module)
        return check(module)

    monkeypatch.setattr(conn, "check_integrability", counted)
    curved = make("y", "0")
    with pytest.raises(NotFlat) as exc:
        conn.require_flat(curved)
    assert len(calls) == 1
    i, j, res = exc.value.witness
    assert (i, j) == (0, 1) and res[0][0] == rf(spec, "1")
    flat = make("y", "x")
    conn.require_flat(flat)
    conn.require_flat(flat)  # the cached verdict needs no second check
    assert len(calls) == 2


def test_gauge_connection_flat(x12t):
    spec, ps = x12t
    t = [[rf(spec, "1"), rf(spec, "x1*x2")], [rf(spec, "0"), rf(spec, "1")]]
    g = gauge_module(ps, t)
    assert check_integrability(g).flat


def test_tensor_dual_hom_examples(xt):
    spec, ps = xt
    a = rf(spec, "t/x")
    m = DiffModule(ps, 1, ([[a]],))
    n = DiffModule(ps, 1, ([[rf(spec, "1/x")]],))
    assert tensor(m, n).conn[0][0][0] == a + rf(spec, "1/x")
    assert dual(m).conn[0][0][0] == -a
    assert tensor(m, dual(m)).conn[0][0][0].is_zero()


def test_hom_acts_on_matrices(x12t):
    """hom(M, N) is the connection Ψ ↦ A^N Ψ − Ψ A^M on N x M matrices,
    vectorized row-major over (dst basis x src basis)."""
    spec, ps = x12t
    rng = random.Random(5)
    for rm, rn in ((2, 2), (1, 3), (3, 2)):
        m = rand_gauge_module(spec, ps, rng, rm)
        n = rand_gauge_module(spec, ps, rng, rn)
        h = hom(m, n)
        assert h.rank == rm * rn
        psi = [[rand_ratfun(spec, rng, max_deg=1, terms=2) for _ in range(rm)] for _ in range(rn)]
        vec = [x for row in psi for x in row]
        for i in range(ps.principal_count):
            expected = linalg.mat_sub(
                linalg.mat_mul(n.conn[i], psi), linalg.mat_mul(psi, m.conn[i])
            )
            assert linalg.mat_vec(h.conn[i], vec) == [x for row in expected for x in row]


def test_structure_mismatch_rejected(xt, x12t):
    m = trivial_module(xt[1], 1)
    n = trivial_module(x12t[1], 1)
    with pytest.raises(StructureMismatch):
        tensor(m, n)


def test_flatness_preserved_by_calculus(x12t):
    spec, ps = x12t
    rng = random.Random(9)
    for _ in range(25):
        m = rand_gauge_module(spec, ps, rng, rng.randint(1, 2))
        n = rand_gauge_module(spec, ps, rng, rng.randint(1, 2))
        for derived in (tensor(m, n), dual(m), hom(m, n), direct_sum(m, n)):
            assert check_integrability(derived).flat


def principal_target(dst):
    """The field of dst and a parameterized structure over that same object
    with dst's basis as its principal part: the target that a morphism
    into dst extends scalars to."""
    return dst.base, build_param_structure(dst.base, list(dst.basis), [], [])


def test_extend_scalars_examples(example39):
    src, dst = example39
    spec2, ps2 = principal_target(dst)
    src_ps = build_param_structure(
        src.base, list(src.basis), [], []
    )
    module = DiffModule(
        src_ps,
        1,
        (
            [[rf(src.base, "0")]],
            [[rf(src.base, "0")]],
            [[rf(src.base, "-1")]],
        ),
    )
    pushed = extend_scalars(morphism39(src, dst, "y", "x"), module, ps2)
    assert pushed.conn[0][0][0] == rf(spec2, "-y")
    assert pushed.conn[1][0][0] == rf(spec2, "-x")
    assert check_integrability(pushed).flat

    curved = extend_scalars(morphism39(src, dst, "y", "0"), module, ps2)
    assert not check_integrability(curved).flat

    same = extend_scalars(identity_diff_morphism(src), module, src_ps)
    assert all(linalg.mat_eq(a, b) for a, b in zip(same.conn, module.conn))


def test_extend_scalars_rejects_d_incompatible(example39):
    src, dst = example39
    spec2, ps2 = principal_target(dst)
    src_ps = build_param_structure(src.base, list(src.basis), [], [])
    module = DiffModule(
        src_ps,
        1,
        ([[rf(src.base, "0")]], [[rf(src.base, "0")]], [[rf(src.base, "-1")]]),
    )
    m = morphism39(src, dst, "y", "x")
    bad = m.__class__(
        m.source,
        m.target,
        m.gen_images,
        [[rf(spec2, "x"), m.omega_matrix[0][1], m.omega_matrix[0][2]], m.omega_matrix[1]],
    )
    with pytest.raises(MorphismInvalid, match="not d-compatible"):
        extend_scalars(bad, module, ps2)


def test_extend_scalars_checks_d_compatibility_only(example39, monkeypatch):
    """The transport enforces d-compatibility alone, so it never pushes a
    2-form forward: an integrability failure still transports (to a curved
    module) and a d-incompatible morphism is still refused."""
    from paramjet.diffstruct import DiffMorphism

    src, dst = example39
    spec2, ps2 = principal_target(dst)
    src_ps = build_param_structure(src.base, list(src.basis), [], [])
    module = DiffModule(
        src_ps,
        1,
        ([[rf(src.base, "0")]], [[rf(src.base, "0")]], [[rf(src.base, "-1")]]),
    )
    calls = []
    push = DiffMorphism.push_two_form

    def counted(self, t):
        calls.append(t)
        return push(self, t)

    monkeypatch.setattr(DiffMorphism, "push_two_form", counted)
    assert check_integrability(extend_scalars(morphism39(src, dst, "y", "x"), module, ps2)).flat
    curved = extend_scalars(morphism39(src, dst, "y", "0"), module, ps2)
    assert not check_integrability(curved).flat
    m = morphism39(src, dst, "y", "x")
    bad = m._replace(omega_matrix=[[rf(spec2, "x")] + m.omega_matrix[0][1:], m.omega_matrix[1]])
    with pytest.raises(MorphismInvalid, match="not d-compatible"):
        extend_scalars(bad, module, ps2)
    assert calls == []


def test_phi2_membership_oracle_examples(fg_setup, x12t):
    spec, ps, make = fg_setup
    flat = make("y", "x")
    curved = make("y", "0")
    assert phi2_membership(flat).ok
    fail = phi2_membership(curved)
    assert not fail.ok
    assert fail.witness == check_integrability(curved).witness[:2]
    spec2, ps2 = x12t
    rng = random.Random(19)
    g = rand_gauge_module(spec2, ps2, rng, 2)
    assert phi2_membership(g).ok


def test_oracle_equivalence_random(x12t):
    spec, ps = x12t
    rng = random.Random(21)
    for k in range(10):
        m = rand_gauge_module(spec, ps, rng, rng.randint(1, 3))
        assert phi2_membership(m).ok
        assert check_integrability(m).flat
        p = perturb_module(spec, ps, rng, m)
        vi = check_integrability(p)
        vp = phi2_membership(p)
        assert not vi.flat and not vp.ok
        assert vp.witness == vi.witness[:2]


# ring3 of the generated ratfun-jet sessions: three principal derivations,
# the third the non-coordinate z∂z
RING3 = (
    "field x y z\n"
    "structure\n  principal d1 = 1, 0, 0\n  principal d2 = 0, 1, 0\n  principal d3 = 0, 0, z\n"
    "  constants\nend\n"
)


def ring3_module(*matrices):
    blocks = "".join(
        f"  matrix d{i}\n" + "".join(f"    {row}\n" for row in rows) + "  end\n"
        for i, rows in enumerate(matrices, 1)
    )
    return parse_session(RING3 + f"module M rank {len(matrices[0])}\n{blocks}end\n").modules["M"]


def checked_oracle(m):
    """The oracle's verdict, once its verdict and pair match check_integrability's."""
    vi, vp = check_integrability(m), phi2_membership(m)
    assert vp.ok == vi.flat
    assert vp.witness == (None if vi.flat else vi.witness[:2])
    return vp.ok


@pytest.mark.parametrize(
    "matrices, curved",
    [
        ((["0, 0", "0, 0"], ["0, y", "0, 0"], ["z, 0", "0, 0"]), [(1, 2)]),
        ((["0, 0", "0, 0"], ["0, y", "0, 0"], ["x+y, 0", "0, 0"]), [(0, 2), (1, 2)]),
        ((["y/z, 0", "0, 1"], ["x/z, 0", "0, 0"], ["-x*y/z, 0", "0, z"]), []),
    ],
    ids=["pair-12", "pairs-02-12", "flat"],
)
def test_phi2_witness_is_the_least_curved_pair_of_three(matrices, curved):
    """Over three principal derivations the witness tells pairs apart: the
    oracle's is the least pair whose curvature is nonzero, as in
    check_integrability."""
    m = ring3_module(*matrices)
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
    assert [ij for ij in pairs if not linalg.is_zero_matrix(curvature_residual(m, *ij))] == curved
    assert checked_oracle(m) == (not curved)


def test_phi2_oracle_over_a_non_coordinate_derivation():
    ps = parse_session(RING3).structures["main"]
    rng = random.Random(31)
    for rank in (1, 2, 2):
        g = rand_gauge_module(ps.base, ps, rng, rank)
        assert checked_oracle(g)
        assert not checked_oracle(perturb_module(ps.base, ps, rng, g))


def test_phi2_oracle_on_the_rational_gauge_at2():
    """The rank-6 at2 of fixtures/rational_gauge_at2.session is flat; one
    entry of its d2 matrix moved by x1 makes it curved."""
    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "rational_gauge_at2.session"
    text = path.read_text(encoding="utf-8")
    session = parse_session(text[: text.index("command")] + "command at2 R2 = R\n")
    run_session(session, argparse.Namespace(degree_bound=0, depth=1, rank_cap=8))
    r2 = session.modules["R2"]
    conn = [[list(row) for row in a] for a in r2.conn]
    conn[1][4][1] += parse_ratfun(r2.spec, "x1")
    curved = DiffModule(r2.ps, r2.rank, tuple(conn))
    assert r2.rank == 6
    assert checked_oracle(r2) and not checked_oracle(curved)


def test_phi2_oracle_without_a_principal_derivation():
    """Over a structure with no principal derivation there is no pair to
    test: the oracle answers ok, as check_integrability answers flat."""
    session = parse_session(
        "field x t\nstructure\n  parameter dx = 1, 0\n  parameter dt = 0, 1\n"
        "  constants x t\nend\nmodule Z rank 1\nend\n"
    )
    z = session.modules["Z"]
    assert z.ps.principal_structure.dim == 0
    assert checked_oracle(z)


def test_the_zero_map_into_rank_0_is_a_morphism(xt):
    """A matrix with no rows has every width, so the zero map M -> 0 of a
    rank-2 M is the 0 x 2 matrix []."""
    spec, ps = xt
    m = DiffModule(ps, 2, ([[rf(spec, "t/x"), rf(spec, "0")], [rf(spec, "1"), rf(spec, "1/x")]],))
    zero = DiffModule(ps, 0, ([],))
    assert morphism_check([], m, zero).ok
    assert ModMorphism(m, zero, []).matrix == []
    assert morphism_check([[], []], zero, m).ok
    with pytest.raises(StructureMismatch):
        morphism_check([[rf(spec, "0")] * 2], m, zero)


def test_a_ragged_connection_matrix_is_refused(xt):
    spec, ps = xt
    ragged = [[rf(spec, "t/x"), rf(spec, "0")], [rf(spec, "1")]]
    with pytest.raises(StructureMismatch, match="connection matrix shape"):
        DiffModule(ps, 2, (ragged,))


def test_morphism_check_examples(xt, x12t):
    spec, ps = x12t
    m = trivial_module(ps, 2)
    eye = linalg.identity(spec, 2)
    assert morphism_check(eye, m, m).ok
    rng = random.Random(23)
    g = rand_unipotent(spec, ps, rng, 2)
    gm = gauge_module(ps, g)
    # T = G^{-1} intertwines the trivial module with its gauge transform
    assert morphism_check(linalg.inverse(g), m, gm).ok
    # a variable entry between trivial modules fails with residual dT
    spec1, ps1 = xt
    t1 = trivial_module(ps1, 1)
    v = morphism_check([[rf(spec1, "x")]], t1, t1)
    assert not v.ok
    assert v.residual[0][0] == rf(spec1, "1")


def test_evaluation_map_is_morphism(x12t):
    spec, ps = x12t
    rng = random.Random(29)
    for k in range(20):
        m = rand_gauge_module(spec, ps, rng, 1 + k % 2)
        # the pairing M ⊗ M^∨ -> 1 sends e_a ⊗ e_b^∨ to δ_ab
        pairing = [[RatFun.one(spec) if a == b else RatFun.zero(spec)
                    for a in range(m.rank) for b in range(m.rank)]]
        assert morphism_check(pairing, tensor(m, dual(m)), trivial_module(ps, 1)).ok


def test_horizontal_trivial_and_gauge(xt, x12t):
    spec, ps = x12t
    triv = trivial_module(ps, 3)
    basis = horizontal_space(triv, 0)
    assert [[str(c) for c in v] for v in basis] == [
        ["(1)/(1)", "(0)/(1)", "(0)/(1)"],
        ["(0)/(1)", "(1)/(1)", "(0)/(1)"],
        ["(0)/(1)", "(0)/(1)", "(1)/(1)"],
    ]
    spec1, ps1 = xt
    a = [[rf(spec1, "0"), rf(spec1, "-1")], [rf(spec1, "0"), rf(spec1, "0")]]
    m = DiffModule(ps1, 2, (a,))
    found = horizontal_space(m, 1)
    # the K-span is exactly span{(1,0), (-x,1)}
    assert linalg.rank([list(v) for v in found]) == 2
    for v in found:
        for i, d in enumerate(ps1.principal):
            lhs = [d.apply(c) for c in v]
            rhs = linalg.mat_vec(m.conn[i], list(v))
            assert lhs == rhs
    target = [rf(spec1, "-x"), rf(spec1, "1")]
    assert any(v == target for v in found)


def test_horizontal_xt_empty(xt):
    spec, ps = xt
    m = DiffModule(ps, 1, ([[rf(spec, "t/x")]],))
    for bound in range(4):
        assert horizontal_space(m, bound) == []


def test_horizontal_pole_solution(xt):
    """A connection with a polar solution: d/dx v = v/x has v = c x."""
    spec, ps = xt
    m = DiffModule(ps, 1, ([[rf(spec, "1/x")]],))
    found = horizontal_space(m, 1)
    assert any(v[0] == rf(spec, "x") for v in found)


def test_constants_check_examples(xt):
    spec, ps = xt
    assert constants_check(rf(spec, "t"), ps)
    assert not constants_check(rf(spec, "x"), ps)
    assert constants_check(rf(spec, "t^2/(t+1)"), ps)


def test_horizontal_span_bounded_by_rank(x12t):
    spec, ps = x12t
    rng = random.Random(31)
    m = rand_gauge_module(spec, ps, rng, 2)
    found = horizontal_space(m, 2)
    if found:
        assert linalg.rank([list(v) for v in found]) <= 2
        for v in found:
            for i, d in enumerate(ps.principal):
                lhs = [d.apply(c) for c in v]
                rhs = linalg.mat_vec(m.conn[i], list(v))
                assert lhs == rhs


def test_horizontal_with_non_coordinate_principal():
    """A principal derivation with rational coefficients: (1/x) d/dx; the
    system (1/x) v' = (2/x^2) v has the rational solution x^2."""
    from paramjet.diffstruct import build_param_structure, coordinate_derivation

    spec = FieldSpec(["x", "t"])
    scaled = coordinate_derivation(spec, "x").scale(rf(spec, "1/x"))
    ps = build_param_structure(
        spec, [scaled], [coordinate_derivation(spec, "t")], ["t"]
    )
    m = DiffModule(ps, 1, ([[rf(spec, "2/x^2")]],))
    found = horizontal_space(m, 2)
    assert any(v[0] == rf(spec, "x^2") for v in found)
    for v in found:
        lhs = scaled.apply(v[0])
        assert lhs == rf(spec, "2/x^2") * v[0]


def test_horizontal_leaves_no_garbage_cycles(xt):
    """A horizontal search frees everything it builds by reference
    counting: the cyclic collector finds nothing after one call."""
    spec, ps = xt
    m = DiffModule(ps, 2, ([[rf(spec, "0"), rf(spec, "1")], [rf(spec, "2/(x*(1-x))"), rf(spec, "1/x")]],))
    horizontal_space(m, 2)  # first call: imports and caches
    gc.collect()
    gc.disable()
    try:
        horizontal_space(m, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("a, nullity", [("-1", 3), ("-2", 2), ("-3", 1), ("1/7", 0)])
def test_horizontal_hypergeometric_bound_3(xt, a, nullity):
    """The rank-2 Gauss system for 2F1(a, 2/3; 1/5; x) over Q(x, t) at
    degree bound 3.  For a = -n the polynomial solution F and F*t^k,
    k <= 3 - n, span the solutions in the ansatz (nullity 4 - n); a generic
    a leaves none.  Of the 110 unknowns the 20 free of t are eliminated, a
    29 x 20 system over Q."""
    spec, ps = xt
    b, c = "2/3", "1/5"
    m = DiffModule(ps, 2, ([
        [rf(spec, "0"), rf(spec, "1")],
        [rf(spec, f"({a})*({b})/(x*(1-x))"),
         rf(spec, f"((({a})+({b})+1)*x-({c}))/(x*(1-x))")],
    ],))
    start = time.perf_counter()
    found = horizontal_space(m, 3)
    assert time.perf_counter() - start < 2.0
    assert len(found) == nullity
    (dx,) = ps.principal
    for v in found:
        assert [dx.apply(e) for e in v] == linalg.mat_vec(m.conn[0], list(v))


def _poly_lcm(polys: list[MultiPoly], spec: FieldSpec) -> MultiPoly:
    """The monic lcm by pairwise gcds, independent of the exponent
    vectors the engine keeps."""
    acc = MultiPoly.one(spec)
    for p in polys:
        acc = poly_divexact(acc * p, poly_gcd(acc, p))
    return acc.scale(1 / acc.leading()[1])


def horizontal_oracle(m: DiffModule, degree_bound: int) -> list[list[RatFun]]:
    """Reference for ``horizontal_space``: every equation coefficient built
    per unknown monomial with MultiPoly products over Q, and the system
    solved by Gauss–Jordan over Fraction."""
    spec = m.spec
    d_poly = _poly_lcm([entry.den for a in m.conn for row in a for entry in row], spec)
    denom = d_poly.pow(degree_bound)
    monomials = _monomials_up_to(len(spec), degree_bound * (1 + max(d_poly.total_degree(), 0)))
    rows, row_index = [], {}

    def add_coeff(i, l, poly, unknown):
        for e, c in poly.coefficients().items():
            r = row_index.setdefault((i, l, e), len(rows))
            if r == len(rows):
                rows.append({})
            rows[r][unknown] = rows[r].get(unknown, 0) + c

    for i, deriv in enumerate(m.ps.principal):
        a = m.conn[i]
        d_i = _poly_lcm([entry.den for row in a for entry in row], spec)
        p_mat = [[e.num * poly_divexact(d_i, e.den) for e in row] for row in a]
        coeff_den = _poly_lcm([c.den for c in deriv.coeffs], spec)
        coeff_num = [c.num * poly_divexact(coeff_den, c.den) for c in deriv.coeffs]
        dD = MultiPoly.zero(spec)
        for n in range(len(spec)):
            dD = dD + coeff_num[n] * denom.derivative(n)
        for l in range(m.rank):
            for k, e in enumerate(monomials):
                unknown = l * len(monomials) + k
                mono = MultiPoly.from_terms(spec, [(e, 1)])
                dmono = MultiPoly.zero(spec)
                for n in range(len(spec)):
                    dmono = dmono + coeff_num[n] * mono.derivative(n)
                add_coeff(i, l, d_i * (dmono * denom - mono * dD), unknown)
                for lp in range(m.rank):
                    add_coeff(i, lp, -(coeff_den * denom * p_mat[lp][l] * mono), unknown)

    out = []
    for sol in fraction_gauss_jordan(rows, m.rank * len(monomials)):
        vec = []
        for l in range(m.rank):
            terms = {e: c for k, e in enumerate(monomials) if (c := sol[l * len(monomials) + k])}
            vec.append(RatFun(MultiPoly.from_terms(spec, terms.items()), denom))
        out.append(vec)
    return out


def oracle_structures():
    """Q(x, t) and Q(x1, x2, t), each with coordinate principals and with a
    non-coordinate basis that has rational coefficients."""
    xt = FieldSpec(["x", "t"])
    x12t = FieldSpec(["x1", "x2", "t"])

    def d(spec, name, scale="1"):
        return coordinate_derivation(spec, name).scale(rf(spec, scale))

    return [
        build_param_structure(xt, [d(xt, "x")], [d(xt, "t")], ["t"]),
        build_param_structure(xt, [d(xt, "x", "1/x")], [d(xt, "t")], ["t"]),
        build_param_structure(x12t, [d(x12t, "x1"), d(x12t, "x2")], [d(x12t, "t")], ["t"]),
        build_param_structure(
            x12t, [d(x12t, "x1", "x1"), d(x12t, "x2", "1/(x2+1)")], [d(x12t, "t")], ["t"]
        ),
    ]


def oracle_module(ps, rng, rank):
    """A gauge transform T = S·U of the trivial connection, with U unipotent
    and S diagonal with entries 1 or 1/L for one linear form L (so its
    solutions are rational with denominator L), perturbed by a polynomial
    entry half the time."""
    spec = ps.base
    names = spec.variables
    lin = rf(spec, f"{rng.choice(names)}+{rng.randint(1, 3)}")
    u = rand_unipotent(spec, ps, rng, rank, steps=2, max_deg=1)
    s = [[(lin.inverse() if rng.random() < 0.5 else RatFun.one(spec)) if a == b
          else RatFun.zero(spec) for b in range(rank)] for a in range(rank)]
    m = gauge_module(ps, linalg.mat_mul(s, u))
    if rng.random() < 0.5:
        conn = [[list(row) for row in a] for a in m.conn]
        i, r, c = rng.randrange(len(conn)), rng.randrange(rank), rng.randrange(rank)
        conn[i][r][c] = conn[i][r][c] + RatFun.from_poly(rand_poly(spec, rng, max_deg=1, terms=1))
        m = DiffModule(ps, rank, tuple(conn))
    return m


def test_horizontal_matches_per_monomial_oracle():
    """The block-shifting builder and the fraction-free elimination against
    the per-monomial builder over Fraction, at bounds 0-3, ranks 1-3."""
    rng = random.Random(20263)
    nullities = set()
    for ps in oracle_structures():
        for rank in (1, 2, 3):
            m = oracle_module(ps, rng, rank)
            for bound in range(4):
                got = horizontal_space(m, bound)
                assert got == horizontal_oracle(m, bound), (ps.base, rank, bound)
                nullities.add(len(got))
    assert 0 in nullities and max(nullities) >= 2


def test_horizontal_radix_above_block_degrees(x12t):
    """Polynomial connection entries of degree 3-4 over Q(x1, x2, t) at
    bounds 0-2: the equation blocks have a higher degree than the ansatz,
    so the packed exponents of a shifted block need a radix above the sum
    of the two.  Upper triangular modules keep e_0·t^k horizontal; a lower
    entry half the time leaves a curved module."""
    spec, ps = x12t
    rng = random.Random(20266)

    def monomial(degree):
        e = [0, 0, 0]
        for _ in range(degree):
            e[rng.randrange(3)] += 1
        return tuple(e)

    def entry():
        # c·(x^a − x^b) with |a| = |b| in 3..4, whose coefficients cancel
        # wherever a too small radix lets the two collide; plus lower terms
        # half the time
        degree = rng.randint(3, 4)
        a, b = monomial(degree), monomial(degree)
        while b == a:
            b = monomial(degree)
        c = rng.choice((-2, -1, 1, 3))
        p = MultiPoly.from_terms(spec, [(a, c), (b, -c)])
        if rng.random() < 0.5:
            p = p + rand_poly(spec, rng, max_deg=2, terms=2)
        return RatFun.from_poly(p)

    # x_n^4 against x_(n+1): they collide under a radix of num_bound + 4
    modules = [DiffModule(ps, 1, ([[rf(spec, p)]], [[rf(spec, "0")]])) for p in ("x1^4-x2", "x2^4-t")]
    for rank in (1, 2, 3):
        for _ in range(2):
            conn = tuple(
                [[entry() if l < lp and rng.random() < 0.7 else RatFun.zero(spec)
                  for lp in range(rank)] for l in range(rank)]
                for _ in ps.principal
            )
            if rng.random() < 0.5:
                conn[0][rank - 1][0] = entry()
            modules.append(DiffModule(ps, rank, conn))
    nullities = set()
    for m in modules:
        for bound in range(3):
            got = horizontal_space(m, bound)
            assert got == horizontal_oracle(m, bound), (m.rank, bound)
            nullities.add(len(got))
    assert 0 in nullities and max(nullities) >= 3


def _nullspace_columns(monkeypatch) -> list[int]:
    """The column count of each later ``fraction_nullspace`` call, in order."""
    columns = []
    nullspace = linalg.fraction_nullspace
    monkeypatch.setattr(linalg, "fraction_nullspace", lambda rows, n: columns.append(n) or nullspace(rows, n))
    return columns


def test_horizontal_slices_by_inert_monomial_match_the_oracle(x12t, monkeypatch):
    """Searches with an inert variable, one that no principal moves and no
    equation block holds, eliminate only the unknowns free of it; the
    other variables keep every unknown.  Against the per-monomial oracle
    at bounds 0-3:

    - two inert constants over Q(x, t1, t2).  The module v' = (q, 0) has
      (1, 0) and (x, 1) from numerator degree 1 on, so the slice of τ
      keeps two vectors when |τ| < B and one when |τ| = B: nullity
      (B + 1)^2.  The module v' = v/(x + 1) has (x + 1)·τ for |τ| < B;
    - x2 over Q(x1, x2, t) holds no entry but dx2 moves it; t is inert;
    - over Q(x, t) the principal (1/(t + 1))·dx puts t in the coupling
      blocks, so nothing is inert, and ((t + 1)·x, 1) is a solution."""
    xtt = FieldSpec(["x", "t1", "t2"])
    d = functools.partial(coordinate_derivation, xtt)
    ps_tt = build_param_structure(xtt, [d("x")], [d("t1"), d("t2")], ["t1", "t2"])
    xt = FieldSpec(["x", "t"])
    scaled = Derivation(xt, [rf(xt, "1/(t+1)"), rf(xt, "0")])
    ps_scaled = build_param_structure(
        xt, [scaled], [Derivation(xt, [rf(xt, "-x/(t+1)"), rf(xt, "1")])], ["t"]
    )
    _, ps12 = x12t

    def module(ps, *matrices):
        conn = tuple([[rf(ps.base, e) for e in row] for row in a] for a in matrices)
        return DiffModule(ps, len(matrices[0]), conn)

    # (name, module, variables not inert, nullities at bounds 0-3 or None)
    cases = [
        ("nilpotent", module(ps_tt, [["0", "1"], ["0", "0"]]), 1, [1, 4, 9, 16]),
        ("pole", module(ps_tt, [["1/(x+1)"]]), 1, [0, 1, 3, 6]),
        ("x2 moved", module(ps12, [["0", "1/(x1+1)"], ["0", "0"]], [["0", "0"], ["0", "0"]]), 2, None),
        ("t in dx", module(ps_scaled, [["0", "1"], ["0", "0"]]), 2, None),
    ]
    columns = _nullspace_columns(monkeypatch)
    for name, m, nfree, nullities in cases:
        for bound in range(4):
            del columns[:]
            got = horizontal_space(m, bound)
            assert got == horizontal_oracle(m, bound), (name, bound)
            if nullities:
                assert len(got) == nullities[bound], (name, bound)
            d_poly = _poly_lcm([e.den for a in m.conn for row in a for e in row], m.spec)
            num_bound = bound * (1 + d_poly.total_degree())
            assert columns == [m.rank * math.comb(num_bound + nfree, nfree)], (name, bound)
    target = [rf(xt, "(t+1)*x"), rf(xt, "1")]
    assert target in horizontal_space(cases[3][1], 2)


def _hypergeom_fixture_module():
    text = (pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "hypergeom_2f1.session").read_text()
    return parse_session(text).modules["H"]


def test_horizontal_hypergeom_fixture_takes_no_gcd(monkeypatch):
    """The denominator x(1 - x) of the fixture enters the base as x and
    x - 1, both of degree 1, so the basis components cancel against it by
    trial division alone."""
    m = _hypergeom_fixture_module()
    calls = []
    gcd = field.poly_gcd
    monkeypatch.setattr(field, "poly_gcd", lambda f, g: calls.append((f, g)) or gcd(f, g))
    assert len(horizontal_space(m, 3)) == 3
    assert calls == []


def _timed_search(monkeypatch, m, bound):
    """The basis, the seconds and the columns ``fraction_nullspace`` is
    handed, summed over its calls, of one horizontal search."""
    columns = _nullspace_columns(monkeypatch)
    start = time.perf_counter()
    found = horizontal_space(m, bound)
    return found, time.perf_counter() - start, sum(columns)


def test_horizontal_hypergeom_fixture_at_bound_20_is_fast(monkeypatch):
    """A cliff guard on the search of the fixture's module at degree bound
    20: t is inert, so only the 122 unknowns free of t are eliminated (a
    165 x 122 system over Q), where the whole search has 3,782; within
    the 0.95 s budget, and the column count guards the cliff on any host.
    The solutions are F·t^k for k < 20."""
    found, seconds, columns = _timed_search(monkeypatch, _hypergeom_fixture_module(), 20)
    assert columns == 122
    assert seconds < 0.95
    assert len(found) == 20


def test_horizontal_hypergeom_fixture_at_bound_14_is_fast(monkeypatch):
    """A cliff guard: the module of fixtures/hypergeom_2f1.session at
    degree bound 14 eliminates the 86 unknowns free of t (a 117 x 86
    system over Q, of 1,892 unknowns in all) in well under a second; the
    solutions are F·t^k for k < 14."""
    found, seconds, columns = _timed_search(monkeypatch, _hypergeom_fixture_module(), 14)
    assert columns == 86
    assert seconds < 1.0
    assert len(found) == 14
