import random
import time

import pytest

from paramjet import linalg, prolong
from paramjet.conn import (
    DiffModule,
    ModMorphism,
    check_integrability,
    direct_sum,
    horizontal_space,
    morphism_check,
    trivial_module,
)
from paramjet.diffstruct import build_param_structure, coordinate_derivation
from paramjet.errors import MorphismInvalid, NotFlat, ShapeMismatch
from paramjet.field import FieldSpec, parse_ratfun
from paramjet.prolong import (
    at2_module,
    baer_sum,
    check_tensor_compat,
    extension_of_prolongation,
    generate_closure,
    prolong_block,
    prolong_module,
    prolong_morphism,
    trivial_extension,
)

from conftest import gauge_module, parameter_sub, rand_gauge_module, rand_unipotent


def rf(spec, s):
    return parse_ratfun(spec, s)


def xt_module(xt):
    spec, ps = xt
    return DiffModule(ps, 1, ([[rf(spec, "t/x")]],))


def mat_strs(a):
    return [[str(x) for x in row] for row in a]


def test_prolong_trivial(x12t):
    spec, ps = x12t
    m = trivial_module(ps, 2)
    p = prolong_module(m)
    assert p.core.rank == 4
    assert all(linalg.is_zero_matrix(a) for a in p.core.conn)


def test_prolong_xt_fixture(xt):
    spec, ps = xt
    p = prolong_module(xt_module(xt))
    assert mat_strs(p.core.conn[0]) == [
        ["(t)/(x)", "(0)/(1)"],
        ["(-1)/(x)", "(t)/(x)"],
    ]


def test_prolong_block_formula_with_bracket_term(xt):
    """The parameter block is −∂t(A) − A_[∂,∂t]; valid structures commute,
    so the bracket term vanishes and the block is −∂t(A)."""
    spec, ps = xt
    a = [[rf(spec, "t/x")]]
    assert prolong_block(a, ps.parameter[0])[0][0] == rf(spec, "-1/x")


def test_prolong_requires_flat(fg_curved=None):
    spec = FieldSpec(["x", "y", "t"])
    ps = build_param_structure(
        spec,
        [coordinate_derivation(spec, "x"), coordinate_derivation(spec, "y")],
        [coordinate_derivation(spec, "t")],
        ["t"],
    )
    curved = DiffModule(ps, 1, ([[rf(spec, "-y")]], [[rf(spec, "0")]]))
    with pytest.raises(NotFlat):
        prolong_module(curved)
    with pytest.raises(NotFlat):
        extension_of_prolongation(curved)


def test_prolong_preserves_flatness_random(p2q2):
    spec, ps = p2q2
    rng = random.Random(101)
    for _ in range(10):
        m = rand_gauge_module(spec, ps, rng, rng.randint(1, 3))
        p = prolong_module(m)
        assert p.core.rank == m.rank * (1 + ps.parameter_count)
        assert check_integrability(p.core).flat


def test_exact_sequence_invariants(p2q2):
    spec, ps = p2q2
    rng = random.Random(103)
    for _ in range(5):
        m = rand_gauge_module(spec, ps, rng, 2)
        p = prolong_module(m)
        assert morphism_check(p.incl, parameter_sub(m), p.core).ok
        assert morphism_check(p.proj, p.core, m).ok
        assert linalg.is_zero_matrix(linalg.mat_mul(p.proj, p.incl))
        assert linalg.rank(p.incl) + m.rank == p.core.rank


def test_prolong_morphism_identity_and_constants(xt):
    spec, ps = xt
    m = xt_module(xt)
    eye = ModMorphism(m, m, [[rf(spec, "1")]])
    p = prolong_morphism(eye)
    assert linalg.mat_eq(p.matrix, linalg.identity(spec, 2))
    two = ModMorphism(m, m, [[rf(spec, "2")]])
    p2 = prolong_morphism(two)
    assert p2.matrix[1][0].is_zero()
    assert p2.matrix[0][0] == rf(spec, "2")


def test_prolong_morphism_of_the_zero_map_into_rank_0(xt):
    """The zero map M -> 0 of a rank-2 M prolongs to the 0 x 4 map between
    the prolongations."""
    spec, ps = xt
    m = DiffModule(ps, 2, ([[rf(spec, "t/x"), rf(spec, "0")], [rf(spec, "1"), rf(spec, "1/x")]],))
    p = prolong_morphism(ModMorphism(m, DiffModule(ps, 0, ([],)), []))
    assert (p.src.rank, p.dst.rank, p.matrix) == (4, 0, [])


def test_prolong_morphism_functorial(p2q2):
    spec, ps = p2q2
    rng = random.Random(107)
    for _ in range(8):
        g1 = rand_unipotent(spec, ps, rng, 2)
        g2 = rand_unipotent(spec, ps, rng, 2)
        g3 = rand_unipotent(spec, ps, rng, 2)
        m1, m2, m3 = (gauge_module(ps, g) for g in (g1, g2, g3))
        c1 = linalg.identity(spec, 2)
        c1[0][1] = rf(spec, "2")
        c2 = linalg.identity(spec, 2)
        c2[1][0] = rf(spec, "-1")
        t12 = linalg.mat_mul(linalg.inverse(g2), linalg.mat_mul(c1, g1))
        t23 = linalg.mat_mul(linalg.inverse(g3), linalg.mat_mul(c2, g2))
        assert morphism_check(t12, m1, m2).ok
        assert morphism_check(t23, m2, m3).ok
        f12 = ModMorphism(m1, m2, t12)
        f23 = ModMorphism(m2, m3, t23)
        p12 = prolong_morphism(f12)
        p23 = prolong_morphism(f23)
        assert morphism_check(p12.matrix, p12.src, p12.dst).ok
        composite = ModMorphism(
            m1, m3, linalg.mat_mul(t23, t12)
        )
        pc = prolong_morphism(composite)
        assert linalg.mat_eq(
            pc.matrix,
            linalg.mat_mul(p23.matrix, p12.matrix),
        )
        # prolongation of an isomorphism is an isomorphism
        inv = linalg.inverse(p12.matrix)
        assert morphism_check(inv, p12.dst, p12.src).ok


def test_prolong_morphism_rejects_non_morphism(xt):
    spec, ps = xt
    m = xt_module(xt)
    bad = ModMorphism(m, m, [[rf(spec, "x")]])
    with pytest.raises(MorphismInvalid):
        prolong_morphism(bad)


def test_naturality_square(p2q2):
    spec, ps = p2q2
    rng = random.Random(109)
    g1 = rand_unipotent(spec, ps, rng, 2)
    g2 = rand_unipotent(spec, ps, rng, 2)
    m1, m2 = gauge_module(ps, g1), gauge_module(ps, g2)
    t = linalg.mat_mul(linalg.inverse(g2), g1)
    f = ModMorphism(m1, m2, t)
    pf = prolong_morphism(f)
    p1, p2 = prolong_module(m1), prolong_module(m2)
    # proj ∘ prolong(T) = T ∘ proj
    lhs = linalg.mat_mul(p2.proj, pf.matrix)
    rhs = linalg.mat_mul(t, p1.proj)
    assert linalg.mat_eq(lhs, rhs)
    # prolong(T) ∘ incl = incl ∘ (q diagonal copies of T)
    q = ps.parameter_count
    sub_t = linalg.block(spec, [2] * q, [2] * q, {(i, i): t for i in range(q)})
    assert morphism_check(sub_t, parameter_sub(m1), parameter_sub(m2)).ok
    lhs2 = linalg.mat_mul(pf.matrix, p1.incl)
    rhs2 = linalg.mat_mul(p2.incl, sub_t)
    assert linalg.mat_eq(lhs2, rhs2)


def test_at2_trivial(xt):
    spec, ps = xt
    s = at2_module(trivial_module(ps, 2))
    assert s.invariant.rank == 6
    assert all(linalg.is_zero_matrix(a) for a in s.invariant.conn)


def test_at2_xt_fixture(xt):
    spec, ps = xt
    s = at2_module(xt_module(xt))
    assert s.invariant.rank == 3
    assert mat_strs(s.invariant.conn[0]) == [
        ["(t)/(x)", "(0)/(1)", "(0)/(1)"],
        ["(-1)/(x)", "(t)/(x)", "(0)/(1)"],
        ["(0)/(1)", "(-2)/(x)", "(t)/(x)"],
    ]
    assert morphism_check(s.incl, s.invariant, double_prolongation(xt_module(xt))).ok


def test_at2_dimension_count_q2(p2q2):
    spec, ps = p2q2
    s = at2_module(trivial_module(ps, 1))
    assert s.invariant.rank == 6  # 1 + q + q(q+1)/2 with q = 2


def double_prolongation(m):
    """The twice-prolonged module, built as the at2 restriction's oracle."""
    return prolong_module(prolong_module(m).core).core


def structure_with_parameters(q):
    """Q(x1, x2, t1..tq) with the principal dx1, dx2 and the parameters dtj."""
    names = ["x1", "x2"] + [f"t{j}" for j in range(1, q + 1)]
    spec = FieldSpec(names)
    ps = build_param_structure(
        spec,
        [coordinate_derivation(spec, "x1"), coordinate_derivation(spec, "x2")],
        [coordinate_derivation(spec, t) for t in names[2:]],
        names[2:],
    )
    return spec, ps


def test_at2_random_restriction():
    """incl is constant and injective, so its intertwining the invariant
    module with the double prolongation pins the restricted matrices.  For
    q >= 2 one module has ∂t1∂tq(A) != ∂tq∂tq(A), so the mixed blocks are
    told apart from the pure ones."""
    for q, ranks in [(0, (1, 2, 3)), (1, (1, 2, 3)), (2, (2, 2, 2, 2)), (3, (1, 2))]:
        spec, ps = structure_with_parameters(q)
        rng = random.Random(113)
        modules = [rand_gauge_module(spec, ps, rng, rank) for rank in ranks]
        if q >= 2:
            u = f"x1*t1*t{q} + x2*t{q}^2"
            modules.append(gauge_module(ps, [[rf(spec, "1"), rf(spec, u)], [rf(spec, "0"), rf(spec, "1")]]))
        for m in modules:
            s = at2_module(m)
            double = double_prolongation(m)
            assert s.invariant.rank == m.rank * (1 + q) * (2 + q) // 2
            assert s.double_rank == double.rank == m.rank * (1 + q) ** 2
            assert morphism_check(s.incl, s.invariant, double).ok
            assert check_integrability(s.invariant).flat


def test_at2_rational_gauge_with_t_in_denominators(x12t):
    """The gauge image of the trivial connection under T = diag(r1, r2)·U
    with t in r1, r2 and U: t is in every denominator of A, and restricting
    the double prolongation took over 60 s."""
    spec, ps = x12t
    r1, r2 = "x1 + x2 + t", "x1 - x2 + t + 1"
    t_matrix = [[rf(spec, r1), rf(spec, f"({r1})*(x1 + t)")], [rf(spec, "0"), rf(spec, r2)]]
    m = gauge_module(ps, t_matrix)
    start = time.perf_counter()
    s = at2_module(m)
    assert time.perf_counter() - start < 10.0
    assert s.invariant.rank == 6
    assert s.double_rank == 8


def test_at2_and_tensor_compat_build_no_prolonged_module(p2q2, monkeypatch):
    calls = []
    monkeypatch.setattr(prolong, "prolong_module", lambda m: calls.append(m))
    spec, ps = p2q2
    rng = random.Random(131)
    m = rand_gauge_module(spec, ps, rng, 2)
    n = rand_gauge_module(spec, ps, rng, 1)
    prolong.at2_module(m)
    assert prolong.check_tensor_compat(m, n)
    assert calls == []


def test_baer_sum_laws(xt, p2q2):
    spec, ps = p2q2
    rng = random.Random(127)
    m = rand_gauge_module(spec, ps, rng, 1)
    n = rand_gauge_module(spec, ps, rng, 1)
    em = extension_of_prolongation(m)
    # neutral element and inverses
    assert all(
        linalg.mat_eq(a, b)
        for a, b in zip(baer_sum(em, trivial_extension(em.quot, em.sub)).off, em.off)
    )
    assert all(
        linalg.is_zero_matrix(x) for x in baer_sum(em, em.negate()).off
    )
    # additivity on the off blocks for same-(sub, quot) extensions
    e1 = extension_of_prolongation(m)
    scaled = e1.__class__(
        e1.ps, e1.quot, e1.sub, tuple(linalg.mat_scale(rf(spec, "2"), x) for x in e1.off)
    )
    summed = baer_sum(e1, scaled)
    for x, y in zip(summed.off, e1.off):
        assert linalg.mat_eq(x, linalg.mat_add(y, linalg.mat_scale(rf(spec, "2"), y)))
    with pytest.raises(ShapeMismatch):
        baer_sum(em, extension_of_prolongation(n))


def extension_module(e):
    """The module of a block extension: matrices [[A_quot, 0], [X, A_sub]]."""
    conn = []
    sizes = [e.quot.rank, e.sub.rank]
    for aq, asub, x in zip(e.quot.conn, e.sub.conn, e.off):
        conn.append(linalg.block(e.ps.base, sizes, sizes, {(0, 0): aq, (1, 0): x, (1, 1): asub}))
    return DiffModule(e.ps, e.quot.rank + e.sub.rank, tuple(conn))


def test_extension_of_prolongation_is_the_prolonged_module():
    """For q = 0..3 the extension's sub is q copies of M and its module is
    the prolonged one; for q = 0 the sub has rank 0 and the off blocks no
    rows."""
    for q in range(4):
        spec, ps = structure_with_parameters(q)
        m = rand_gauge_module(spec, ps, random.Random(151), 2)
        e = extension_of_prolongation(m)
        assert e.quot == m and e.sub == parameter_sub(m)
        assert extension_module(e) == prolong_module(m).core
        assert all(linalg.shape(x) == (2 * q, 2 if q else 0) for x in e.off)


def test_prolong_module_builds_no_direct_sum(p2q2, monkeypatch):
    calls = []
    monkeypatch.setattr(prolong, "direct_sum", lambda *args: calls.append(args))
    spec, ps = p2q2
    prolong.prolong_module(rand_gauge_module(spec, ps, random.Random(157), 2))
    assert calls == []


def test_block_matrices_build_no_zero_matrix(p2q2, monkeypatch):
    """The prolonged, second-prolonged and direct-sum matrices name only
    their nonzero blocks: none of them asks linalg.zeros for a zero block."""
    spec, ps = p2q2
    rng = random.Random(163)
    g1, g2 = rand_unipotent(spec, ps, rng, 2), rand_unipotent(spec, ps, rng, 2)
    m1, m2 = gauge_module(ps, g1), gauge_module(ps, g2)
    f = ModMorphism(m1, m2, linalg.mat_mul(linalg.inverse(g2), g1))

    def refuse(*args):
        raise AssertionError("linalg.zeros called")

    monkeypatch.setattr(linalg, "zeros", refuse)
    prolong_module(m1)
    prolong_morphism(f)
    at2_module(m1)
    extension_of_prolongation(m1)
    direct_sum(m1, m2)


def test_baer_sum_matches_kernel_image_oracle(xt):
    """The block-addition rule agrees with the general kernel/image
    construction of the sum of two extensions, computed directly on a
    rank-one pair."""
    spec, ps = xt
    e1 = extension_of_prolongation(xt_module(xt))
    e2 = e1.__class__(
        e1.ps, e1.quot, e1.sub, tuple(linalg.mat_scale(rf(spec, "t"), x) for x in e1.off)
    )
    block = baer_sum(e1, e2)

    # oracle: inside E1 ⊕ E2 take ker(β1 − β2) and quotient by the
    # antidiagonal copy of the sub; basis {(q,0,q,0), (0,s,0,0)}
    big = direct_sum(extension_module(e1), extension_module(e2))
    j = [
        [rf(spec, "1"), rf(spec, "0")],
        [rf(spec, "0"), rf(spec, "1")],
        [rf(spec, "1"), rf(spec, "0")],
        [rf(spec, "0"), rf(spec, "0")],
    ]
    # sub connection C from A J − ∂J = J C modulo the identified copy:
    # rows 3 (the second sub copy) fold onto row 1 of the sub block
    for i in range(ps.principal_count):
        a = big.conn[i]
        aj = linalg.mat_mul(a, j)
        dj = [[ps.principal[i].apply(x) for x in row] for row in j]
        w = linalg.mat_sub(aj, dj)
        # fold the second sub copy (row 3) into the first (row 1)
        folded = [
            [w[0][0], w[0][1]],
            [w[1][0] + w[3][0], w[1][1] + w[3][1]],
        ]
        expected = extension_module(block).conn[i]
        assert linalg.mat_eq(folded, expected)


def test_tensor_compat(p2q2, xt):
    spec, ps = p2q2
    rng = random.Random(137)
    for _ in range(5):
        m = rand_gauge_module(spec, ps, rng, rng.randint(1, 2))
        n = rand_gauge_module(spec, ps, rng, rng.randint(1, 2))
        assert check_tensor_compat(m, n)
    spec1, ps1 = xt
    m1 = xt_module(xt)
    assert check_tensor_compat(trivial_module(ps1, 1), m1)


def test_closure_depth_zero(xt, monkeypatch):
    monkeypatch.setattr(prolong, "MAX_CLOSURE_ITEMS", 12)
    m = xt_module(xt)
    res = generate_closure(m, 0, 4)
    labels = [it.label for it in res.items]
    assert "M" in labels and "dual(M)" in labels and "tensor(M,M)" in labels
    assert not any(l.startswith("at1") for l in labels)


def test_closure_depth_one_includes_prolongation(xt, monkeypatch):
    monkeypatch.setattr(prolong, "MAX_CLOSURE_ITEMS", 12)
    m = xt_module(xt)
    res = generate_closure(m, 1, 4)
    by_label = {it.label: it for it in res.items}
    assert "at1(M)" in by_label
    assert by_label["at1(M)"].module.rank == 2


def test_closure_rank_cap_flags_truncation(xt, monkeypatch):
    monkeypatch.setattr(prolong, "MAX_CLOSURE_ITEMS", 40)
    m = xt_module(xt)
    res = generate_closure(m, 2, 3)
    assert any(label.startswith("at1(at1") for label in res.truncated_by_rank) or any(
        "at1" in label for label in res.truncated_by_rank
    )


def test_closure_deterministic(xt, monkeypatch):
    monkeypatch.setattr(prolong, "MAX_CLOSURE_ITEMS", 15)
    m = xt_module(xt)
    r1 = generate_closure(m, 1, 4)
    r2 = generate_closure(m, 1, 4)
    assert [it.label for it in r1.items] == [it.label for it in r2.items]


def test_closure_rank_cap_pinned(xt, monkeypatch):
    """Labels and truncations of one capped closure, as recorded when every
    candidate was built before the cap was applied."""
    monkeypatch.setattr(prolong, "MAX_CLOSURE_ITEMS", 16)
    res = generate_closure(xt_module(xt), 1, 2)
    assert [it.label for it in res.items] == [
        "M", "dual(M)", "at1(M)", "tensor(M,M)", "sum(M,M)", "at1(dual(M))",
        "tensor(dual(M),M)", "sum(dual(M),M)", "tensor(dual(M),dual(M))",
        "sum(dual(M),dual(M))", "dual(at1(M))", "tensor(at1(M),M)",
        "tensor(at1(M),dual(M))", "at1(tensor(M,M))", "tensor(tensor(M,M),M)",
        "sum(tensor(M,M),M)",
    ]
    assert res.truncated_by_rank == [
        "sum(at1(M),M)", "sum(at1(M),dual(M))", "tensor(at1(M),at1(M))", "sum(at1(M),at1(M))",
    ]
    assert res.truncated_by_items is True


def test_closure_builds_no_candidate_over_the_cap(xt, p2q2, monkeypatch):
    built = []

    def recording(fn, rank_of):
        def wrapper(*args):
            out = fn(*args)
            built.append(rank_of(out))
            return out
        return wrapper

    monkeypatch.setattr(prolong, "tensor", recording(prolong.tensor, lambda m: m.rank))
    monkeypatch.setattr(prolong, "direct_sum", recording(prolong.direct_sum, lambda m: m.rank))
    monkeypatch.setattr(
        prolong, "prolong_module", recording(prolong.prolong_module, lambda p: p.core.rank)
    )
    monkeypatch.setattr(prolong, "MAX_CLOSURE_ITEMS", 20)
    spec, ps = p2q2
    for m, depth, cap in (
        (xt_module(xt), 1, 2),
        (xt_module(xt), 2, 3),
        (rand_gauge_module(spec, ps, random.Random(149), 2), 1, 4),
    ):
        built.clear()
        res = generate_closure(m, depth, cap)
        assert res.truncated_by_rank and built
        assert max(built) <= cap


def test_prolongation_adjoins_parameter_derivatives(xt, p2q2):
    """If v is horizontal then (v, -∂t1(v), ..., -∂tq(v)) is horizontal for
    the prolonged module: prolongation adjoins the parameter derivatives
    of solutions, in the orientation of the horizontal-lift basis."""
    rng = random.Random(139)
    for spec, ps in (xt, p2q2):
        for _ in range(5):
            t = rand_unipotent(spec, ps, rng, 2, max_deg=1)
            m = gauge_module(ps, t)
            t_inv = linalg.inverse(t)
            p = prolong_module(m)
            for col in range(2):
                v = [t_inv[r][col] for r in range(2)]
                w = list(v)
                for dt in ps.parameter:
                    w.extend(-dt.apply(c) for c in v)
                for i, d in enumerate(ps.principal):
                    lhs = [d.apply(c) for c in w]
                    rhs = linalg.mat_vec(p.core.conn[i], w)
                    assert lhs == rhs


def test_prolonged_horizontal_space_recovers_lifts(xt):
    """The solver finds exactly the lifted space on a polynomial gauge."""
    spec, ps = xt
    t = [[rf(spec, "1"), rf(spec, "x*t")], [rf(spec, "0"), rf(spec, "1")]]
    m = gauge_module(ps, t)
    p = prolong_module(m)
    found = horizontal_space(p.core, 2)
    assert linalg.rank([list(v) for v in found]) == 4
    target = [rf(spec, "-x*t"), rf(spec, "1"), rf(spec, "x"), rf(spec, "0")]
    assert any(v == target for v in found)
