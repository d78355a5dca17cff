import random

import pytest

from paramjet import linalg
from paramjet.diffstruct import (
    Derivation,
    bracket,
    build_param_structure,
    build_structure,
    check_morphism,
    coordinate_derivation,
    deRham_d0,
    deRham_d1,
    lie_derivative,
    lie_derivative_general,
)
from paramjet.errors import (
    ConstantsMismatch,
    NotClosed,
    NotCommuting,
    NotIndependent,
    PrincipalMovesConstants,
)
from paramjet.field import FieldSpec, RatFun, parse_ratfun

from conftest import identity_diff_morphism, morphism39, rand_ratfun

SPEC3 = FieldSpec(["x", "y", "z"])
SPECXT = FieldSpec(["x", "t"])


def r3(s):
    return parse_ratfun(SPEC3, s)


def rxt(s):
    return parse_ratfun(SPECXT, s)


def d3(name):
    return coordinate_derivation(SPEC3, name)


@pytest.fixture(scope="module")
def s39(example39):
    return example39[0]


@pytest.fixture(scope="module")
def commuting_xt():
    return build_structure(
        SPECXT,
        [coordinate_derivation(SPECXT, "x"), coordinate_derivation(SPECXT, "t")],
    )


@pytest.fixture(scope="module")
def noncommuting_x():
    # {d/dx, x d/dx + d/dt} is independent and closed with [d1, d2] = d1
    x = rxt("x")
    second = coordinate_derivation(SPECXT, "x").scale(x).add(
        coordinate_derivation(SPECXT, "t")
    )
    return build_structure(SPECXT, [coordinate_derivation(SPECXT, "x"), second])


def test_bracket_examples():
    zdz = d3("z").scale(r3("z"))
    assert bracket(zdz, d3("x")).is_zero()
    br = bracket(d3("x").scale(r3("z")).add(d3("y")), d3("z"))
    assert br.coeffs == [r3("-1"), r3("0"), r3("0")]
    dx = coordinate_derivation(SPECXT, "x")
    dt = coordinate_derivation(SPECXT, "t")
    assert bracket(dx, dt).is_zero()


def test_build_structure_examples(s39):
    assert all(c.is_zero() for v in s39.structure_constants.values() for c in v)
    with pytest.raises(NotClosed) as err:
        build_structure(SPEC3, [d3("x").scale(r3("z")).add(d3("y")), d3("z")])
    assert err.value.pair == (0, 1)
    assert err.value.residual.coeffs == [r3("-1"), r3("0"), r3("0")]
    single = build_structure(SPECXT, [coordinate_derivation(SPECXT, "x")])
    assert single.structure_constants == {}


def test_build_structure_rejects_dependent():
    dx = coordinate_derivation(SPECXT, "x")
    with pytest.raises(NotIndependent):
        build_structure(SPECXT, [dx, dx.scale(rxt("t"))])


def test_noncommuting_constants(noncommuting_x):
    # [d1, d2] = d1
    assert noncommuting_x.constants(0, 1)[0] == rxt("1")
    assert noncommuting_x.constants(0, 1)[1] == rxt("0")
    assert noncommuting_x.constants(1, 0)[0] == rxt("-1")


def test_d0_examples(commuting_xt, s39):
    spec = FieldSpec(["x", "y"])
    s = build_structure(
        spec, [coordinate_derivation(spec, "x"), coordinate_derivation(spec, "y")]
    )
    a = parse_ratfun(spec, "x*y")
    assert deRham_d0(a, s) == [parse_ratfun(spec, "y"), parse_ratfun(spec, "x")]
    assert deRham_d0(rxt("t"), commuting_xt) == [rxt("0"), rxt("1")]
    # dz has coordinates (0, 0, z) against the dual basis of {dx, dy, z dz}
    z, zero = parse_ratfun(s39.base, "z"), RatFun.zero(s39.base)
    assert deRham_d0(z, s39) == [zero, zero, z]


def test_d1_examples(s39):
    spec = FieldSpec(["x", "y"])
    s = build_structure(
        spec, [coordinate_derivation(spec, "x"), coordinate_derivation(spec, "y")]
    )
    # d of the third dual basis element of Example 3.9's structure vanishes
    assert linalg.is_zero_matrix(deRham_d1(linalg.identity(s39.base, 3)[2], s39))
    # d∘d = 0
    a = parse_ratfun(spec, "x^2*y")
    assert linalg.is_zero_matrix(deRham_d1(deRham_d0(a, s), s))
    # d(x ω2) has coefficient 1 at the (1,2) slot
    w = [parse_ratfun(spec, "0"), parse_ratfun(spec, "x")]
    assert deRham_d1(w, s)[0][1] == parse_ratfun(spec, "1")


def test_dd_zero_including_nonconstant_brackets(commuting_xt, s39, noncommuting_x):
    rng = random.Random(3)
    for s in (commuting_xt, s39, noncommuting_x):
        for _ in range(30):
            a = rand_ratfun(s.base, rng)
            assert linalg.is_zero_matrix(deRham_d1(deRham_d0(a, s), s))


def test_dd_fails_with_corrupted_constants(noncommuting_x):
    from paramjet.diffstruct import DiffStructure

    corrupted = DiffStructure(
        noncommuting_x.base,
        noncommuting_x.basis,
        {(0, 1): [rxt("0"), rxt("0")]},
    )
    a = rxt("x^2")
    assert not linalg.is_zero_matrix(deRham_d1(deRham_d0(a, corrupted), corrupted))


def test_jacobi_identity(noncommuting_x):
    rng = random.Random(13)
    spec = SPECXT
    for _ in range(50):
        ds = [
            Derivation(spec, [rand_ratfun(spec, rng, max_deg=1), rand_ratfun(spec, rng, max_deg=1)])
            for _ in range(3)
        ]
        a, b, c = ds
        j = bracket(a, bracket(b, c)).add(bracket(b, bracket(c, a))).add(
            bracket(c, bracket(a, b))
        )
        assert j.is_zero()


def test_lie_examples(commuting_xt):
    s = commuting_xt
    zero = [rxt("0"), rxt("0")]
    assert lie_derivative(0, linalg.identity(SPECXT, 2)[0], s) == zero
    assert lie_derivative(1, [rxt("x"), rxt("0")], s) == zero


def test_lie_characterization(commuting_xt, noncommuting_x):
    rng = random.Random(17)
    for s in (commuting_xt, noncommuting_x):
        for _ in range(25):
            w = [rand_ratfun(SPECXT, rng), rand_ratfun(SPECXT, rng)]
            idx = rng.randrange(2)
            lw = lie_derivative(idx, w, s)
            for j in range(2):
                # L_d(w)(xi) = d(w(xi)) - w([d, xi])
                xi = s.basis[j]
                d = s.basis[idx]
                lhs = lw[j]
                rhs = d.apply(w[j]) - linalg.mat_vec([w], s.constants(idx, j))[0]
                assert lhs == rhs


def test_lie_scaling_named_instance(commuting_xt):
    # a = x, derivation d/dx, form w1: L_{x d}(w) = x L_d(w) + w(d) dx
    s = commuting_xt
    a = rxt("x")
    w = linalg.identity(SPECXT, 2)[0]
    lhs = lie_derivative_general(s.basis[0].scale(a), w, s)
    rhs = [a * u + w[0] * v for u, v in zip(lie_derivative(0, w, s), deRham_d0(a, s))]
    assert lhs == rhs == [rxt("1"), rxt("0")]


def test_lie_scaling_law(commuting_xt, noncommuting_x):
    rng = random.Random(19)
    for s in (commuting_xt, noncommuting_x):
        for _ in range(25):
            a = rand_ratfun(SPECXT, rng, max_deg=1)
            idx = rng.randrange(2)
            w = [rand_ratfun(SPECXT, rng), rand_ratfun(SPECXT, rng)]
            scaled = s.basis[idx].scale(a)
            lhs = lie_derivative_general(scaled, w, s)
            base = lie_derivative(idx, w, s)
            pairing = w[idx]
            rhs = [a * u + pairing * v for u, v in zip(base, deRham_d0(a, s))]
            assert lhs == rhs


def test_check_morphism_examples(example39):
    src, dst = example39
    assert check_morphism(morphism39(src, dst, "y", "x")).ok
    v = check_morphism(morphism39(src, dst, "y", "0"))
    assert v.kind == "integrability_fail"
    assert v.witness_two_form[0][1] == parse_ratfun(dst.base, "-1")
    assert check_morphism(identity_diff_morphism(src)).ok


def test_pushed_two_form_is_w_t_wt(noncommuting_x):
    """Over {∂x, x·∂x + ∂t}, [δ0, δ1] = δ0, so dω⁰ is −1 at (0, 1); with
    identity images and W = [[1, x], [0, 2]] the pushed 2-form is
    W·T·Wᵀ = [[0, −2], [2, 0]]."""
    from paramjet.diffstruct import DiffMorphism

    s = noncommuting_x
    assert check_morphism(identity_diff_morphism(s)).ok
    t = deRham_d1(linalg.identity(SPECXT, 2)[0], s)
    assert t[0][1] == rxt("-1")
    images = {v: RatFun.variable(SPECXT, v) for v in SPECXT.variables}
    w = [[rxt("1"), rxt("x")], [rxt("0"), rxt("2")]]
    pushed = DiffMorphism(s, s, images, w).push_two_form(t)
    assert pushed == [[rxt("0"), rxt("-2")], [rxt("2"), rxt("0")]]


def test_lie_derivatives_on_a_one_dimensional_structure():
    """{∂x} over Q(x, t): dω is the 1 x 1 zero matrix, so both Lie
    derivatives reduce to d of the pairing."""
    s = build_structure(SPECXT, [coordinate_derivation(SPECXT, "x")])
    w = [rxt("x*t")]
    assert lie_derivative(0, w, s) == [rxt("t")]
    t_dx = coordinate_derivation(SPECXT, "x").scale(rxt("t"))
    assert lie_derivative_general(t_dx, w, s) == [rxt("t^2")]


def test_check_morphism_detects_d_compat_failure(example39):
    src, dst = example39
    m = morphism39(src, dst, "y", "x")
    bad = m.__class__(
        m.source,
        m.target,
        m.gen_images,
        [[m.omega_matrix[0][0], m.omega_matrix[0][1], m.omega_matrix[0][2]],
         [parse_ratfun(dst.base, "x"), m.omega_matrix[1][1], m.omega_matrix[1][2]]],
    )
    v = check_morphism(bad)
    assert v.kind == "d_compat_fail"


def test_morphism_composition(example39):
    src, dst = example39
    rng = random.Random(23)
    from paramjet.diffstruct import DiffMorphism
    from paramjet.field import partial_derivative
    from conftest import rand_poly

    spec2 = dst.base
    for k in range(20):
        # integrable pair (f, g) = (dh/dx, dh/dy), composed with a random
        # translation automorphism of the target plane
        h = RatFun.from_poly(rand_poly(spec2, rng, max_deg=2, terms=2))
        f = partial_derivative(h, "x")
        g = partial_derivative(h, "y")
        m = DiffMorphism(
            src,
            dst,
            {"x": parse_ratfun(spec2, "x"), "y": parse_ratfun(spec2, "y"),
             "z": parse_ratfun(spec2, "0")},
            [[parse_ratfun(spec2, "1"), parse_ratfun(spec2, "0"), f],
             [parse_ratfun(spec2, "0"), parse_ratfun(spec2, "1"), g]],
        )
        assert check_morphism(m).ok
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        shift = DiffMorphism(
            dst,
            dst,
            {"x": parse_ratfun(spec2, f"x+{a}" if a >= 0 else f"x-{-a}"),
             "y": parse_ratfun(spec2, f"y+{b}" if b >= 0 else f"y-{-b}")},
            [[parse_ratfun(spec2, "1"), parse_ratfun(spec2, "0")],
             [parse_ratfun(spec2, "0"), parse_ratfun(spec2, "1")]],
        )
        assert check_morphism(shift).ok
        # the composite a -> shift(m(a)): images pushed through shift, and
        # the 1-form matrix of shift times the pushed one of m
        images = {v: shift.apply(img) for v, img in m.gen_images.items()}
        pushed = [[shift.apply(x) for x in row] for row in m.omega_matrix]
        omega = linalg.mat_mul(shift.omega_matrix, pushed)
        composite = DiffMorphism(src, dst, images, omega)
        assert check_morphism(composite).ok


def test_param_structure_examples():
    dx = coordinate_derivation(SPECXT, "x")
    dt = coordinate_derivation(SPECXT, "t")
    ps = build_param_structure(SPECXT, [dx], [dt], ["t"])
    assert ps.principal_count == 1 and ps.parameter_count == 1

    spec = FieldSpec(["x1", "x2", "t"])
    ps2 = build_param_structure(
        spec,
        [coordinate_derivation(spec, "x1"), coordinate_derivation(spec, "x2")],
        [coordinate_derivation(spec, "t")],
        ["t"],
    )
    assert ps2.principal_count == 2

    with pytest.raises(PrincipalMovesConstants):
        build_param_structure(SPECXT, [dt], [], ["t"])
    # with no principal derivation every variable is a joint constant
    ps3 = build_param_structure(SPECXT, [], [dx, dt], ["x", "t"])
    assert ps3.principal_count == 0 and ps3.parameter_count == 2


def test_param_structure_rejects_noncommuting():
    x = rxt("x")
    dx = coordinate_derivation(SPECXT, "x")
    second = dx.scale(x).add(coordinate_derivation(SPECXT, "t"))
    with pytest.raises(NotCommuting):
        build_param_structure(SPECXT, [dx, second], [], [])


def test_param_structure_rejects_incomplete_principal_span():
    spec = FieldSpec(["x", "y", "t"])
    with pytest.raises(ConstantsMismatch):
        build_param_structure(
            spec,
            [coordinate_derivation(spec, "x")],
            [coordinate_derivation(spec, "t")],
            ["t"],
        )
    # an empty principal span makes every variable a joint constant, x too
    with pytest.raises(ConstantsMismatch):
        build_param_structure(SPECXT, [], [coordinate_derivation(SPECXT, "t")], ["t"])


def test_param_structure_rejects_dependent_parameter_restrictions():
    spec = FieldSpec(["x", "t1", "t2"])
    dt1 = coordinate_derivation(spec, "t1")
    with pytest.raises(NotIndependent):
        build_param_structure(
            spec,
            [coordinate_derivation(spec, "x")],
            [dt1, dt1.scale(parse_ratfun(spec, "2"))],
            ["t1", "t2"],
        )


def test_param_structure_computes_each_bracket_once(monkeypatch):
    """The commuting check computes each bracket; the structures built from
    it get zero constants without a second bracket or any solve."""
    import paramjet.diffstruct as diffstruct

    calls = {"bracket": 0, "solve": 0}
    real_bracket, real_solve = diffstruct.bracket, linalg.solve_or_residual

    def counting_bracket(a, b):
        calls["bracket"] += 1
        return real_bracket(a, b)

    def counting_solve(a, b):
        calls["solve"] += 1
        return real_solve(a, b)

    monkeypatch.setattr(diffstruct, "bracket", counting_bracket)
    monkeypatch.setattr(linalg, "solve_or_residual", counting_solve)
    spec = FieldSpec(["x1", "x2", "t1", "t2"])
    ps = build_param_structure(
        spec,
        [coordinate_derivation(spec, v) for v in ("x1", "x2")],
        [coordinate_derivation(spec, v) for v in ("t1", "t2")],
        ["t1", "t2"],
    )
    assert calls == {"bracket": 6, "solve": 0}  # 13 and 7 when built twice over
    zero = RatFun.zero(spec)
    assert ps.full.dim == 4 and ps.principal_structure.dim == 2
    assert ps.full.constants(1, 3) == [zero] * 4
    assert ps.principal_structure.constants(1, 0) == [zero] * 2


def test_param_structure_basis_errors_keep_their_messages():
    spec = FieldSpec(["x"])
    dx = coordinate_derivation(spec, "x")
    with pytest.raises(ValueError, match="^empty derivation basis$"):
        build_param_structure(spec, [], [], [])
    other = FieldSpec(["y"])
    with pytest.raises(ValueError, match="^derivation over the wrong field$"):
        build_param_structure(spec, [coordinate_derivation(other, "y")], [], [])
    with pytest.raises(NotIndependent, match="^derivation basis is linearly dependent over the field$"):
        build_param_structure(spec, [dx, dx.scale(parse_ratfun(spec, "2"))], [], [])


def test_apply_to_zero_differentiates_nothing(monkeypatch):
    import paramjet.diffstruct as diffstruct

    calls = []
    real = diffstruct.partial_derivative

    def counting(a, i):
        calls.append(i)
        return real(a, i)

    monkeypatch.setattr(diffstruct, "partial_derivative", counting)
    delta = Derivation(SPECXT, [rxt("x"), rxt("1/(x-t)")])
    for zero in (RatFun.zero(SPECXT), rxt("x-x")):
        assert delta.apply(zero) is RatFun.zero(SPECXT)
    assert calls == []
    assert delta.apply(rxt("x*t")) == rxt("x*t+x/(x-t)") and calls == [0, 1]
