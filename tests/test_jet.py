import random

import pytest

from paramjet import linalg
from paramjet.diffstruct import build_structure, coordinate_derivation, deRham_d0
from paramjet.errors import MembershipViolated, NotInAugmentationIdeal
from paramjet.field import FieldSpec, parse_ratfun
from paramjet.jet import (
    Jet1Element,
    Jet2Element,
    Jet11Element,
    jet1_e,
    jet1_l,
    jet1_mul,
    jet1_r,
    jet2_Delta,
    jet2_canonical_lift,
    jet2_e,
    jet2_gamma,
    jet2_is_member,
    jet2_l,
    jet2_membership_defect,
    jet2_mul,
    jet2_proj1,
    jet2_r,
    jet2_sym_value,
    jet11_membership_defect,
    jet11_mul,
    jet11_to_jet2,
)
from paramjet.jet import _deriv_matrix, _outer

from conftest import rand_ratfun

SPEC = FieldSpec(["x", "t"])


def rf(s):
    return parse_ratfun(SPEC, s)


@pytest.fixture(scope="module")
def s():
    return build_structure(
        SPEC, [coordinate_derivation(SPEC, "x"), coordinate_derivation(SPEC, "t")]
    )


def rand_member(s, rng) -> Jet2Element:
    """A random 2-jet element: any (a, ω) plus a symmetric η-part on top of
    the canonical antisymmetric lift of dω."""
    a = rand_ratfun(SPEC, rng, max_deg=1)
    w = [rand_ratfun(SPEC, rng, max_deg=1), rand_ratfun(SPEC, rng, max_deg=1)]
    base = jet2_canonical_lift(w, s)
    s01 = rand_ratfun(SPEC, rng, max_deg=1)
    sym = [[rand_ratfun(SPEC, rng, max_deg=1), s01], [s01, rand_ratfun(SPEC, rng, max_deg=1)]]
    return Jet2Element(a, w, linalg.mat_add(base.eta, sym))


def test_jet1_examples(s):
    x = rf("x")
    b = Jet1Element(rf("1"), linalg.identity(SPEC, 2)[0])
    prod = jet1_mul(b, jet1_r(x, s))
    assert prod.a == x
    assert prod.omega == [rf("x+1"), rf("0")]
    assert jet1_e(jet1_r(rf("t/x"), s)) == rf("t/x")
    assert jet1_e(jet1_l(x, s)) == x == jet1_e(jet1_r(x, s))


def test_jet1_l_r_are_homomorphisms(s):
    rng = random.Random(31)
    for _ in range(50):
        a, b = rand_ratfun(SPEC, rng), rand_ratfun(SPEC, rng)
        assert jet1_mul(jet1_r(a, s), jet1_r(b, s)) == jet1_r(a * b, s)
        assert jet1_mul(jet1_l(a, s), jet1_l(b, s)) == jet1_l(a * b, s)


def test_jet2_r_coincides_with_level1_under_proj(s):
    x = rf("x")
    assert jet2_proj1(jet2_r(x, s)) == jet1_r(x, s)
    assert jet2_proj1(jet2_l(x, s)) == jet1_l(x, s)


def test_jet2_mul_r_homomorphism_fixture(s):
    x, t = rf("x"), rf("t")
    prod = jet2_mul(jet2_r(x, s), jet2_r(t, s), s)
    assert prod == jet2_r(x * t, s)
    assert prod.omega == [t, x]  # d(xt) = t dx + x dt


def test_jet2_homomorphisms_random(s):
    rng = random.Random(37)
    for _ in range(50):
        a, b = rand_ratfun(SPEC, rng), rand_ratfun(SPEC, rng)
        assert jet2_mul(jet2_r(a, s), jet2_r(b, s), s) == jet2_r(a * b, s)
        assert jet2_mul(jet2_l(a, s), jet2_l(b, s), s) == jet2_l(a * b, s)


def test_left_scaling_structure(s):
    """Left multiplication scales the scalar and form parts; the tensor
    block picks up the bimodule correction da⊗ω."""
    rng = random.Random(41)
    for _ in range(20):
        a = rand_ratfun(SPEC, rng, max_deg=1)
        m = rand_member(s, rng)
        prod = jet2_mul(jet2_l(a, s), m, s)
        assert prod.a == a * m.a
        assert prod.omega == [a * c for c in m.omega]
        expected_eta = linalg.mat_add(
            linalg.mat_scale(a, m.eta), _outer(deRham_d0(a, s), m.omega)
        )
        assert prod.eta == expected_eta


def test_jet2_mul_commutative_associative(s):
    rng = random.Random(43)
    for _ in range(50):
        m1, m2, m3 = rand_member(s, rng), rand_member(s, rng), rand_member(s, rng)
        p12 = jet2_mul(m1, m2, s)
        assert jet2_is_member(p12, s)
        assert p12 == jet2_mul(m2, m1, s)
        assert jet2_mul(p12, m3, s) == jet2_mul(m1, jet2_mul(m2, m3, s), s)


def test_membership_closed_under_module_ops(s):
    rng = random.Random(47)
    for _ in range(25):
        m1, m2 = rand_member(s, rng), rand_member(s, rng)
        assert jet2_is_member(m1.add(m2), s)
        assert jet2_is_member(jet2_mul(jet2_l(rand_ratfun(SPEC, rng), s), m1, s), s)
        assert jet2_is_member(jet2_mul(jet2_r(rand_ratfun(SPEC, rng), s), m1, s), s)


def test_membership_rejects_wrong_antisymmetric_part(s):
    w = [rf("x*t"), rf("0")]
    bad = Jet2Element(rf("0"), w, linalg.zeros(s.base, s.dim, s.dim))
    # d(xt dx) has a nonzero (1,2) component, but eta is symmetric here
    assert not jet2_is_member(bad, s)
    with pytest.raises(MembershipViolated):
        jet2_mul(bad, jet2_r(rf("1"), s), s)


def test_delta_and_counit_laws(s):
    rng = random.Random(53)
    for _ in range(20):
        m = rand_member(s, rng)
        d = jet2_Delta(m, s)
        # both one-sided counits of the comultiplied element give proj1
        assert Jet1Element(d.a, d.omega_right) == jet2_proj1(m)
        assert Jet1Element(d.a, d.omega_left) == jet2_proj1(m)
        assert jet2_e(m) == jet1_e(jet2_proj1(m))
        # Delta is a section of the canonical-form reading
        assert jet11_to_jet2(d, s) == m


def test_delta_multiplicative(s):
    rng = random.Random(59)
    for _ in range(25):
        m1, m2 = rand_member(s, rng), rand_member(s, rng)
        lhs = jet11_mul(jet2_Delta(m1, s), jet2_Delta(m2, s))
        rhs = jet2_Delta(jet2_mul(m1, m2, s), s)
        assert lhs == rhs


def test_proj1_kernel_is_symmetric_square(s):
    sym = Jet2Element(
        rf("0"),
        [rf("0"), rf("0")],
        ((rf("2"), rf("x")), (rf("x"), rf("0"))),
    )
    assert jet2_is_member(sym, s)
    p = jet2_proj1(sym)
    assert p.a.is_zero() and p.omega == [rf("0"), rf("0")]


def test_gamma_examples(s):
    x = rf("x")
    gx = Jet2Element(rf("0"), deRham_d0(x, s), linalg.zeros(s.base, s.dim, s.dim))
    g = jet2_gamma(gx, s)
    assert g[0][0] == rf("1")
    assert all(g[i][j].is_zero() for i in range(2) for j in range(2) if (i, j) != (0, 0))
    doubled = jet2_mul(jet2_l(rf("2"), s), gx, s)
    assert jet2_gamma(doubled, s) == linalg.mat_scale(rf("4"), g)
    with pytest.raises(NotInAugmentationIdeal):
        jet2_gamma(jet2_r(x, s), s)


def test_gamma_laws_random(s):
    rng = random.Random(61)
    for _ in range(25):
        m1 = rand_member(s, rng)
        m2 = rand_member(s, rng)
        m1 = Jet2Element(rf("0"), m1.omega, m1.eta)
        m2 = Jet2Element(rf("0"), m2.omega, m2.eta)
        # γ(ax) = a² γ(x) through the left scalar structure
        a = rand_ratfun(SPEC, rng, max_deg=1)
        scaled = jet2_mul(jet2_l(a, s), m1, s)
        assert jet2_gamma(scaled, s) == linalg.mat_scale(a * a, jet2_gamma(m1, s))
        # γ(x+y) − γ(x) − γ(y) = xy, the product read as a tensor element
        lhs = linalg.mat_sub(
            linalg.mat_sub(jet2_gamma(m1.add(m2), s), jet2_gamma(m1, s)), jet2_gamma(m2, s)
        )
        assert lhs == jet2_sym_value(jet2_mul(m1, m2, s))


def test_augmentation_kills_symmetric_square(s):
    rng = random.Random(67)
    sym = Jet2Element(
        rf("0"), [rf("0"), rf("0")], ((rf("1"), rf("0")), (rf("0"), rf("1")))
    )
    for _ in range(10):
        m = rand_member(s, rng)
        m0 = Jet2Element(rf("0"), m.omega, m.eta)
        assert jet2_mul(m0, sym, s) == jet2_l(rf("0"), s)


def test_canonical_lift_is_member_for_every_form(s):
    rng = random.Random(71)
    for _ in range(25):
        w = [rand_ratfun(SPEC, rng), rand_ratfun(SPEC, rng)]
        lift = jet2_canonical_lift(w, s)
        assert jet2_is_member(lift, s)
        # products of augmentation-ideal elements land in the symmetric square
        m = rand_member(s, rng)
        m0 = Jet2Element(rf("0"), m.omega, m.eta)
        prod = jet2_mul(lift, m0, s)
        assert prod.a.is_zero() and prod.omega == [rf("0"), rf("0")]
        jet2_sym_value(prod)


def test_jets_over_nonfree_dual_basis(example39):
    """The same laws hold over Example 3.9's non-coordinate basis."""
    s39 = example39[0]
    spec = s39.base
    r = lambda text: parse_ratfun(spec, text)
    z = r("z")
    assert jet2_mul(jet2_r(z, s39), jet2_r(z, s39), s39) == jet2_r(z * z, s39)


def read_back_defect(x: Jet11Element, s):
    """The membership defect of the read-back element η = D(ω) − x.eta,
    through dω: the formula the canonical-form one replaced."""
    if x.omega_left != x.omega_right:
        return None
    eta = linalg.mat_sub(_deriv_matrix(x.omega_left, s), x.eta)
    return jet2_membership_defect(Jet2Element(x.a, x.omega_left, eta), s)


@pytest.fixture(scope="module")
def s_noncommuting():
    """{∂x, x·∂t}: [∂x, x·∂t] = ∂t = (1/x)·(x·∂t), so c_01 = (0, 1/x)."""
    return build_structure(
        SPEC, [coordinate_derivation(SPEC, "x"), coordinate_derivation(SPEC, "t").scale(rf("x"))]
    )


@pytest.mark.parametrize("structure", ["s", "s_noncommuting"])
def test_jet11_membership_defect_matches_read_back_oracle(structure, request):
    s = request.getfixturevalue(structure)
    rng = random.Random(47)
    non_members = 0
    for _ in range(30):
        member = jet2_Delta(rand_member(s, rng), s)
        product = jet11_mul(member, jet2_Delta(rand_member(s, rng), s))
        w = member.omega_left
        noise = [[rand_ratfun(SPEC, rng, max_deg=1) for _ in range(2)] for _ in range(2)]
        perturbed = Jet11Element(member.a, w, w, linalg.mat_add(member.eta, noise))
        slots_differ = Jet11Element(member.a, w, [w[0] + rf("1"), w[1]], member.eta)
        for x in (member, product, perturbed, slots_differ):
            assert jet11_membership_defect(x, s) == read_back_defect(x, s)
        assert linalg.is_zero_matrix(jet11_membership_defect(member, s))
        assert linalg.is_zero_matrix(jet11_membership_defect(product, s))
        assert jet11_membership_defect(slots_differ, s) is None
        if not linalg.is_zero_matrix(jet11_membership_defect(perturbed, s)):
            non_members += 1
            with pytest.raises(MembershipViolated, match="^antisymmetric part does not match dω$"):
                jet11_to_jet2(perturbed, s)
        with pytest.raises(MembershipViolated, match="^left and right form slots differ$"):
            jet11_to_jet2(slots_differ, s)
    assert non_members >= 20


def test_jet2_mul_takes_d_of_its_operands_only(s, monkeypatch):
    """Each operand's form is differentiated once, for its membership check
    and its image in P1 ⊗ P1 alike, and the product's form once, to read
    it back; no dω is built on top of those derivative matrices."""
    import paramjet.jet as jet

    d1_calls, deriv_calls = [], []
    real_d1, real_deriv = jet.deRham_d1, jet._deriv_matrix
    monkeypatch.setattr(jet, "deRham_d1", lambda omega, st: d1_calls.append(omega) or real_d1(omega, st))
    monkeypatch.setattr(
        jet, "_deriv_matrix", lambda omega, st: deriv_calls.append(omega) or real_deriv(omega, st))
    x, t = rf("x"), rf("t")
    a, b = jet2_r(x, s), jet2_r(t, s)
    prod = jet2_mul(a, b, s)
    assert prod == jet2_r(x * t, s)
    assert d1_calls == []
    assert deriv_calls == [a.omega, b.omega, prod.omega]


def general_jet11_mul(x: Jet11Element, y: Jet11Element) -> Jet11Element:
    """The componentwise product with each form slot computed on its own."""
    def slot(u, v):
        return [x.a * p + y.a * q for p, q in zip(v, u)]

    eta = linalg.mat_add(linalg.mat_scale(x.a, y.eta), linalg.mat_scale(y.a, x.eta))
    eta = linalg.mat_add(eta, _outer(x.omega_left, y.omega_right))
    eta = linalg.mat_add(eta, _outer(y.omega_left, x.omega_right))
    return Jet11Element(x.a * y.a, slot(x.omega_left, y.omega_left), slot(x.omega_right, y.omega_right), eta)


def test_jet11_mul_shares_the_form_of_operands_that_share_theirs(s):
    """Operands from jet2_Delta hold one list in both slots; so does their
    product, and it equals the general formula."""
    rng = random.Random(61)
    for _ in range(10):
        dx, dy = jet2_Delta(rand_member(s, rng), s), jet2_Delta(rand_member(s, rng), s)
        assert dx.omega_left is dx.omega_right and dy.omega_left is dy.omega_right
        product = jet11_mul(dx, dy)
        assert product.omega_left is product.omega_right
        assert product == general_jet11_mul(dx, dy)


def test_jet11_mul_of_elements_whose_slots_differ_is_the_general_formula(s):
    rng = random.Random(67)
    for _ in range(10):
        m = jet2_Delta(rand_member(s, rng), s)
        w = m.omega_left
        differ = Jet11Element(m.a, w, [w[0] + rf("1"), w[1] * rf("x")], m.eta)
        equal_copy = Jet11Element(m.a, w, list(w), m.eta)  # equal slots, two lists
        for x, y in [(differ, m), (m, differ), (differ, differ), (equal_copy, m)]:
            product = jet11_mul(x, y)
            assert product == general_jet11_mul(x, y)
            assert product.omega_left is not product.omega_right
