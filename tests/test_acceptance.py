"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its runtime budget."""

import argparse
import json
import pathlib
import random
import time

import pytest

from paramjet import linalg
from paramjet.conn import (
    DiffModule,
    ModMorphism,
    check_integrability,
    horizontal_space,
    morphism_check,
    phi2_membership,
)
from paramjet.diffstruct import (
    build_structure,
    coordinate_derivation,
    deRham_d0,
    deRham_d1,
    lie_derivative,
    lie_derivative_general,
)
from paramjet.errors import NotClosed
from paramjet.field import FieldSpec, RatFun, parse_ratfun, partial_derivative
from paramjet.jet import (
    Jet1Element,
    Jet2Element,
    jet1_e,
    jet1_l,
    jet1_mul,
    jet1_r,
    jet2_Delta,
    jet2_e,
    jet2_gamma,
    jet2_is_member,
    jet2_l,
    jet2_mul,
    jet2_proj1,
    jet2_r,
    jet2_sym_value,
    jet2_canonical_lift,
)
from paramjet.prolong import at2_module, check_tensor_compat, prolong_module, prolong_morphism

from conftest import (
    gauge_module,
    morphism39,
    parameter_sub,
    perturb_module,
    rand_gauge_module,
    rand_poly,
    rand_ratfun,
    rand_unipotent,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


class Budget:
    def __init__(self, criterion: int, limit_s: float):
        self.criterion = criterion
        self.limit = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s / limit {self.limit:g}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.criterion} exceeded its budget"
        return False


def test_criterion_1_ring_morphism_reproduction(example39):
    src, dst = example39
    spec = dst.base
    with Budget(1, 5):
        from paramjet.diffstruct import check_morphism

        ok = check_morphism(morphism39(src, dst, "y", "x"))
        assert ok.ok
        fail = check_morphism(morphism39(src, dst, "y", "0"))
        assert fail.kind == "integrability_fail"
        assert fail.witness_two_form[0][1] == parse_ratfun(spec, "-1")
        rng = random.Random(390)
        flips = 0
        for k in range(20):
            if k % 2 == 0:
                h = RatFun.from_poly(rand_poly(spec, rng, max_deg=3, terms=3))
                f = partial_derivative(h, "x")
                g = partial_derivative(h, "y")
            else:
                f = RatFun.from_poly(rand_poly(spec, rng, max_deg=2, terms=2))
                g = RatFun.from_poly(rand_poly(spec, rng, max_deg=2, terms=2))
            cond = partial_derivative(f, "y") == partial_derivative(g, "x")
            m = morphism39(src, dst, "0", "0")
            m = m.__class__(
                m.source,
                m.target,
                m.gen_images,
                (
                    (parse_ratfun(spec, "1"), parse_ratfun(spec, "0"), f),
                    (parse_ratfun(spec, "0"), parse_ratfun(spec, "1"), g),
                ),
            )
            verdict = check_morphism(m)
            assert verdict.ok == cond
            flips += 0 if cond else 1
        assert 0 < flips < 20  # both branches were exercised


def test_criterion_2_bracket_closure_rejection():
    with Budget(2, 1):
        spec = FieldSpec(["x", "y", "z"])
        r = lambda s: parse_ratfun(spec, s)
        basis = [
            coordinate_derivation(spec, "x").scale(r("z")).add(coordinate_derivation(spec, "y")),
            coordinate_derivation(spec, "z"),
        ]
        with pytest.raises(NotClosed) as err:
            build_structure(spec, basis)
        assert err.value.pair == (0, 1)
        assert err.value.residual.coeffs == [r("-1"), r("0"), r("0")]


def test_criterion_3_xt_prolongation_fixture(xt):
    spec, ps = xt
    with Budget(3, 2):
        m = DiffModule(ps, 1, ([[parse_ratfun(spec, "t/x")]],))
        p = prolong_module(m)
        rendered = [[str(c) for c in row] for row in p.core.conn[0]]
        assert rendered == [["(t)/(x)", "(0)/(1)"], ["(-1)/(x)", "(t)/(x)"]]
        for bound in range(4):
            assert horizontal_space(m, bound) == []


def test_criterion_4_jet_law_suite():
    spec = FieldSpec(["x", "t"])
    s = build_structure(
        spec, [coordinate_derivation(spec, "x"), coordinate_derivation(spec, "t")]
    )
    rng = random.Random(440)
    with Budget(4, 30):
        elements = [rand_ratfun(spec, rng, max_deg=2, terms=2) for _ in range(200)]
        for a in elements:
            assert jet1_e(jet1_l(a, s)) == a == jet1_e(jet1_r(a, s))
            assert jet2_e(jet2_l(a, s)) == a == jet2_e(jet2_r(a, s))
        for a, b in zip(elements[::2], elements[1::2]):
            assert jet1_mul(jet1_r(a, s), jet1_r(b, s)) == jet1_r(a * b, s)
            assert jet2_mul(jet2_r(a, s), jet2_r(b, s), s) == jet2_r(a * b, s)
            assert jet2_mul(jet2_l(a, s), jet2_l(b, s), s) == jet2_l(a * b, s)

        def member(a, w0, w1, s00, s01, s11):
            w = [w0, w1]
            base = jet2_canonical_lift(w, s)
            return Jet2Element(a, w, linalg.mat_add(base.eta, [[s00, s01], [s01, s11]]))

        members = []
        it = iter(elements)
        for _ in range(33):
            members.append(member(next(it), next(it), next(it), next(it), next(it), next(it)))
        for m in members:
            assert jet2_is_member(m, s)
            d = jet2_Delta(m, s)
            assert Jet1Element(d.a, d.omega_right) == jet2_proj1(m)
            assert Jet1Element(d.a, d.omega_left) == jet2_proj1(m)
        for m1, m2 in zip(members[::2], members[1::2]):
            prod = jet2_mul(m1, m2, s)
            assert jet2_is_member(prod, s)
            i1 = Jet2Element(RatFun.zero(spec), m1.omega, m1.eta)
            i2 = Jet2Element(RatFun.zero(spec), m2.omega, m2.eta)
            a = m1.a if not m1.a.is_zero() else parse_ratfun(spec, "x+2")
            assert jet2_gamma(jet2_mul(jet2_l(a, s), i1, s), s) == linalg.mat_scale(
                a * a, jet2_gamma(i1, s)
            )
            lhs = linalg.mat_sub(
                linalg.mat_sub(jet2_gamma(i1.add(i2), s), jet2_gamma(i1, s)),
                jet2_gamma(i2, s),
            )
            assert lhs == jet2_sym_value(jet2_mul(i1, i2, s))


def test_criterion_5_deRham_lie_suite(example39):
    with Budget(5, 30):
        spec_xt = FieldSpec(["x", "t"])
        s_xt = build_structure(
            spec_xt,
            [coordinate_derivation(spec_xt, "x"), coordinate_derivation(spec_xt, "t")],
        )
        s39 = example39[0]
        x = parse_ratfun(spec_xt, "x")
        nc = build_structure(
            spec_xt,
            [
                coordinate_derivation(spec_xt, "x"),
                coordinate_derivation(spec_xt, "x").scale(x).add(
                    coordinate_derivation(spec_xt, "t")
                ),
            ],
        )
        rng = random.Random(550)
        structures = [(s_xt, spec_xt), (s39, s39.base), (nc, spec_xt)]
        for s, spec in structures:
            for _ in range(34):
                a = rand_ratfun(spec, rng, max_deg=2, terms=2)
                assert linalg.is_zero_matrix(deRham_d1(deRham_d0(a, s), s))
        for s, spec in structures:
            d = s.dim
            for _ in range(17):
                w = [rand_ratfun(spec, rng, max_deg=1) for _ in range(d)]
                idx = rng.randrange(d)
                lw = lie_derivative(idx, w, s)
                for j in range(d):
                    rhs = s.basis[idx].apply(w[j]) - linalg.mat_vec([w], s.constants(idx, j))[0]
                    assert lw[j] == rhs
                a = rand_ratfun(spec, rng, max_deg=1)
                lhs = lie_derivative_general(s.basis[idx].scale(a), w, s)
                rhs2 = [
                    a * u + w[idx] * v
                    for u, v in zip(lie_derivative(idx, w, s), deRham_d0(a, s))
                ]
                assert lhs == rhs2


def test_criterion_6_oracle_equivalence(x12t):
    spec, ps = x12t
    rng = random.Random(660)
    with Budget(6, 60):
        for k in range(25):
            rank = 1 + k % 3
            m = rand_gauge_module(spec, ps, rng, rank)
            vi = check_integrability(m)
            vp = phi2_membership(m)
            assert vi.flat and vp.ok
            p = perturb_module(spec, ps, rng, m)
            vi = check_integrability(p)
            vp = phi2_membership(p)
            assert (not vi.flat) and (not vp.ok)
            assert vp.witness == vi.witness[:2]


def test_criterion_7_prolongation_theorems(xt, x12t, p2q2):
    rng = random.Random(770)
    setups = [xt, x12t, p2q2]
    with Budget(7, 300):
        # flatness preservation + exact sequence invariants, 50 instances
        for k in range(50):
            spec, ps = setups[k % 3]
            m = rand_gauge_module(spec, ps, rng, 1 + k % 3)
            p = prolong_module(m)
            assert check_integrability(p.core).flat
            assert morphism_check(p.incl, parameter_sub(m), p.core).ok
            assert morphism_check(p.proj, p.core, m).ok
            assert linalg.is_zero_matrix(linalg.mat_mul(p.proj, p.incl))
        # functoriality on 20 composable pairs
        spec, ps = p2q2
        for _ in range(20):
            g1 = rand_unipotent(spec, ps, rng, 2, max_deg=1)
            g2 = rand_unipotent(spec, ps, rng, 2, max_deg=1)
            g3 = rand_unipotent(spec, ps, rng, 2, max_deg=1)
            m1, m2, m3 = (gauge_module(ps, g) for g in (g1, g2, g3))
            c = linalg.identity(spec, 2)
            c[0][1] = parse_ratfun(spec, "3")
            t12 = linalg.mat_mul(linalg.inverse(g2), g1)
            t23 = linalg.mat_mul(linalg.inverse(g3), linalg.mat_mul(c, g2))
            f12 = ModMorphism(m1, m2, t12)
            f23 = ModMorphism(m2, m3, t23)
            p12, p23 = prolong_morphism(f12), prolong_morphism(f23)
            assert morphism_check(p12.matrix, p12.src, p12.dst).ok
            eye = ModMorphism(m1, m1, linalg.identity(spec, 2))
            assert linalg.mat_eq(
                prolong_morphism(eye).matrix,
                linalg.identity(spec, 4 if ps.parameter_count == 1 else 6),
            )
            comp = ModMorphism(
                m1, m3, linalg.mat_mul(t23, t12)
            )
            assert linalg.mat_eq(
                prolong_morphism(comp).matrix,
                linalg.mat_mul(
                    p23.matrix, p12.matrix
                ),
            )
        # tensor compatibility on 25 pairs
        for k in range(25):
            spec, ps = setups[k % 3]
            m = rand_gauge_module(spec, ps, rng, 1 + k % 2)
            n = rand_gauge_module(spec, ps, rng, 1 + (k + 1) % 2)
            assert check_tensor_compat(m, n)
        # second prolongation restriction succeeds on 25 instances
        for k in range(25):
            spec, ps = setups[k % 3]
            m = rand_gauge_module(spec, ps, rng, 1 + k % 3)
            s = at2_module(m)
            q = ps.parameter_count
            assert s.invariant.rank == m.rank * (1 + q + q * (q + 1) // 2)
            double = prolong_module(prolong_module(m).core).core
            assert morphism_check(s.incl, s.invariant, double).ok


def test_criterion_8_horizontal_recovery(xt):
    spec, ps = xt
    rng = random.Random(880)
    with Budget(8, 120):
        for k in range(20):
            rank = 2 + k % 2
            t = rand_unipotent(spec, ps, rng, rank, steps=2, max_deg=1)
            if all(
                t[i][j].is_zero() or i == j for i in range(rank) for j in range(rank)
            ):
                t[0][rank - 1] = parse_ratfun(spec, "x*t")
            m = gauge_module(ps, t)
            t_inv = linalg.inverse(t)
            bound = max(
                (e.num.total_degree() for row in t_inv for e in row), default=0
            )
            found = horizontal_space(m, max(bound, 1))
            assert linalg.rank([list(v) for v in found]) == rank
            for v in found:
                for i, d in enumerate(ps.principal):
                    lhs = [d.apply(c) for c in v]
                    rhs = linalg.mat_vec(m.conn[i], list(v))
                    assert lhs == rhs


def test_criterion_9_cli_determinism(tmp_path):
    from paramjet.cli import main

    with Budget(9, 60):
        sessions = sorted(
            p for p in FIXTURES.glob("*.session") if p.name != "malformed.session"
        )
        assert sessions
        for session in sessions:
            outs = []
            for run_idx in range(2):
                out = tmp_path / f"{session.stem}.{run_idx}.jsonl"
                main(
                    [
                        "run",
                        str(session),
                        "--out",
                        str(out),
                        "--quiet",
                        "--degree-bound",
                        "1",
                        "--depth",
                        "1",
                        "--rank-cap",
                        "4",
                    ]
                )
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]
            # round-trip every derived module matrix
            from paramjet.cli import parse_session

            parsed = parse_session(session.read_text())
            for line in outs[0].decode().splitlines():
                rec = json.loads(line)
                derived = rec.get("derived")
                if not derived:
                    continue
                spec = parsed.structures[derived["structure"]].base
                for rows in derived["matrices"].values():
                    for row in rows:
                        for cell in row:
                            assert str(parse_ratfun(spec, cell)) == cell


def test_criterion_10_gcd_cliffs():
    """Rungs of the (x+t)^a/(x-t)^b ladder that took minutes with a full gcd
    of every result: a power builds its canonical form without one, and
    the quotient rule cancels only against the small gcd."""
    spec = FieldSpec(["x", "t"])
    with Budget(10, 1):
        parse_ratfun(spec, "(x+t)^24/(x-t)^18")
    with Budget(10, 1):
        d = partial_derivative(parse_ratfun(spec, "(x+t)^20/(x-t)^15"), "x")
    assert d == parse_ratfun(spec, "(x+t)^19*(20*(x-t)-15*(x+t))/(x-t)^16")


def test_criterion_11_rational_gauge_at2(tmp_path):
    """at2 of a rational gauge with t in its denominators, whose second
    t-derivative stalled the gcd, and the flatness of the result."""
    from paramjet.cli import main

    out = tmp_path / "rational_gauge_at2.jsonl"
    with Budget(11, 15):
        code = main(["run", str(FIXTURES / "rational_gauge_at2.session"), "--out", str(out),
                     "--quiet"])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert [(r["command"], r["verdict"]) for r in records] == [
        ("check-integrability", "flat"),
        ("at2", "ok"),
        ("check-integrability", "flat"),
    ]
    assert records[1]["derived"]["rank"] == 6


def test_criterion_12_rank18_flatness(tmp_path):
    """at2 of the rational gauge's at2, rank 18, and its flatness: every
    denominator is a product of powers of the gauge's two linear forms, so
    the quotient rule and the sums work on exponent vectors over the
    field's coprime base."""
    from paramjet.cli import main

    text = (FIXTURES / "rational_gauge_at2.session").read_text(encoding="utf-8")
    head = text[: text.index("command")]
    session = tmp_path / "rank18.session"
    session.write_text(
        head + "command at2 R2 = R\ncommand at2 R3 = R2\ncommand check-integrability R3\n",
        encoding="utf-8",
    )
    out = tmp_path / "rank18.jsonl"
    with Budget(12, 3):
        code = main(["run", str(session), "--out", str(out), "--quiet"])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert [(r["command"], r["verdict"]) for r in records] == [
        ("at2", "ok"),
        ("at2", "ok"),
        ("check-integrability", "flat"),
    ]
    assert records[1]["derived"]["rank"] == 18


def _rational_gauge_chain(*commands: str) -> str:
    """The declarations of the rational gauge fixture, then ``commands``."""
    text = (FIXTURES / "rational_gauge_at2.session").read_text(encoding="utf-8")
    return text[: text.index("command")] + "".join(f"command {c}\n" for c in commands)


def test_criterion_12_rank18_curvature_route(monkeypatch):
    """Criterion 12's rank-18 module is answered by construction in the CLI,
    so the full curvature test, which ignores that record, keeps the same
    3 s budget on it."""
    from paramjet import conn
    from paramjet.cli import parse_session, run_session

    session = parse_session(_rational_gauge_chain("at2 R2 = R", "at2 R3 = R2"))
    pairs = []
    residual = conn.curvature_residual

    def counted(m, i, j):
        pairs.append((i, j))
        return residual(m, i, j)

    with Budget(12, 3):
        run_session(session, argparse.Namespace(degree_bound=0, depth=1, rank_cap=8))
        r3 = session.modules["R3"]
        assert r3.rank == 18 and r3.flat is True
        monkeypatch.setattr(conn, "curvature_residual", counted)
        verdict = check_integrability(r3)
    assert verdict.flat and pairs == [(0, 1)]


@pytest.mark.parametrize(
    "commands, rank",
    [
        (["at2 R2 = R", "at2 R3 = R2", "at2 R4 = R3", "check-integrability R4"], 54),
        (["at2 R2 = R", "at2 R3 = R2", "tensor T = R3 R3", "check-integrability T"], 324),
    ],
    ids=["rank54-chain", "rank324-tensor"],
)
def test_criterion_13_flat_by_construction(tmp_path, commands, rank):
    """A chain of at2 and a tensor of flat modules is flat by construction:
    the check at its end takes no curvature test, so the whole session runs
    in the CLI in under 1.5 s."""
    from paramjet.cli import main

    session = tmp_path / "chain.session"
    session.write_text(_rational_gauge_chain(*commands), encoding="utf-8")
    out = tmp_path / "chain.jsonl"
    with Budget(13, 1.5):
        code = main(["run", str(session), "--out", str(out), "--quiet"])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert records[-1]["verdict"] == "flat"
    assert records[-2]["derived"]["rank"] == rank
