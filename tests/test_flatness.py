"""Flatness recorded by construction.  Every module that a constructor
records flat has zero curvature when it is computed past the record, on
the fixtures and on a generated ``gauge-closure`` session; a curved or
unchecked operand leaves the record unknown, and the CLI then finds the
same witness as the full curvature test always did."""

import argparse
import hashlib
import importlib.util
import json
import pathlib
import random
import sys

import pytest

from paramjet import linalg
from paramjet.cli import main, parse_session, run_session
from paramjet.conn import (
    DiffModule,
    ModMorphism,
    check_integrability,
    curvature_residual,
    direct_sum,
    dual,
    hom,
    morphism_check,
    tensor,
)
from paramjet.diffstruct import build_param_structure, coordinate_derivation
from paramjet.field import FieldSpec, RatFun, parse_ratfun
from paramjet.prolong import (
    at2_module,
    extension_of_prolongation,
    generate_closure,
    prolong_module,
    prolong_morphism,
)

from conftest import (gauge_module, parameter_sub, perturb_module, rand_gauge_module, rand_ratfun,
                      rand_unipotent)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOOD_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.session") if p.stem != "malformed")


def assert_zero_curvature(m):
    p = m.ps.principal_count
    for i in range(p):
        for j in range(i + 1, p):
            assert linalg.is_zero_matrix(curvature_residual(m, i, j)), (m.rank, i, j)


def derived_from_flat(m, depth, rank_cap):
    """The modules that one constructor makes from the flat module m alone:
    its dual, prolongation, at2, Baer sub and closure items."""
    yield dual(m)
    yield prolong_module(m).core
    yield at2_module(m).invariant
    yield extension_of_prolongation(m).sub
    yield from (item.module for item in generate_closure(m, depth, rank_cap).items[1:])


def run_text(text, **flags):
    """The session of ``text`` after its commands ran, and the names of the
    modules it declares."""
    session = parse_session(text)
    declared = set(session.modules)
    run_session(session, argparse.Namespace(degree_bound=0, **flags))
    return session, declared


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_fixture_modules_recorded_flat_have_zero_curvature(name):
    """The modules the fixture binds, and every module built from its flat
    declared modules by dual, tensor, hom, direct sum, prolongation, at2,
    Baer sub and closure, are recorded flat and have zero curvature."""
    text = (FIXTURES / f"{name}.session").read_text(encoding="utf-8")
    session, declared = run_text(text, depth=1, rank_cap=4)
    flat = [session.modules[n] for n in sorted(declared)]
    flat = [m for m in flat if check_integrability(m).flat]
    built = [m for n, m in session.modules.items() if n not in declared and m.flat is True]
    for m in flat:
        built += derived_from_flat(m, 1, 4)
        for n in flat:
            if n.ps == m.ps:
                built += [tensor(m, n), hom(m, n), direct_sum(m, n)]
    for m in built:
        assert m.flat is True
        assert_zero_curvature(m)


def _bench_gen():
    """``bench/gen.py``, loaded by path: ``bench`` is not a package."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves the module by name
    spec.loader.exec_module(module)
    return module


_GAUGE_SESSIONS = _bench_gen().gen_gauge(11, 4)


@pytest.mark.parametrize("index", range(4))
def test_gauge_closure_modules_recorded_flat_have_zero_curvature(index):
    """A generated gauge-closure session: its tensor, hom, dual, prolong
    and at2 results, its closure items and the Baer sub of its modules are
    recorded flat, and their curvature is zero."""
    generated = _GAUGE_SESSIONS[index]
    session, declared = run_text(generated.text, depth=1, rank_cap=6)
    assert sorted(set(session.modules) - declared) == [
        "GD", "GK", "HGK", "HKG", "KG", "PG", "PK", "SG",
    ]
    built = [m for n, m in session.modules.items() if n not in declared]
    for name in sorted(declared):
        m = session.modules[name]
        built.append(extension_of_prolongation(m).sub)
        built += [item.module for item in generate_closure(m, 1, 6).items[1:]]
    for m in built:
        assert m.flat is True
        assert_zero_curvature(m)


def test_curved_or_unchecked_operand_leaves_flatness_unknown(x12t):
    spec, ps = x12t
    f = rand_gauge_module(spec, ps, random.Random(21), 2)
    c = DiffModule(ps, 1, ([[parse_ratfun(spec, "-x2")]], [[parse_ratfun(spec, "0")]]))
    for m in (tensor(f, f), tensor(f, c), hom(c, f), direct_sum(f, f), dual(c)):
        assert m.flat is None  # both unchecked
    assert check_integrability(f).flat and not check_integrability(c).flat
    for m in (tensor(f, c), tensor(c, f), hom(f, c), hom(c, f), direct_sum(f, c),
              direct_sum(c, f), dual(c)):
        assert m.flat is None
        assert not check_integrability(m).flat
    for m in (tensor(f, f), hom(f, f), direct_sum(f, f), dual(f)):
        assert m.flat is True


CURVED_SESSION = """\
# a flat F and a curved C over Q(x, y, t)
field x y t

structure
  principal dx = 1, 0, 0
  principal dy = 0, 1, 0
  parameter dt = 0, 0, 1
  constants t
end

module F rank 2
  matrix dx
    t/x, 0
    0, 1/x
  end
  matrix dy
    0, 0
    0, 1/y
  end
end

module C rank 1
  matrix dx
    -y
  end
  matrix dy
    0
  end
end

command check-integrability F
command tensor U = F C
command hom V = C F
command check-integrability C
command tensor T = F C
command hom H = F C
command dual D = C
command tensor W = F F
command check-integrability U
command check-integrability V
command check-integrability T
command check-integrability H
command check-integrability D
command check-integrability W
command check-integrability C
"""


def test_cli_witness_of_curved_or_unchecked_operand(tmp_path):
    """A tensor or hom with an unchecked (U, V) or curved (T, H) operand,
    and the dual of a curved module, are checked in full and give the
    witness the full curvature test gave before flatness was recorded;
    the tensor square of the flat F is flat by construction, and C, known
    curved, is checked again.  The bytes are pinned."""
    session = tmp_path / "curved.session"
    session.write_text(CURVED_SESSION, encoding="utf-8")
    out = tmp_path / "curved.jsonl"
    assert main(["run", str(session), "--out", str(out), "--quiet"]) == 4
    payload = out.read_bytes()
    verdicts = [json.loads(line)["verdict"] for line in payload.splitlines()[1:]]
    assert verdicts[8:] == ["curved"] * 5 + ["flat", "curved"]
    digest = "d90fc1732512645d24334cdc08d5b06846fb4bdb89619fa67676104bb7244ee1"
    assert hashlib.sha256(payload).hexdigest() == digest


# --- the zero test of the curvature ---------------------------------------------


def canonical_residual(m, i, j):
    """∂i(Aj) − ∂j(Ai) − [Ai, Aj] in canonical form, by linalg operations."""
    di, dj = m.ps.principal[i], m.ps.principal[j]
    ai, aj = m.conn[i], m.conn[j]
    return linalg.mat_sub(
        linalg.mat_sub(linalg.entrywise(di.apply, aj), linalg.entrywise(dj.apply, ai)),
        linalg.mat_sub(linalg.mat_mul(ai, aj), linalg.mat_mul(aj, ai)),
    )


def assert_same_entries(got, want):
    assert linalg.shape(got) == linalg.shape(want)
    for row, want_row in zip(got, want):
        for x, y in zip(row, want_row):
            assert x == y and str(x) == str(y)


def assert_zero_test_agrees(m):
    """For every pair, the gcd-free zero test answers what the canonical
    residual shows, and curvature_residual returns that residual: a zero
    one as the field's shared zero in every entry, so built by no
    arithmetic."""
    p = m.ps.principal_count
    for i in range(p):
        for j in range(i + 1, p):
            expected = canonical_residual(m, i, j)
            di, dj = m.ps.principal[i], m.ps.principal[j]
            ai, aj = m.conn[i], m.conn[j]
            dai, daj = linalg.entrywise(dj.apply, ai), linalg.entrywise(di.apply, aj)
            zero = linalg.sum_is_zero([(1, daj), (-1, dai), (-1, ai, aj), (1, aj, ai)])
            assert zero == linalg.is_zero_matrix(expected), (m.rank, i, j)
            residual = curvature_residual(m, i, j)
            assert linalg.mat_eq(residual, expected), (m.rank, i, j)
            if zero:
                assert all(x is RatFun.zero(m.spec) for row in residual for x in row)


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_zero_test_agrees_with_canonical_residual_on_fixture_modules(name):
    """The fixture's declared modules, curved ones too, and the modules
    built from its flat declared modules by dual, tensor, hom, direct sum,
    prolongation, at2, Baer sub and closure."""
    text = (FIXTURES / f"{name}.session").read_text(encoding="utf-8")
    session, declared = run_text(text, depth=1, rank_cap=4)
    own = [session.modules[n] for n in sorted(declared)]
    flat = [m for m in own if check_integrability(m).flat]
    modules = own + [m for n, m in session.modules.items() if n not in declared]
    for m in flat:
        modules += derived_from_flat(m, 1, 4)
        modules += [op(m, n) for n in flat if n.ps == m.ps for op in (tensor, hom, direct_sum)]
    for m in modules:
        assert_zero_test_agrees(m)


@pytest.mark.parametrize("fixture", ["x12t", "p2q2"])
def test_zero_test_agrees_with_canonical_residual_on_random_modules(fixture, request):
    """Random gauge modules, rational ones of rank 1 among them, and their
    curved neighbours."""
    spec, ps = request.getfixturevalue(fixture)
    rng = random.Random(97)
    for k in range(6):
        m = rand_gauge_module(spec, ps, rng, 1 + k % 3)
        assert_zero_test_agrees(m)
        assert_zero_test_agrees(perturb_module(spec, ps, rng, m))


def test_late_curved_pair_is_the_witness():
    """Over three principal derivations, only the pair (1, 2) is curved:
    check_integrability passes the zero pairs and returns that pair with
    the canonical residual, entry for entry."""
    spec = FieldSpec(["x", "y", "z", "t"])
    ps = build_param_structure(
        spec,
        [coordinate_derivation(spec, v) for v in "xyz"],
        [coordinate_derivation(spec, "t")],
        ["t"],
    )
    rf = lambda s: parse_ratfun(spec, s)
    ax = [[rf("1/x"), rf("0")], [rf("0"), rf("1/x")]]
    ay = [[rf("1/(y+t)"), rf("0")], [rf("z"), rf("t/(y-z)")]]
    az = [[rf("0"), rf("y/(z-t)")], [rf("0"), rf("1/(y-z)")]]
    m = DiffModule(ps, 2, (ax, ay, az))
    for i, j in ((0, 1), (0, 2)):
        assert linalg.is_zero_matrix(canonical_residual(m, i, j))
    expected = canonical_residual(m, 1, 2)
    assert not linalg.is_zero_matrix(expected)
    verdict = check_integrability(m)
    assert not verdict.flat and m.flat is False
    i, j, residual = verdict.witness
    assert (i, j) == (1, 2)
    assert linalg.shape(residual) == (2, 2)
    assert_same_entries(residual, expected)


# --- the zero test of a morphism ------------------------------------------------


def canonical_morphism_residual(t, m, n, i):
    """∂i(T) − (A_N·T − T·A_M) in canonical form, entry by entry with the
    RatFun operations."""
    d, an, am = m.ps.principal[i], n.conn[i], m.conn[i]
    out = []
    for r in range(n.rank):
        row = []
        for c in range(m.rank):
            x = d.apply(t[r][c])
            for s in range(n.rank):
                x = x - an[r][s] * t[s][c]
            for s in range(m.rank):
                x = x + t[r][s] * am[s][c]
            row.append(x)
        out.append(row)
    return out


def assert_morphism_test_agrees(t, m, n):
    """For every principal index the zero test answers what the canonical
    residual shows; morphism_check fails at the first nonzero residual and
    returns it.  Returns the verdict."""
    residuals = [canonical_morphism_residual(t, m, n, i) for i in range(m.ps.principal_count)]
    for i, (d, res) in enumerate(zip(m.ps.principal, residuals)):
        dt = linalg.entrywise(d.apply, t)
        zero = linalg.sum_is_zero([(1, dt), (-1, n.conn[i], t), (1, t, m.conn[i])])
        assert zero == linalg.is_zero_matrix(res), i
    failing = [i for i, res in enumerate(residuals) if not linalg.is_zero_matrix(res)]
    verdict = morphism_check(t, m, n)
    assert verdict.ok == (not failing)
    if failing:
        assert verdict.index == failing[0]
        assert_same_entries(verdict.residual, residuals[failing[0]])
    return verdict


def bumped(t, r, c, bump):
    out = [list(row) for row in t]
    out[r][c] = out[r][c] + bump
    return out


def gauge_image(m, t):
    """The module N = (∂T + T·A)·T⁻¹ that T maps M into."""
    t_inv = linalg.inverse(t)
    conn_n = tuple(
        linalg.mat_mul(linalg.mat_add(linalg.entrywise(d.apply, t), linalg.mat_mul(t, a)), t_inv)
        for d, a in zip(m.ps.principal, m.conn)
    )
    return DiffModule(m.ps, m.rank, conn_n)


def test_morphism_test_agrees_on_calculus_morphism():
    """The calculus fixture's idm, and idm with its entry bumped by x."""
    session = parse_session((FIXTURES / "calculus.session").read_text(encoding="utf-8"))
    src, dst, t = session.mod_morphisms["idm"]
    m, n = session.modules[src], session.modules[dst]
    assert assert_morphism_test_agrees(t, m, n).ok
    assert not assert_morphism_test_agrees(bumped(t, 0, 0, parse_ratfun(m.spec, "x")), m, n).ok


@pytest.mark.parametrize("fixture", ["xt", "x12t", "p2q2"])
def test_morphism_test_agrees_on_prolongation_maps(fixture, request):
    """incl and proj of the prolongation sequence and prolong_morphism of a
    gauge morphism pass; each with one entry bumped fails."""
    spec, ps = request.getfixturevalue(fixture)
    rng = random.Random(59)
    g1, g2 = rand_unipotent(spec, ps, rng, 2), rand_unipotent(spec, ps, rng, 2)
    m1, m2 = gauge_module(ps, g1), gauge_module(ps, g2)
    p = prolong_module(m1)
    big = prolong_morphism(ModMorphism(m1, m2, linalg.mat_mul(linalg.inverse(g2), g1)))
    bump = parse_ratfun(spec, spec.variables[0])
    for t, m, n in ((p.incl, parameter_sub(m1), p.core), (p.proj, p.core, m1),
                    (big.matrix, big.src, big.dst)):
        assert assert_morphism_test_agrees(t, m, n).ok
        assert not assert_morphism_test_agrees(bumped(t, 0, 0, bump), m, n).ok


@pytest.mark.parametrize("fixture", ["x12t", "p2q2"])
def test_morphism_test_agrees_on_random_gauges(fixture, request):
    """Random gauges T of rank 1-3, unipotent with their first row scaled
    by a random rational function, from a random gauge module M into
    N = (∂T + T·A)·T⁻¹ pass; T with a random entry bumped by a variable
    fails, and its witness is the canonical residual."""
    spec, ps = request.getfixturevalue(fixture)
    rng = random.Random(131)
    failed = 0
    for k in range(6):
        rank = 1 + k % 3
        m = rand_gauge_module(spec, ps, rng, rank)
        t = rand_unipotent(spec, ps, rng, rank)
        u = rand_ratfun(spec, rng)
        while u.is_zero():
            u = rand_ratfun(spec, rng)
        t[0] = [u * x for x in t[0]]
        n = gauge_image(m, t)
        assert assert_morphism_test_agrees(t, m, n).ok
        bump = parse_ratfun(spec, rng.choice(spec.variables[:2]))
        t2 = bumped(t, rng.randrange(rank), rng.randrange(rank), bump)
        failed += not assert_morphism_test_agrees(t2, m, n).ok
    assert failed == 6


def test_morphism_failing_only_at_second_index(x12t):
    """N agrees with the image of M under T in its first connection matrix
    and not in its second: only index 1 fails, and its canonical residual
    is the witness."""
    spec, ps = x12t
    rng = random.Random(7)
    m = rand_gauge_module(spec, ps, rng, 2)
    t = rand_unipotent(spec, ps, rng, 2)
    n = gauge_image(m, t)
    n2 = DiffModule(ps, 2, (n.conn[0], bumped(n.conn[1], 1, 0, parse_ratfun(spec, "1/(x1+t)"))))
    verdict = assert_morphism_test_agrees(t, m, n2)
    assert not verdict.ok and verdict.index == 1


def test_only_a_failing_morphism_check_builds_a_residual(x12t, monkeypatch):
    """A passing morphism_check calls neither linalg.mat_mul nor
    linalg.mat_sub; a failing one builds its witness once, from two
    products and two differences."""
    spec, ps = x12t
    rng = random.Random(17)
    m = rand_gauge_module(spec, ps, rng, 3)
    t = rand_unipotent(spec, ps, rng, 3)
    n = gauge_image(m, t)
    calls = []
    for name in ("mat_mul", "mat_sub"):
        def counted(*args, _name=name, _original=getattr(linalg, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(linalg, name, counted)
    assert morphism_check(t, m, n).ok and calls == []
    assert not morphism_check(bumped(t, 0, 0, parse_ratfun(spec, "x1")), m, n).ok
    assert sorted(calls) == ["mat_mul", "mat_mul", "mat_sub", "mat_sub"]
