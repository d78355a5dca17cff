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
    check_integrability,
    curvature_residual,
    direct_sum,
    dual,
    hom,
    tensor,
)
from paramjet.field import parse_ratfun
from paramjet.prolong import (
    at2_module,
    extension_of_prolongation,
    generate_closure,
    prolong_module,
)

from conftest import rand_gauge_module

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
