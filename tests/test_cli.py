import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from paramjet.cli import VERBS, main, parse_session, run_session
from paramjet.conn import MAX_UNKNOWNS
from paramjet.errors import ParseError, SemanticError
from paramjet.field import MAX_EXPONENT, parse_ratfun

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(tmp_path, name, *extra):
    out = tmp_path / (name + ".jsonl")
    code = main(["run", str(FIXTURES / name), "--out", str(out), "--quiet", *extra])
    return code, out.read_bytes() if out.exists() else b""


def records_of(payload: bytes):
    return [json.loads(line) for line in payload.decode().splitlines()]


def test_xt_prolong_certificate(tmp_path):
    code, payload = run_cli(tmp_path, "xt_prolong.session")
    assert code == 0
    recs = records_of(payload)
    assert recs[0]["record"] == "header"
    prolong = next(r for r in recs if r.get("command") == "prolong")
    assert prolong["derived"]["matrices"]["dx"] == [
        ["(t)/(x)", "(0)/(1)"],
        ["(-1)/(x)", "(t)/(x)"],
    ]
    assert prolong["derived"]["parent_rank"] == 1
    assert prolong["derived"]["q"] == 1


def test_ring_morphism_sessions(tmp_path):
    code_ok, payload_ok = run_cli(tmp_path, "ring_morphism_ok.session")
    assert code_ok == 0
    recs = records_of(payload_ok)
    assert recs[1]["verdict"] == "ok"
    extended = next(r for r in recs if r.get("command") == "extend-scalars")
    assert extended["derived"]["matrices"]["dx"] == [["(-1*y)/(1)"]]
    assert extended["derived"]["matrices"]["dy"] == [["(-1*x)/(1)"]]

    code_fail, payload_fail = run_cli(tmp_path, "ring_morphism_fail.session")
    assert code_fail == 4
    recs = records_of(payload_fail)
    morph = next(r for r in recs if r.get("command") == "check-morphism")
    assert morph["verdict"] == "integrability-fail"
    assert morph["witness"]["two_form"] == ["(-1)/(1)"]
    integ = next(r for r in recs if r.get("command") == "check-integrability")
    assert integ["verdict"] == "curved"


def test_integrability_witness_lists_the_upper_triangle(tmp_path):
    """The pushed dz-form y dx + x dw is not closed: its d has entries
    (0, 1) = −1, (0, 2) = 1 and (1, 2) = 0, written in that order."""
    session = tmp_path / "witness.session"
    session.write_text(
        "field x y w\n"
        "structure\n  principal dx = 1, 0, 0\n  principal dy = 0, 1, 0\n"
        "  principal dw = 0, 0, 1\n  constants\nend\n"
        "structure ring3\n  field x y z\n  principal dx = 1, 0, 0\n"
        "  principal dy = 0, 1, 0\n  principal zdz = 0, 0, z\n  constants\nend\n"
        "ringmorphism phi : ring3 -> main\n  image x = x\n  image y = y\n  image z = 0\n"
        "  omega\n    1, 0, y\n    0, 1, 0\n    0, 0, x\n  end\nend\n"
        "command check-morphism phi\n"
    )
    out = tmp_path / "witness.jsonl"
    assert main(["run", str(session), "--out", str(out), "--quiet"]) == 4
    morph = next(r for r in records_of(out.read_bytes()) if r.get("command") == "check-morphism")
    assert morph["verdict"] == "integrability-fail"
    assert morph["witness"]["dual_index"] == 2
    assert morph["witness"]["two_form"] == ["(-1)/(1)", "(1)/(1)", "(0)/(1)"]


def test_d_compat_witness_lists_the_form(tmp_path):
    """W sends dx to dx + x dy, but d(φ(x)) = dx: the first variable fails
    d-compatibility with the difference 0 dx − x dy."""
    text = (FIXTURES / "ring_morphism_ok.session").read_text()
    text = text.replace("0, 1, x\n", "x, 1, x\n").split("module E")[0]
    session = tmp_path / "dcompat.session"
    session.write_text(text + "command check-morphism phi\n")
    out = tmp_path / "dcompat.jsonl"
    assert main(["run", str(session), "--out", str(out), "--quiet"]) == 4
    morph = out.read_bytes().splitlines()[1]
    assert morph == (
        b'{"args":["phi"],"command":"check-morphism","index":0,"record":"certificate",'
        b'"verdict":"d-compat-fail","witness":{"form":["(0)/(1)","(-1*x)/(1)"],"variable":"x"}}'
    )


def test_malformed_session_exit_code(tmp_path):
    code, _ = run_cli(tmp_path, "malformed.session")
    assert code == 2


def test_undefined_name_is_semantic_error(tmp_path):
    bad = tmp_path / "bad.session"
    bad.write_text(
        "field x t\n"
        "structure\n  principal dx = 1, 0\n  parameter dt = 0, 1\n  constants t\nend\n"
        "command check-integrability NOPE\n"
    )
    code = main(["run", str(bad), "--quiet", "--out", str(tmp_path / "o.jsonl")])
    assert code == 3


def test_shape_mismatch_is_semantic_error(tmp_path):
    bad = tmp_path / "bad2.session"
    bad.write_text(
        "field x t\n"
        "structure\n  principal dx = 1, 0\n  parameter dt = 0, 1\n  constants t\nend\n"
        "module M rank 2\n  matrix dx\n    t/x\n  end\nend\n"
        "command check-integrability M\n"
    )
    code = main(["run", str(bad), "--quiet", "--out", str(tmp_path / "o.jsonl")])
    assert code == 3


def test_round_trip_of_emitted_modules(tmp_path, xt):
    """Matrices in certificates re-parse to the library's exact values."""
    from paramjet.conn import DiffModule
    from paramjet.prolong import prolong_module

    spec, ps = xt
    code, payload = run_cli(tmp_path, "xt_prolong.session")
    assert code == 0
    recs = records_of(payload)
    prolong = next(r for r in recs if r.get("command") == "prolong")
    reingested = [
        [parse_ratfun(spec, cell) for cell in row]
        for row in prolong["derived"]["matrices"]["dx"]
    ]
    m = DiffModule(ps, 1, ([[parse_ratfun(spec, "t/x")]],))
    expected = prolong_module(m).core.conn[0]
    assert reingested == expected


def test_session_requires_definitions_before_use():
    with pytest.raises((ParseError, SemanticError)):
        parse_session("command check-integrability M\nfield x t\n")


def test_session_rejects_duplicate_names():
    text = (
        "field x t\n"
        "structure\n  principal dx = 1, 0\n  parameter dt = 0, 1\n  constants t\nend\n"
        "module M rank 1\n  matrix dx\n    0\n  end\nend\n"
        "module M rank 1\n  matrix dx\n    0\n  end\nend\n"
    )
    with pytest.raises(ParseError):
        parse_session(text)


def test_console_entry_point(tmp_path):
    """The installed script runs and produces the same bytes as main()."""
    out1 = tmp_path / "a.jsonl"
    main(["run", str(FIXTURES / "xt_prolong.session"), "--out", str(out1), "--quiet"])
    proc = subprocess.run(
        [sys.executable, "-m", "paramjet.cli", "run", str(FIXTURES / "xt_prolong.session")],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == out1.read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "paramjet", "run", str(FIXTURES / "xt_prolong.session")],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == out1.read_bytes()


def test_derived_names_chain(tmp_path):
    text = (
        "field x t\n"
        "structure\n  principal dx = 1, 0\n  parameter dt = 0, 1\n  constants t\nend\n"
        "module M rank 1\n  matrix dx\n    t/x\n  end\nend\n"
        "command prolong P = M\n"
        "command check-integrability P\n"
        "command at2 P\n"
    )
    f = tmp_path / "chain.session"
    f.write_text(text)
    out = tmp_path / "chain.jsonl"
    assert main(["run", str(f), "--quiet", "--out", str(out)]) == 0
    recs = records_of(out.read_bytes())
    at2 = next(r for r in recs if r.get("command") == "at2")
    # the invariant part of the twice-prolonged rank-2 module has rank 6
    assert at2["derived"]["rank"] == 6
    assert at2["derived"]["double_rank"] == 8


CURVED_HEAD = (
    "field x y t\n"
    "structure\n  principal dx = 1, 0, 0\n  principal dy = 0, 1, 0\n"
    "  parameter dt = 0, 0, 1\n  constants t\nend\n"
    "module C rank 1\n  matrix dx\n    -y\n  end\n  matrix dy\n    0\n  end\nend\n"
)


def test_prolong_of_curved_module_is_semantic_error(tmp_path):
    f = tmp_path / "curved.session"
    f.write_text(CURVED_HEAD + "command prolong P = C\n")
    assert main(["run", str(f), "--quiet", "--out", str(tmp_path / "c.jsonl")]) == 3


def test_at2_of_curved_module_is_semantic_error(tmp_path, capsys):
    f = tmp_path / "curved.session"
    f.write_text(CURVED_HEAD + "command at2 C\n")
    assert main(["run", str(f), "--quiet", "--out", str(tmp_path / "c.jsonl")]) == 3
    assert capsys.readouterr().err.strip() == "semantic error: NotFlat: module is not integrable"


@pytest.mark.parametrize("flag", ["--degree-bound", "--depth", "--rank-cap"])
def test_negative_flag_is_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(FIXTURES / "calculus.session"), "--quiet", flag, "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"paramjet run: error: argument {flag}: must be nonnegative, got -1\n"
    )


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["run"], "paramjet run: error: the following arguments are required: file"),
        (["run", "f.session", "--seed", "1"], "paramjet: error: unrecognized arguments: --seed"),
        ([], "paramjet: error: the following arguments are required: verb"),
        (["check"], "paramjet: error: argument verb: invalid choice: 'check'"),
        (["run", "no-such.session"], "error: [Errno 2] No such file or directory"),
    ],
    ids=["missing-file-argument", "unknown-flag", "missing-verb", "unknown-verb", "no-such-file"],
)
def test_usage_error_is_one_line(argv, prefix, capsys):
    """A bad, missing or unknown flag or argument, or a session file that
    cannot be read, exits 2 with one line, without argparse's usage
    block."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "name, digest",
    [
        ("calculus", "429988deda1c19155f9b82485c2a08f5730d9cfe346bee5314f8c443d3c94dce"),
        ("ring_morphism_ok", "00d816d5fcd716e752307a0f4c4fea29b61ff10d67d1439fd4fab5d5ea609365"),
        ("ring_morphism_fail", "1d65ffb365ca5cdd33e2009133f30184df8050ef8971ae41bec2318bedd3570f"),
        ("xt_prolong", "c90f8e29216f54f5ae534e633eff8bbbb585fed16658b6051bc0d6e7312f9927"),
        ("rational_gauge_at2", "654f1864e9b542eea3c1069b589228057ff1b70c60e5896afb75d97910e9d5f4"),
        ("hypergeom_2f1", "77f6ce727d0c504b738b95e5768813c05d93e6dbb4d3446a3b3411ea1305077b"),
    ],
)
def test_fixture_certificate_digests(tmp_path, name, digest):
    """The certificates of the good fixtures at degree bound 1 are pinned
    byte for byte; a change that alters them must say why and re-pin."""
    _, payload = run_cli(tmp_path, name + ".session", "--degree-bound", "1")
    assert hashlib.sha256(payload).hexdigest() == digest


def test_horizontal_certificate_digest_at_degree_bound_9(tmp_path):
    """The larger horizontal search of hypergeom_2f1 (nine vectors F·t^k
    over a 1,400 x 812 system) is pinned byte for byte as well."""
    _, payload = run_cli(tmp_path, "hypergeom_2f1.session", "--degree-bound", "9")
    digest = "994ffc618420bb0543a3ef4f7ddf4d08f51bdd11b02b9038ffc14e7e94343dee"
    assert hashlib.sha256(payload).hexdigest() == digest


XT_HEAD = (
    "field x t\n"
    "structure\n  principal dx = 1, 0\n  parameter dt = 0, 1\n  constants t\nend\n"
    "module M rank 1\n  matrix dx\n    t/x\n  end\nend\n"
)


def run_text(tmp_path, text, *extra):
    f = tmp_path / "s.session"
    f.write_text(text)
    return main(["run", str(f), "--quiet", "--out", str(tmp_path / "s.jsonl"), *extra])


@pytest.mark.parametrize("power, code", [(255, 0), (256, 3)])
def test_degree_past_the_exponent_field_is_a_semantic_error(tmp_path, capsys, monkeypatch, power, code):
    """With the packed exponent fields narrowed to 9 bits, t^256·t^255 is
    at the limit and passes; t^256·t^256 is past it and ends in exit 3
    with one line on stderr and no certificates."""
    import paramjet.field as field

    monkeypatch.setattr(field, "EXPONENT_BITS", 9)
    assert run_text(tmp_path, XT_HEAD + f"command constants-check t^256*t^{power}\n") == code
    err = capsys.readouterr().err.strip().splitlines()
    if code:
        assert err == [
            "semantic error: ParamjetError: polynomial of total degree 512, past the 9-bit exponent field"
        ]
        assert not (tmp_path / "s.jsonl").exists()
    else:
        assert err == [] and (tmp_path / "s.jsonl").exists()


def test_horizontal_unknowns_cap_is_semantic_error(tmp_path, capsys):
    # deg D = 1 for D = x, so the ansatz at bound 1000 has C(2002, 2) monomials
    code = run_text(tmp_path, XT_HEAD + "command horizontal M\n", "--degree-bound", "1000")
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [
        "semantic error: horizontal search at degree bound 1000 has 2003001 unknowns, "
        f"more than {MAX_UNKNOWNS}"
    ]
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize(
    "text, line",
    [
        ("field x t\nstructure\n  principal dx = 1\n  constants t\nend\n", 2),
        ("field x t\nstructure\n  constants t\nend\n", 2),
        (
            XT_HEAD + "structure aux\n  field y\n  principal dy = 1\n  constants\nend\n"
            "ringmorphism phi : aux -> main\n  image\n  omega\n    1\n  end\nend\n",
            18,
        ),
        (XT_HEAD + "morphism f -> M : M\n  matrix\n    1\n  end\nend\n", 12),
    ],
    ids=["coefficient-count", "no-derivations", "bare-image", "arrow-before-colon"],
)
def test_malformed_block_is_parse_error(text, line):
    with pytest.raises(ParseError) as exc:
        parse_session(text)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "command", ["tensor M", "dual M M", "tensor X = M", "check-structure M", "prolong P ="]
)
def test_command_arity_is_parse_error(tmp_path, command):
    assert run_text(tmp_path, XT_HEAD + f"command {command}\n") == 2


@pytest.mark.parametrize("command", ["jet-eval t/x x", "constants-check t"])
def test_expression_command_without_main_structure(tmp_path, command):
    assert run_text(tmp_path, f"field x t\ncommand {command}\n") == 3


def test_morphism_over_command_bound_name_is_undefined(tmp_path):
    text = XT_HEAD + "command dual D = M\nmorphism f : D -> M\n  matrix\n    1\n  end\nend\n"
    assert run_text(tmp_path, text) == 3


def test_derived_module_is_built_once(monkeypatch):
    import paramjet.cli as cli

    calls = []
    build = cli.prolong_module

    def counted(module):
        calls.append(module)
        return build(module)

    monkeypatch.setattr(cli, "prolong_module", counted)
    session = parse_session(XT_HEAD + "command prolong P = M\ncommand check-integrability P\n")
    assert calls == []
    records, code = run_session(session, None)
    assert len(calls) == 1 and code == 0
    assert records[1]["verdict"] == "flat"


def test_tensor_across_structures_that_declare_an_equal_field():
    """A structure that declares the session's field shares its FieldSpec,
    and the tensor of 1/(x^2 - t^2) over main with 1/(x - t) over S is
    their canonical sum."""
    session = parse_session(
        "field x t\n"
        "structure\n  principal dx = 1, 0\n  parameter dt = 0, 1\n  constants t\nend\n"
        "structure S\n  field x t\n  principal dx = 1, 0\n  parameter dt = 0, 1\n"
        "  constants t\nend\n"
        "module M rank 1\n  matrix dx\n    1/(x^2-t^2)\n  end\nend\n"
        "module N over S rank 1\n  matrix dx\n    1/(x-t)\n  end\nend\n"
        "command tensor T = M N\n"
    )
    assert session.structures["S"].base is session.field
    records, code = run_session(session, None)
    assert code == 0
    assert records[0]["derived"]["matrices"] == {"dx": [["(x+t+1)/(x^2-1*t^2)"]]}


def test_a_field_line_after_a_structure_of_its_variables_shares_its_object():
    """The session's field line, declared after a structure S of the same
    variables, takes S's FieldSpec, so main and S still meet in a tensor."""
    session = parse_session(
        "structure S\n  field x t\n  principal dx = 1, 0\n  parameter dt = 0, 1\n"
        "  constants t\nend\n"
        "field x t\n"
        "structure\n  principal dx = 1, 0\n  parameter dt = 0, 1\n  constants t\nend\n"
        "module M rank 1\n  matrix dx\n    1/(x^2-t^2)\n  end\nend\n"
        "module N over S rank 1\n  matrix dx\n    1/(x-t)\n  end\nend\n"
        "command tensor T = M N\n"
    )
    assert session.field is session.structures["S"].base
    records, code = run_session(session, None)
    assert code == 0
    assert records[0]["derived"]["matrices"] == {"dx": [["(x+t+1)/(x^2-1*t^2)"]]}


def test_tensor_across_a_reordered_field_is_semantic_error(tmp_path, capsys):
    """A structure that declares field t x beside the main field x t has
    a FieldSpec of its own, and a module over it does not meet one over
    main."""
    text = (
        "field x t\n"
        "structure\n  principal dx = 1, 0\n  parameter dt = 0, 1\n  constants t\nend\n"
        "structure S\n  field t x\n  principal dx = 0, 1\n  parameter dt = 1, 0\n"
        "  constants t\nend\n"
        "module M rank 1\n  matrix dx\n    1/(x-t)\n  end\nend\n"
        "module N over S rank 1\n  matrix dx\n    1/(x-t)\n  end\nend\n"
        "command tensor T = M N\n"
    )
    session = parse_session(text)
    assert session.structures["S"].base is not session.field
    assert session.structures["S"].base.variables == ("t", "x")
    assert run_text(tmp_path, text) == 3
    assert capsys.readouterr().err == (
        "semantic error: StructureMismatch: modules over different parameterized structures\n"
    )


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_closed_stdout_exits_2_without_traceback(tmp_path, out):
    """With --out, stdout carries the human report: a closed stdout ends the
    run the same way as when it carries the certificates."""
    flags = ["--out", str(tmp_path / "c.jsonl")] if out else []
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "paramjet", "run", str(FIXTURES / "xt_prolong.session"), *flags],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    err = proc.stderr.decode().strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: output closed"), err


@pytest.mark.parametrize(
    "name, out, code",
    [
        ("calculus.session", False, 2),
        ("malformed.session", False, 2),
        ("missing.session", False, 2),
        ("calculus.session", True, 0),
    ],
    ids=["report", "parse_error", "missing_file", "out"],
)
def test_closed_stderr_keeps_the_exit_code(tmp_path, name, out, code):
    """A standard error closed before the report or the error line is
    written ends the run with exit 2, and the certificates already written
    to stdout stay there; with --out the report goes to stdout.  The run
    has the interpreter's default buffering, whose flush at exit would
    raise on what a failed write left buffered."""
    flags = ["--out", str(tmp_path / "c.jsonl")] if out else []
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with open(tmp_path / "stdout", "wb") as stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "paramjet", "run", str(FIXTURES / name), *flags],
                stdout=stdout,
                stderr=write_end,
                env=env,
            )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    if name == "calculus.session" and not out:
        lines = (tmp_path / "stdout").read_bytes().splitlines()
        assert json.loads(lines[0])["command_count"] == len(lines) - 1


def test_verbs_match_readme_session_example():
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Session files", 1)[1].split("```")[1]
    assert set(re.findall(r"^command ([\w-]+)", example, re.M)) == set(VERBS)


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.jsonl"
    code = main(["run", str(FIXTURES / "calculus.session"), "--quiet", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


LONG_INT = "1" * 5000  # over the 4300 digits int() converts


def ring_morphism_text(image_z: str, e_d1: str = "0") -> str:
    text = (FIXTURES / "ring_morphism_ok.session").read_text()
    text = text.replace("image z = 0", f"image z = {image_z}")
    return text.replace("matrix d1\n    0", f"matrix d1\n    {e_d1}")


RING_HEAD = (FIXTURES / "ring_morphism_ok.session").read_text().split("module E")[0]
ZERO_XY = "module F rank 1\n  matrix dx\n    0\n  end\n  matrix dy\n    0\n  end\nend\n"


@pytest.mark.parametrize(
    "text, code, line",
    [
        (XT_HEAD + "module N rank 1\n  matrix dx\n    0\n  end\nend\n"
         "morphism T : M -> N\n  matrix\n    1\n  end\nend\ncommand check-morphism T\n",
         4, "[0] check-morphism T: fail"),
        (RING_HEAD + ZERO_XY + "command extend-scalars FP = phi F\n", 3,
         "semantic error: MorphismInvalid: morphism source is not the module's principal structure"),
        (XT_HEAD + "command check-integrability X = M\n", 2,
         "parse error: command 'check-integrability' does not produce a named result (line 12)"),
        (XT_HEAD.replace("parameter dt", "parameter dx"), 2,
         "parse error: derivation names must be distinct (line 2)"),
        (XT_HEAD.replace("parameter dt = 0, 1", "parameter dx = 1, 0"), 2,
         "parse error: derivation names must be distinct (line 2)"),
        (XT_HEAD.replace("module M rank 1", "module M over aux rank 1"), 3,
         "semantic error: undefined structure 'aux'"),
        (XT_HEAD.replace("rank 1", "rank two"), 2, "parse error: rank must be an integer (line 7)"),
        (RING_HEAD.replace("1, 0, y\n    0, 1, x", "1, 0\n    0, 1"), 3,
         "semantic error: omega matrix of 'phi' must be 2x3"),
        (RING_HEAD.replace("  image z = 0\n", ""), 3,
         "semantic error: ring morphism 'phi' missing images for ['z']"),
        (RING_HEAD.replace("phi : ring3 -> main", "phi : ring4 -> main"), 3,
         "semantic error: ring morphism 'phi' references undefined structure"),
        (XT_HEAD + "morphism T : M -> M\nend\n", 2, "parse error: expected 'matrix' block (line 12)"),
        (XT_HEAD.replace("t/x", "1,,2"), 2, "parse error: bad matrix row (line 9)"),
        (XT_HEAD.replace("rank 1", "rank 2").replace("t/x", "1, 2\n    3"), 2,
         "parse error: ragged matrix block (line 8)"),
        (XT_HEAD + "structure aux\n  field z z\n  principal dz = 1\n  constants\nend\n", 2,
         "parse error: variable names must be distinct (line 13)"),
    ],
    ids=["module-morphism-fail", "extend-along-another-source", "named-verdict",
         "duplicate-derivation", "duplicate-and-dependent-derivation", "module-over-undefined",
         "rank-not-integer", "omega-shape", "missing-image", "ring-over-undefined",
         "morphism-without-matrix", "empty-entry", "ragged-matrix", "repeated-field-variable"],
)
def test_refusal_exit_code_and_line(tmp_path, capsys, text, code, line):
    """Each refusal is one stderr line; a failed check is one report line,
    and its certificate carries the witness.  Derivation names are checked
    before the structure is built, so a block that repeats a name is a
    parse error even when its derivations are also dependent."""
    f = tmp_path / "s.session"
    f.write_text(text)
    assert main(["run", str(f)]) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    if code == 4:
        (cert,) = records_of(captured.out.encode())[1:]
        assert cert["witness"] == {"principal_index": 0, "residual": [["(t)/(x)"]]}
    else:
        assert captured.out == ""


@pytest.mark.parametrize(
    "text",
    [
        XT_HEAD + f"command constants-check {LONG_INT}\n",
        XT_HEAD + f"command constants-check x^{LONG_INT}\n",
        XT_HEAD + f"command jet-eval {LONG_INT} x\n",
        ring_morphism_text(LONG_INT),
    ],
    ids=["constants-check", "exponent", "jet-eval", "image"],
)
def test_overlong_integer_is_parse_error(tmp_path, text):
    assert run_text(tmp_path, text) == 2


@pytest.mark.parametrize(
    "text",
    [
        XT_HEAD + "command constants-check 1/0\n",
        XT_HEAD + "command jet-eval x/(t-t) x\n",
        XT_HEAD.replace("t/x", "t/0"),
        ring_morphism_text("1/0"),
    ],
    ids=["constants-check", "jet-eval", "matrix-row", "image"],
)
def test_literal_division_by_zero_is_parse_error(tmp_path, text):
    assert run_text(tmp_path, text) == 2


def _line_of(text: str, prefix: str) -> int:
    return next(n for n, line in enumerate(text.splitlines(), 1) if line.strip().startswith(prefix))


@pytest.mark.parametrize(
    "text, prefix",
    [
        (XT_HEAD + "command constants-check 1/0\n", "command"),
        (XT_HEAD + "command check-structure\ncommand jet-eval x x/(t-t)\n", "command jet-eval"),
        (ring_morphism_text("1/0"), "image z"),
    ],
    ids=["constants-check", "jet-eval", "image"],
)
def test_expression_parse_error_gives_its_line(tmp_path, capsys, text, prefix):
    assert run_text(tmp_path, text) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"parse error: bad expression: division by zero (at 1) (line {_line_of(text, prefix)})"]


def test_substitution_pole_stays_semantic_error(tmp_path):
    # E has the entry 1/z and phi sends z to 0: the pole appears at run time
    assert run_text(tmp_path, ring_morphism_text("0", e_d1="1/z")) == 3


def test_non_utf8_session_exits_2_with_one_line(tmp_path, capsys):
    f = tmp_path / "latin.session"
    f.write_bytes(b"\xff\xfe field x\n")
    assert main(["run", str(f), "--quiet"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "UTF-8" in err[0], err


DEEP = "(" * 400 + "x" + ")" * 400


@pytest.mark.parametrize(
    "text, prefix",
    [
        (XT_HEAD.replace("t/x", DEEP), DEEP),
        (XT_HEAD + f"command constants-check {DEEP}\n", "command"),
    ],
    ids=["matrix-row", "constants-check"],
)
def test_deep_nesting_is_parse_error(tmp_path, capsys, text, prefix):
    assert run_text(tmp_path, text) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "expression nested too deeply" in err[0], err
    assert err[0].endswith(f"(line {_line_of(text, prefix)})"), err


HUGE_POWER = f"(x+t)^{MAX_EXPONENT + 1}"
# the cap bounds the exponent times the degree and times the bit length of
# the base, so nesting does not get round it
NESTED_POWERS = ["((x+t)^256)^256", f"(x+{'9' * 4000})^256", "(((2^256)^256)^256)^256"]
# and the term count of the power, which grows as n^v/v! for v variables
MANY_TERMS = "(x+t+1)^256"


@pytest.mark.parametrize(
    "text, prefix",
    [
        (XT_HEAD.replace("t/x", HUGE_POWER), HUGE_POWER),
        (XT_HEAD + f"command constants-check {HUGE_POWER}\n", "command"),
        *((XT_HEAD + f"command constants-check {p}\n", "command")
          for p in (*NESTED_POWERS, MANY_TERMS)),
    ],
    ids=["matrix-row", "constants-check", "degree", "coefficient", "constant-tower", "terms"],
)
def test_large_exponent_is_parse_error(tmp_path, capsys, text, prefix):
    start = time.perf_counter()
    assert run_text(tmp_path, text) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "exponent too large" in err[0], err
    assert err[0].endswith(f"(line {_line_of(text, prefix)})"), err


def test_coefficient_past_the_digit_limit_is_semantic_error(tmp_path, capsys):
    """9^3000 · 9^3000 has about 6000 digits, past CPython's int-to-str limit:
    the run stops before any certificate is written."""
    big = "9" * 3000
    text = XT_HEAD.replace("t/x", f"{big}*{big}*x") + "command dual D = M\n"
    assert run_text(tmp_path, text) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("semantic error: "), err
    assert err[0].endswith("coefficient over 4300 digits, the int-to-str limit"), err
    assert not (tmp_path / "s.jsonl").exists()


PRINCIPAL_LESS = "structure flat\n  field t\n  parameter dt = 1\n  constants t\nend\n"


@pytest.mark.parametrize(
    "arrow, omega", [("flat -> main", "1"), ("main -> flat", "1, 0")], ids=["source", "target"]
)
def test_ring_morphism_needs_principal_derivations(tmp_path, capsys, arrow, omega):
    text = (
        XT_HEAD.split("module")[0] + PRINCIPAL_LESS
        + f"ringmorphism phi : {arrow}\n  image t = t\n  image x = t\n"
        + f"  omega\n    {omega}\n  end\nend\ncommand check-morphism phi\n"
    )
    assert run_text(tmp_path, text) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [
        "semantic error: ring morphism 'phi': structure 'flat' has no principal derivations"
    ]


@pytest.mark.parametrize(
    "text, message, line",
    [
        (
            XT_HEAD.replace("  end\nend\n", "  end\n  matrix dx\n    x\n  end\nend\n"),
            "second matrix block for 'dx'",
            11,
        ),
        (XT_HEAD.replace("rank 1", "rank -1"), "rank must be nonnegative", 7),
    ],
    ids=["second-matrix-block", "negative-rank"],
)
def test_module_block_checks_are_parse_errors(tmp_path, capsys, text, message, line):
    assert run_text(tmp_path, text) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"parse error: {message} (line {line})"]


O, I = "(0)/(1)", "(1)/(1)"


@pytest.mark.parametrize(
    "text, fields",
    [
        (
            "field x y\nstructure\n  principal dx = 1, 0\n  principal dy = 0, 1\nend\n"
            "module M rank 2\n  matrix dx\n    0, 1\n    0, 0\n  end\n"
            "  matrix dy\n    0, 0\n    0, 0\n  end\nend\n",
            {"parent_rank": 2, "q": 0, "incl": [[], []], "proj": [[I, O], [O, I]]},
        ),
        (
            XT_HEAD.replace("rank 1", "rank 2").replace("    t/x\n", "    t/x, 0\n    1, 0\n"),
            {
                "parent_rank": 2,
                "q": 1,
                "incl": [[O, O], [O, O], [I, O], [O, I]],
                "proj": [[I, O, O, O], [O, I, O, O]],
            },
        ),
        (
            "field x t s\nstructure\n  principal dx = 1, 0, 0\n  parameter dt = 0, 1, 0\n"
            "  parameter ds = 0, 0, 1\n  constants t s\nend\n"
            "module M rank 1\n  matrix dx\n    t*s/x\n  end\nend\n",
            {"parent_rank": 1, "q": 2, "incl": [[O, O], [I, O], [O, I]], "proj": [[I, O, O]]},
        ),
    ],
    ids=["q0", "q1", "q2"],
)
def test_prolong_certificate_fields_pinned(text, fields):
    """parent_rank, q, incl and proj of a prolong certificate, as recorded
    when prolong_module still wrapped incl and proj in module morphisms."""
    records, code = run_session(parse_session(text + "command prolong P = M\n"), None)
    assert code == 0
    assert {k: records[0]["derived"][k] for k in fields} == fields


def test_baer_check_builds_no_prolonged_module(monkeypatch):
    import paramjet.cli as cli
    import paramjet.prolong as prolong

    calls = []
    for owner in (cli, prolong):
        monkeypatch.setattr(owner, "prolong_module", lambda m: calls.append(m))
    session = parse_session(XT_HEAD + "command baer-check M M\n")
    records, code = run_session(session, None)
    assert calls == [] and code == 0
    assert records[0]["verdict"] == "ok"


@pytest.mark.parametrize(
    "text, block, line",
    [
        ("field x t\nstructure\n  principal dx = 1, 0\n  constants t\n", "structure", 2),
        (XT_HEAD[: -len("end\n")], "module", 7),
        (XT_HEAD[: -len("  end\nend\n")], "matrix", 8),
        (XT_HEAD + "ringmorphism phi : main -> main\n  image x = x\n  image t = t\n", "ringmorphism", 12),
    ],
    ids=["structure", "module", "matrix", "ringmorphism"],
)
def test_unterminated_block_is_parse_error(tmp_path, capsys, text, block, line):
    assert run_text(tmp_path, text) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"parse error: unterminated {block} block (line {line})"]


def test_human_report(tmp_path, capsys):
    f = tmp_path / "s.session"
    f.write_text(XT_HEAD + "command check-integrability M\ncommand prolong P = M\n")
    report = ["[0] check-integrability M: flat", "[1] prolong P = M: ok"]
    assert main(["run", str(f)]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == report
    assert [r["record"] for r in records_of(out.encode())] == ["header", "certificate", "certificate"]
    assert main(["run", str(f), "--out", str(tmp_path / "s.jsonl")]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == report and err == ""


POLYNOMIAL_GAUGE = (
    "field x1 x2 t\n"
    "structure\n  principal d1 = 1, 0, 0\n  principal d2 = 0, 1, 0\n"
    "  parameter dt = 0, 0, 1\n  constants t\nend\n"
    # A_i = -U^-1 d_i(U) for U = [[1, x1*x2+t], [0, 1]]
    "module G rank 2\n  matrix d1\n    0, -x2\n    0, 0\n  end\n"
    "  matrix d2\n    0, -x1\n    0, 0\n  end\nend\n"
    "command check-integrability G\ncommand tensor GG = G G\ncommand dual GD = G\n"
    "command prolong PG = G\ncommand at2 SG = G\ncommand check-integrability SG\n"
    "command baer-check G G\ncommand closure G\n"
)


@pytest.mark.parametrize(
    "text, bases",
    [
        ((FIXTURES / "xt_prolong.session").read_text(encoding="utf-8"), [["x"]]),
        (POLYNOMIAL_GAUGE, [[]]),
    ],
    ids=["xt_prolong", "polynomial_gauge"],
)
def test_session_bases_hold_only_their_denominator_factors(tmp_path, monkeypatch, text, bases):
    """The coprime base of a field takes the factors of its denominators
    and nothing else: the polynomial gauge session never touches it, and
    the x^t fixture puts x in it once and never splits it."""
    import paramjet.cli as cli

    specs = []
    make = cli.FieldSpec

    def recorded(names):
        spec = make(names)
        specs.append(spec)
        return spec

    monkeypatch.setattr(cli, "FieldSpec", recorded)
    assert run_text(tmp_path, text, "--degree-bound", "1", "--depth", "1") == 0
    assert [[p.render() for p in spec._base] for spec in specs] == bases
    assert all(not spec._splits for spec in specs)


def test_jet_eval_takes_no_gcd_with_a_power_of_the_denominator(tmp_path, monkeypatch):
    """The denominator (x - t)^7 is factored over the base from x - t, and
    every later gcd or division is taken against that base element alone:
    no gcd operand and no exact divisor is a power of x - t.  The element
    is linear, so it is cancelled by trial division, with no gcd at all."""
    import paramjet.field as field

    spec = field.FieldSpec(["x", "t"])
    powers = {field.parse_ratfun(spec, f"(x-t)^{k}").num.render() for k in range(2, 40)}
    operands = []
    gcd, divexact = field.poly_gcd, field.poly_divexact

    def watched_gcd(f, g):
        operands.extend((f, g))
        return gcd(f, g)

    def watched_divexact(f, g):
        operands.append(g)
        return divexact(f, g)

    monkeypatch.setattr(field, "poly_gcd", watched_gcd)
    monkeypatch.setattr(field, "poly_divexact", watched_divexact)
    text = XT_HEAD + "command jet-eval (x+t)^10/(x-t)^7 1/2*x\n"
    assert run_text(tmp_path, text) == 0
    assert operands
    monic = [p.scale(1 / p.leading()[1]) for p in operands if not p.is_zero()]
    assert not any(p.render() in powers for p in monic)
