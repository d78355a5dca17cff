"""Source hygiene: no engine module imports a name it never uses, a
``_``-prefixed name of another engine module or the ``dataclasses``
module, no good fixture is left out of the pinned certificate digests,
every function the benchmark's span tracer wraps still exists, no code
but ``RatFun._over`` calls ``__new__``, every record has the form README
"Conventions" gives it, and flatness is recorded only where a theorem
gives it."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "paramjet"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in the module
    reads; ``from __future__`` imports bind nothing and are skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_import_detector():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom a import b, c as d\nprint(os, d)\n"
    assert unused_imports(source) == ["b", "system"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names, dunders aside, that a module imports from
    another module of the package, relatively or by the package name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").startswith("paramjet"):
            found += [f"{node.lineno}:{a.name}" for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
    return found


def test_private_import_detector():
    source = ("from .field import RatFun, _fac\nfrom paramjet.conn import _x\n"
              "from os import _exit\nfrom . import __version__\n")
    assert private_imports(source) == ["1:_fac", "2:_x"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    """A module reaches another's private representation only through its
    public functions: the coprime base and its exponent vectors are read
    in ``field`` alone."""
    assert private_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    return modules


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    """Records are NamedTuples or __slots__ classes: importing dataclasses
    (and the inspect module it pulls in) and building each class would add
    to the start-up of every paramjet process."""
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_every_good_fixture_is_pinned():
    """Every fixture but the malformed one has its certificate digest pinned
    in test_fixture_certificate_digests, so a new fixture cannot slip out
    of the byte-identity check."""
    from test_cli import FIXTURES, test_fixture_certificate_digests

    (mark,) = [m for m in test_fixture_certificate_digests.pytestmark if m.name == "parametrize"]
    pinned = {name for name, _ in mark.args[1]}
    assert pinned == {p.stem for p in FIXTURES.glob("*.session")} - {"malformed"}


def _bench_spans():
    """``bench/spans.py``, loaded by path: ``bench`` is not a package."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _bench_spans()
# linalg.kron was renamed kron_sum; the span list is fixed with the benchmark
_STALE = {("linalg", "kron")}


@pytest.mark.parametrize(
    "module, attribute",
    [
        pytest.param(m, a, marks=pytest.mark.xfail(strict=True)) if (m, a) in _STALE else (m, a)
        for m, a, _ in _SPANS.SPANS + _SPANS.COUNTS
    ],
    ids=lambda x: x,
)
def test_span_target_exists(module, attribute):
    """A renamed function leaves its span unbound, and the tracer then
    reports that layer's metric as missing rather than failing."""
    owner = importlib.import_module(f"paramjet.{module}")
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert name in vars(owner)


def _new_calls(source: str) -> list[str]:
    """The qualified names of the functions that call some ``__new__``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
            else:
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "__new__"):
                    found.append(".".join(scope))
                visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_ratfun_new_is_called_only_in_over():
    """Every RatFun value is made by ``_over``, and ``__init__`` copies the
    slots of a value that ``_over`` made, leaving its memos empty, so no
    other route can copy a memo from an operand."""
    calls = {path.name: _new_calls(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == {"field.py": ["RatFun._over"]}


def _record_forms() -> dict[str, set[str]]:
    """The classes of the engine that are not exceptions, by form: a
    ``NamedTuple``, a ``__slots__`` class, or a plain class."""
    forms: dict[str, set[str]] = {"namedtuple": set(), "slots": set(), "plain": set()}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue  # importing it runs the CLI
        module = importlib.import_module(f"paramjet.{path.stem}")
        for obj in vars(module).values():
            if not isinstance(obj, type) or obj.__module__ != module.__name__:
                continue
            if issubclass(obj, BaseException):
                continue
            if issubclass(obj, tuple) and hasattr(obj, "_fields"):
                form = "namedtuple"
            elif "__slots__" in vars(obj):
                form = "slots"
            else:
                form = "plain"
            forms[form].add(f"{path.stem}.{obj.__qualname__}")
    return forms


def test_records_have_one_form():
    """Records that validate their input or cache are ``__slots__`` classes,
    the parser state is plain, and every other record is a ``NamedTuple``."""
    forms = _record_forms()
    assert forms["slots"] == {
        "field.FieldSpec", "field.MultiPoly", "field.RatFun",
        "diffstruct.Derivation", "conn.DiffModule", "conn.ModMorphism",
    }
    assert forms["plain"] == {"cli.Session", "cli._Parser"}


def _flat_assignments(source: str) -> set[tuple[str, str]]:
    """(qualified function name, value) of every ``<x>.flat = <value>``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    if isinstance(target, ast.Attribute) and target.attr == "flat":
                        found.add((".".join(scope), ast.unparse(child.value)))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_flatness_is_recorded_only_where_a_theorem_gives_it():
    """Only the curvature test and the constructors whose docstrings state
    why their result is flat record flatness: a new constructor that
    claims it must come with its theorem and be added here."""
    found = {
        (path.stem, *assignment)
        for path in sorted(SRC.glob("*.py"))
        for assignment in _flat_assignments(path.read_text(encoding="utf-8"))
    }
    assert found == {
        ("conn", "DiffModule.__init__", "None"),
        ("conn", "trivial_module", "True"),
        ("conn", "check_integrability", "False"),
        ("conn", "check_integrability", "True"),
        ("conn", "inherit_flat", "True"),
        ("prolong", "_prolonged_core", "True"),
        ("prolong", "at2_module", "True"),
    }
