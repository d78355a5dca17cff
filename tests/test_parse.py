"""The parser of field values: a pinned table of values and errors, a
property test against the RatFun operations, and a count of the work a
polynomial entry takes."""

import hashlib
import random
import re
import sys
import time

import pytest

from paramjet import field
from paramjet.errors import DivisionByZero, ParamjetError, ParseError
from paramjet.field import MAX_NESTING, FieldSpec, RatFun, parse_ratfun

SPEC = FieldSpec(["x", "t"])
GREEK = FieldSpec(["α", "x_1"])

DEGREE_4096 = "polynomial of total degree 4096, past the 12-bit exponent field"

# (field, text, outcome): the rendered value, its sha256 when long, or the
# error's class, message and position.  The rows pin what the earlier parser,
# one RatFun per atom and per operator, gave; every row holds for it too.
TABLE = [
    (SPEC, "2x", ("ParseError", "trailing input 'x'", 1)),
    (SPEC, "x^-1", ("ParseError", "exponent must be an integer", 2)),
    (SPEC, "1/0", ("ParseError", "division by zero", 1)),
    (SPEC, "(1/0)^0", ("ParseError", "division by zero", 2)),
    (SPEC, "0^0", "(1)/(1)"),
    (SPEC, "x/0^0", "(x)/(1)"),
    (SPEC, "0/0", ("ParseError", "division by zero", 1)),
    (SPEC, "x/0^2", ("ParseError", "division by zero", 1)),
    (SPEC, "1/(x-x)", ("ParseError", "division by zero", 1)),
    (SPEC, "x/-0", ("ParseError", "division by zero", 1)),
    (SPEC, "x^", ("ParseError", "unexpected end of expression", 2)),
    (SPEC, "x^t", ("ParseError", "exponent must be an integer", 2)),
    (SPEC, "x^(2)", ("ParseError", "exponent must be an integer", 2)),
    (SPEC, "x^ 2", "(x^2)/(1)"),
    (SPEC, "x^007", "(x^7)/(1)"),
    (SPEC, "x^0", "(1)/(1)"),
    (SPEC, "0^0^0", ("ParseError", "trailing input '^'", 3)),
    (SPEC, "x^2^3", ("ParseError", "trailing input '^'", 3)),
    (SPEC, "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
     ("ParseError", "expression nested too deeply", 100)),
    (SPEC, "(" * MAX_NESTING + "x" + ")" * MAX_NESTING, "(x)/(1)"),
    # int() reads at most 4300 digits
    (SPEC, "1" * 4301, ("ParseError", "integer literal too long or not base 10", 0)),
    (SPEC, "x^" + "1" * 4301, ("ParseError", "integer literal too long or not base 10", 2)),
    (SPEC, "1" * 4300, "sha256:120fde23ad8000b73a689293d07932c9541c9fa1d00c112244603d59306ba390"),
    (SPEC, "x^257", ("ParseError", "exponent too large", 2)),
    (SPEC, "x^256", "(x^256)/(1)"),
    (SPEC, "(x*t)^129", ("ParseError", "exponent too large", 6)),
    # C(77, 2) = 2926 terms, the largest power of x+t+1 under MAX_POWER_TERMS
    (SPEC, "(x+t+1)^75", "sha256:d55d5fae689f290e4b5c7d7bcb8d31d82cc813fa4b8d7d01af955097c5731f2b"),
    (SPEC, "(x+t+1)^76", ("ParseError", "exponent too large", 8)),
    (SPEC, "1/(x+t+1)^76", ("ParseError", "exponent too large", 10)),
    (SPEC, f"(x+{2 ** 60})^235", ("ParseError", "exponent too large", 24)),
    (SPEC, f"{2 ** 60}^234", "sha256:d4780e20f9842999d825ace93c7171da70145f13b2fbc6a7b9b95ea5c19f2ad0"),
    # products past the 12-bit degree field of a packed key (exit 3 in the CLI)
    (SPEC, "*".join(["x^256"] * 16), ("ParamjetError", DEGREE_4096, None)),
    (SPEC, "*".join(["x^256"] * 15), "(x^3840)/(1)"),
    (SPEC, "x^256*" * 16 + "0", ("ParamjetError", DEGREE_4096, None)),
    (SPEC, "0*" + "x^256*" * 16 + "x", "(0)/(1)"),
    (SPEC, "(x^256+1)*" * 16 + "x", ("ParamjetError", DEGREE_4096, None)),
    (SPEC, "1/x^256/x^256" + "/x^256" * 14, ("ParamjetError", DEGREE_4096, None)),
    # non-ASCII text, classed by str.isspace, isdigit, isalpha and isalnum
    (SPEC, "٣*x", "(3*x)/(1)"),
    (SPEC, "x٣", ("ParseError", "unknown variable 'x٣'", 0)),
    (SPEC, "2٣", "(23)/(1)"),
    (SPEC, "x²", ("ParseError", "unknown variable 'x²'", 0)),
    (SPEC, "²", ("ParseError", "integer literal too long or not base 10", 0)),
    (SPEC, "2²", ("ParseError", "integer literal too long or not base 10", 0)),
    (SPEC, "é", ("ParseError", "unknown variable 'é'", 0)),
    (SPEC, "½", ("ParseError", "unexpected character '½'", 0)),
    (SPEC, "x½", ("ParseError", "unknown variable 'x½'", 0)),
    (SPEC, "2½", ("ParseError", "unexpected character '½'", 1)),
    (SPEC, "x+½", ("ParseError", "unexpected character '½'", 2)),
    (SPEC, "1/0 ½", ("ParseError", "unexpected character '½'", 4)),
    (SPEC, "ｘ", ("ParseError", "unknown variable 'ｘ'", 0)),
    (SPEC, "x\xa0+\xa0t", "(x+t)/(1)"),
    (SPEC, "　x", "(x)/(1)"),
    (SPEC, "x ", "(x)/(1)"),
    (GREEK, "2α", ("ParseError", "trailing input 'α'", 1)),
    (GREEK, "α*x_1", "(α*x_1)/(1)"),
    (GREEK, "x_1/α^2", "(x_1)/(α^2)"),
    (GREEK, "α²", ("ParseError", "unknown variable 'α²'", 0)),
    (GREEK, "α x_1", ("ParseError", "trailing input 'x_1'", 2)),
    (GREEK, "_x", ("ParseError", "unknown variable '_x'", 0)),
    # the grammar's other errors
    (SPEC, "", ("ParseError", "unexpected end of expression", 0)),
    (SPEC, "   ", ("ParseError", "unexpected end of expression", 3)),
    (SPEC, "t +", ("ParseError", "unexpected end of expression", 3)),
    (SPEC, "-", ("ParseError", "unexpected end of expression", 1)),
    (SPEC, "(x", ("ParseError", "unexpected end of expression", 2)),
    (SPEC, "(x t)", ("ParseError", "expected ')'", 3)),
    (SPEC, ")", ("ParseError", "unexpected token ')'", 0)),
    (SPEC, "x)", ("ParseError", "trailing input ')'", 1)),
    (SPEC, "(x)(t)", ("ParseError", "trailing input '('", 3)),
    (SPEC, "x ; t", ("ParseError", "unexpected character ';'", 2)),
    (SPEC, "q + 1", ("ParseError", "unknown variable 'q'", 0)),
    (SPEC, "x2", ("ParseError", "unknown variable 'x2'", 0)),
    # values
    (SPEC, "--x", "(x)/(1)"),
    (SPEC, "---x^2", "(-1*x^2)/(1)"),
    (SPEC, "-(x-t)^2", "(-1*x^2+2*x*t-1*t^2)/(1)"),
    (SPEC, "1/2*x", "(1/2*x)/(1)"),
    (SPEC, "3/2*x/t", "(3/2*x)/(t)"),
    (SPEC, "x/(x^2-1)", "(x)/(x^2-1)"),
    (SPEC, "1/(x*(1-x))", "(-1)/(x^2-1*x)"),
    (SPEC, "(x^2-1)/(x-1)", "(x+1)/(1)"),
    (SPEC, "-t/x^2", "(-1*t)/(x^2)"),
    (SPEC, "x/(2)", "(1/2*x)/(1)"),
    (SPEC, "x/(1+1)", "(1/2*x)/(1)"),
    (SPEC, "(x+t)/(x-t)^2*(x-t)", "(x+t)/(x-1*t)"),
    (SPEC, "x/x", "(1)/(1)"),
    (SPEC, "x-x", "(0)/(1)"),
    (SPEC, "1/(x+1)+1/(x-1)", "(2*x)/(x^2-1)"),
    (SPEC, "(2/4*x)^3", "(1/8*x^3)/(1)"),
    (SPEC, "(1/3)^2*x", "(1/9*x)/(1)"),
    (SPEC, " ( x + t ) * ( x - t ) ", "(x^2-1*t^2)/(1)"),
    (SPEC, "x*-t", "(-1*x*t)/(1)"),
    (SPEC, "x--t", "(x+t)/(1)"),
    (SPEC, "x+-t", "(x-1*t)/(1)"),
    (SPEC, "x/-(x)", "(-1)/(1)"),
]


def _outcome(spec, text):
    try:
        value = str(parse_ratfun(spec, text))
    except ParseError as err:
        return "ParseError", str(err), err.position
    except ParamjetError as err:
        return type(err).__name__, str(err), None
    return value if len(value) <= 120 else "sha256:" + hashlib.sha256(value.encode()).hexdigest()


@pytest.mark.parametrize("spec, text, expected", TABLE, ids=[f"{k}:{row[1][:24]!r}" for k, row in enumerate(TABLE)])
def test_pinned_values_and_errors(spec, text, expected):
    outcome = _outcome(spec, text)
    if isinstance(expected, tuple) and expected[2] is not None:
        kind, message, position = expected
        expected = kind, f"{message} (at {position})", position
    assert outcome == expected


def test_token_classes_are_the_str_methods():
    """The tokenizer's \\s is str.isspace and its \\w is str.isalnum or
    '_', on every code point."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"\s", every)) == "".join(filter(str.isspace, every))
    assert "".join(re.findall(r"[^\W_]", every)) == "".join(filter(str.isalnum, every))
    assert re.fullmatch(r"\w", "_")


def test_white_space_is_scanned_once():
    """A run of white space at the end is not rescanned from each of its
    positions: 20,000 spaces take well under a millisecond, and a scan
    quadratic in them took seconds."""
    for text in ("x" + " " * 20_000, " " * 20_000, "x" + "\u3000" * 20_000 + "+t"):
        start = time.perf_counter()
        _outcome(SPEC, text)
        assert time.perf_counter() - start < 1.0


# --- random expression trees against the RatFun operations -------------------------

VARS = ("x", "t")


def _tree(rng, depth, polynomial):
    """A random tree of constants, variables, unary minus, +, -, *, /, and
    powers 0 to 3.  A polynomial tree divides by constants only; the other
    trees divide by zero, constants and any subtree."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return "const", rng.choice([0, 1, 2, 3, 7, 10 ** 20])
        return "var", rng.choice(VARS)
    kind = rng.choice(["neg", "add", "sub", "mul", "div", "pow"])
    if kind == "neg":
        return "neg", _tree(rng, depth - 1, polynomial)
    if kind == "pow":
        return "pow", _tree(rng, depth - 1, polynomial), rng.choice([0, 1, 2, 3])
    if kind == "div" and (polynomial or rng.random() < 0.3):
        return "div", _tree(rng, depth - 1, polynomial), ("const", rng.choice([0, 2, 3, 6]))
    return kind, _tree(rng, depth - 1, polynomial), _tree(rng, depth - 1, polynomial)


_OPS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _render(node, rng):
    kind = node[0]
    if kind == "const":
        return str(node[1])
    if kind == "var":
        return node[1]
    if kind == "neg":
        return "-" + _render(node[1], rng)
    if kind == "pow":
        base = _render(node[1], rng)
        return (base if node[1][0] in ("const", "var") else f"({base})") + f"^{node[2]}"
    space = rng.choice(["", " "])
    return f"({_render(node[1], rng)}{space}{_OPS[kind]}{space}{_render(node[2], rng)})"


def _evaluate(node):
    kind = node[0]
    if kind == "const":
        return RatFun.const(SPEC, node[1])
    if kind == "var":
        return RatFun.variable(SPEC, node[1])
    if kind == "neg":
        return -_evaluate(node[1])
    if kind == "pow":
        return _evaluate(node[1]) ** node[2]
    a, b = _evaluate(node[1]), _evaluate(node[2])
    return {"add": a + b, "sub": a - b, "mul": a * b}[kind] if kind != "div" else a / b


def _kinds(node):
    out = {node[0]}
    if node[0] == "pow":
        out.add(f"pow{node[2]}")
    if node[0] == "neg" and node[1][0] == "neg":
        out.add("neg chain")
    if node[0] == "div":
        divisor = node[2]
        out.add("div by zero" if divisor == ("const", 0) else "div by const" if divisor[0] == "const" else "div by tree")
    for child in node[1:]:
        if isinstance(child, tuple):
            out |= _kinds(child)
    return out


def test_random_trees_parse_to_their_ratfun_values():
    """A rendered tree parses to the value the RatFun operations give it,
    and fails with "division by zero" exactly where they divide by zero."""
    rng = random.Random(2026)
    seen = set()
    outcomes = {"value": 0, "division by zero": 0, "polynomial": 0}
    for n in range(400):
        polynomial = n % 2 == 0
        node = _tree(rng, rng.randrange(1, 5), polynomial)
        seen |= _kinds(node)
        text = _render(node, rng)
        try:
            expected = _evaluate(node)
        except DivisionByZero:
            with pytest.raises(ParseError, match=r"^division by zero \(at \d+\)$"):
                parse_ratfun(SPEC, text)
            outcomes["division by zero"] += 1
            continue
        assert parse_ratfun(SPEC, text) == expected, text
        outcomes["value"] += 1
        outcomes["polynomial"] += polynomial
    assert {"div by zero", "div by const", "div by tree", "neg chain", "pow0", "pow1"} <= seen
    assert min(outcomes.values()) >= 20, outcomes


# --- the work of a polynomial entry -------------------------------------------------

POLYNOMIAL_ENTRIES = [
    "0",
    "1",
    "(-3)",
    "(6*x1*x2 + -2*x1)",
    "(-8*x1^2*x2^3 + -8*x1*x2^3*t2 + -2*x2^3*t2^2 + 2*x2)",
    "(x1 + t1)^3 - (x1 - t1)^3/2",
    "-(x1 - 2/3*t2)*(x1 + t2)/(1 + 1)",
    "x1^2/6 - x2/(3)^2 + x1*x2 - x2*x1",
]


def test_a_polynomial_entry_builds_one_ratfun_and_takes_no_gcd(monkeypatch):
    """A polynomial entry is put in canonical form once, as one RatFun, and
    neither enters the coprime base nor takes a gcd."""
    spec = FieldSpec(["x1", "x2", "t1", "t2"])
    calls = {"RatFun": 0, "_factor": 0, "poly_gcd": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    over, init = RatFun._over.__func__, RatFun.__init__
    monkeypatch.setattr(RatFun, "_over", classmethod(counted("RatFun", over)))
    monkeypatch.setattr(RatFun, "__init__", counted("RatFun", init))
    monkeypatch.setattr(field, "_factor", counted("_factor", field._factor))
    monkeypatch.setattr(field, "poly_gcd", counted("poly_gcd", field.poly_gcd))
    for text in POLYNOMIAL_ENTRIES:
        calls.update(dict.fromkeys(calls, 0))
        value = parse_ratfun(spec, text)
        assert value.den.is_one()
        assert calls == {"RatFun": 1, "_factor": 0, "poly_gcd": 0}, text
