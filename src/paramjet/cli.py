"""Batch front end: parse a session file, run its commands in order, and
emit a deterministic certificate stream.

Session files are line oriented; ``#`` starts a comment.  A session
declares a main field and structure, optional auxiliary structures (each
with its own field), modules, module morphisms, ring morphisms, and an
ordered list of commands::

    field x t

    structure
      principal dx = 1, 0
      parameter dt = 0, 1
      constants t
    end

    module M rank 1
      matrix dx
        t/x
      end
    end

    command check-integrability M
    command prolong PM = M

Certificates are emitted one JSON object per line with sorted keys, so a
session always produces byte-identical output; matrices are rendered in
the canonical rational-function text form and can be re-ingested.

Every command verb is one entry of ``VERBS``: its argument kinds, whether
it builds a module that ``command X = ...`` can name, and its handler.
Parsing checks each command against the table; running calls each handler
once, in order.

Exit codes: 0 all verdicts ok, 2 parse error (including a command with the
wrong number of arguments and a literal division by zero), an output stream
closed before all output was written or an unwritable --out path, 3
semantic error (running out of memory or recursion depth too), 4 at
least one verdict-bearing command failed.  A regular ``--out`` file is
replaced only once every record is written, so a failed run never
leaves it partial.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import stat
import sys
from typing import Callable, Iterator, NamedTuple

from . import __version__ as VERSION, linalg
from .conn import (
    DiffModule,
    check_integrability,
    constants_check,
    dual,
    extend_scalars,
    hom,
    horizontal_space,
    morphism_check,
    tensor,
)
from .diffstruct import (
    Derivation,
    DiffMorphism,
    ParamStructure,
    build_param_structure,
    check_morphism,
)
from .errors import ParamjetError, ParseError, SemanticError
from .field import FieldSpec, RatFun, parse_ratfun
from .jet import jet2_mul, jet2_r
from .prolong import (
    at2_module,
    baer_sum,
    check_tensor_compat,
    extension_of_prolongation,
    generate_closure,
    prolong_module,
    trivial_extension,
)


class Session:
    def __init__(self):
        self.field: FieldSpec | None = None
        self.structures: dict[str, ParamStructure] = {}
        self.deriv_names: dict[str, list[str]] = {}
        self.modules: dict[str, DiffModule] = {}  # command-bound ones once run
        self.module_structure: dict[str, str] = {}  # declared and command-bound
        self.mod_morphisms: dict[str, tuple] = {}  # name -> (src, dst, matrix)
        self.ring_morphisms: dict[str, tuple] = {}  # name -> (src, dst, DiffMorphism)
        self.commands: list[tuple[int, list[str]]] = []
        self.names: set[str] = set()


Lines = Iterator[tuple[int, str]]


def _content_lines(text: str) -> Lines:
    """(line number, text) of each line that is not blank once its comment
    is cut; the block parsers consume it through _block_lines."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _block_lines(lines: Lines, kind: str, lineno: int) -> Lines:
    """The lines of the block opened on line ``lineno``, up to and consuming
    its 'end'; a block may read nested blocks from ``lines`` in between.
    Running out of lines first is the error "unterminated KIND block"."""
    for item in lines:
        if item[1] == "end":
            return
        yield item
    raise ParseError(f"unterminated {kind} block", line=lineno)


def _split_csv(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValueError("empty entry")
    return parts


def _parse_matrix_block(lines: Lines, spec: FieldSpec, lineno: int) -> list[list[RatFun]]:
    rows = []
    for ln, content in _block_lines(lines, "matrix", lineno):
        try:
            rows.append([parse_ratfun(spec, e) for e in _split_csv(content)])
        except ParseError as err:
            raise ParseError(f"bad matrix row: {err}", line=ln) from None
        except ValueError:
            raise ParseError("bad matrix row", line=ln) from None
    if not rows:
        raise ParseError("empty matrix block", line=lineno)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("ragged matrix block", line=lineno)
    return rows


def _parse_expression(spec: FieldSpec, text: str, lineno: int) -> RatFun:
    try:
        return parse_ratfun(spec, text)
    except ParseError as err:
        raise ParseError(f"bad expression: {err}", line=lineno) from None


def _fresh_name(session: Session, name: str, lineno: int):
    if name in session.names:
        raise ParseError(f"name {name!r} already defined", line=lineno)
    session.names.add(name)


def _field(session: Session, names: list[str], lineno: int) -> FieldSpec:
    """The FieldSpec of a declared variable tuple.  A field is one object,
    and the values of two never mix: a tuple declared before takes its
    object, and with it its coprime base of denominators."""
    try:
        spec = FieldSpec(names)
    except ValueError as err:
        raise ParseError(str(err), line=lineno) from None
    known = [session.field, *(ps.base for ps in session.structures.values())]
    return next((s for s in known if s is not None and s.variables == spec.variables), spec)


def _parse_structure_block(lines: Lines, session: Session, header: list[str], lineno: int):
    name = header[1] if len(header) > 1 else "main"
    _fresh_name(session, name, lineno)
    spec = session.field if name == "main" else None
    principal: list[tuple[str, list[str]]] = []
    parameter: list[tuple[str, list[str]]] = []
    constants: list[str] = []
    for ln, content in _block_lines(lines, "structure", lineno):
        tokens = content.split(None, 1)
        key = tokens[0]
        rest = tokens[1] if len(tokens) > 1 else ""
        if key == "field":
            if spec is not None:
                raise ParseError("field is fixed for this structure", line=ln)
            spec = _field(session, rest.split(), ln)
        elif key in ("principal", "parameter"):
            if "=" not in rest:
                raise ParseError(f"expected '{key} NAME = coeffs'", line=ln)
            dname, coeffs = rest.split("=", 1)
            (principal if key == "principal" else parameter).append(
                (dname.strip(), coeffs.strip().split(","))
            )
        elif key == "constants":
            constants = rest.split()
        else:
            raise ParseError(f"unknown structure item {key!r}", line=ln)
    if spec is None:
        raise ParseError("structure needs a field", line=lineno)
    deriv_names = [n for n, _ in principal] + [n for n, _ in parameter]
    if len(set(deriv_names)) != len(deriv_names):
        raise ParseError("derivation names must be distinct", line=lineno)
    try:
        def mk(coeffs):
            return Derivation(spec, [parse_ratfun(spec, c.strip()) for c in coeffs])

        ps = build_param_structure(
            spec,
            [mk(c) for _, c in principal],
            [mk(c) for _, c in parameter],
            constants,
        )
    except (ParseError, ValueError) as err:  # ValueError: a coefficient count, no derivations
        raise ParseError(f"bad structure {name!r}: {err}", line=lineno) from None
    except ParamjetError as err:
        raise SemanticError(f"invalid structure {name!r}: {err}") from None
    session.structures[name] = ps
    session.deriv_names[name] = deriv_names


def _parse_module_block(lines: Lines, session: Session, header: list[str], lineno: int):
    # module NAME [over STRUCT] rank N
    if len(header) == 4 and header[2] == "rank":
        name, struct, rank_s = header[1], "main", header[3]
    elif len(header) == 6 and header[2] == "over" and header[4] == "rank":
        name, struct, rank_s = header[1], header[3], header[5]
    else:
        raise ParseError("expected 'module NAME [over STRUCT] rank N'", line=lineno)
    _fresh_name(session, name, lineno)
    if struct not in session.structures:
        raise SemanticError(f"undefined structure {struct!r}")
    ps = session.structures[struct]
    try:
        rank = int(rank_s)
    except ValueError:
        raise ParseError("rank must be an integer", line=lineno) from None
    if rank < 0:
        raise ParseError("rank must be nonnegative", line=lineno)
    matrices: dict[str, list] = {}
    for ln, content in _block_lines(lines, "module", lineno):
        tokens = content.split()
        if tokens[0] != "matrix" or len(tokens) != 2:
            raise ParseError("expected 'matrix DERIVATION'", line=ln)
        if tokens[1] in matrices:
            raise ParseError(f"second matrix block for {tokens[1]!r}", line=ln)
        matrices[tokens[1]] = _parse_matrix_block(lines, ps.base, ln)
    names = session.deriv_names[struct][: ps.principal_count]
    conn = []
    for dname in names:
        if dname not in matrices and rank:
            raise SemanticError(f"module {name!r} missing matrix for {dname!r}")
        a = matrices.pop(dname, [])
        if linalg.shape(a) != (rank, rank):
            raise SemanticError(f"matrix for {dname!r} is not {rank}x{rank}")
        conn.append(a)
    if matrices:
        raise SemanticError(f"module {name!r} has matrices for unknown derivations")
    session.modules[name] = DiffModule(ps, rank, tuple(conn))
    session.module_structure[name] = struct


def _parse_arrow(session: Session, header: list[str], lineno: int) -> tuple[str, str, str]:
    """The NAME, SRC and DST of a 'KEYWORD NAME : SRC -> DST' header."""
    name, colon, arrow = " ".join(header[1:]).partition(":")
    if not colon or "->" not in arrow:
        raise ParseError(f"expected '{header[0]} NAME : SRC -> DST'", line=lineno)
    src, dst = arrow.split("->", 1)
    name = name.strip()
    _fresh_name(session, name, lineno)
    return name, src.strip(), dst.strip()


def _parse_morphism_block(lines: Lines, session: Session, header: list[str], lineno: int):
    name, src, dst = _parse_arrow(session, header, lineno)
    if src not in session.modules or dst not in session.modules:
        raise SemanticError(f"morphism {name!r} references undefined module")
    item = next(lines, None)
    if item is None or item[1] != "matrix":
        raise ParseError("expected 'matrix' block", line=lineno)
    matrix = _parse_matrix_block(lines, session.modules[src].spec, item[0])
    tail = next(lines, None)
    if tail is None or tail[1] != "end":
        raise ParseError("expected 'end' after morphism matrix", line=lineno)
    m, n = session.modules[src], session.modules[dst]
    if linalg.shape(matrix) != (n.rank, m.rank):
        raise SemanticError(f"morphism {name!r} matrix must be {n.rank}x{m.rank}")
    session.mod_morphisms[name] = (src, dst, matrix)


def _parse_ring_morphism_block(lines: Lines, session: Session, header: list[str], lineno: int):
    name, src, dst = _parse_arrow(session, header, lineno)
    if src not in session.structures or dst not in session.structures:
        raise SemanticError(f"ring morphism {name!r} references undefined structure")
    source = session.structures[src]
    target = session.structures[dst]
    images: dict[str, RatFun] = {}
    omega = None
    for ln, content in _block_lines(lines, "ringmorphism", lineno):
        tokens = content.split(None, 1)
        if tokens[0] == "image":
            if len(tokens) < 2 or "=" not in tokens[1]:
                raise ParseError("expected 'image VAR = expr'", line=ln)
            var, expr = tokens[1].split("=", 1)
            images[var.strip()] = _parse_expression(target.base, expr.strip(), ln)
        elif tokens[0] == "omega":
            omega = _parse_matrix_block(lines, target.base, ln)
        else:
            raise ParseError(f"unknown ringmorphism item {tokens[0]!r}", line=ln)
    if omega is None:
        raise ParseError("ringmorphism needs an omega block", line=lineno)
    for struct in (src, dst):
        if session.structures[struct].principal_count == 0:
            raise SemanticError(
                f"ring morphism {name!r}: structure {struct!r} has no principal derivations"
            )
    p_src = source.principal_structure
    p_dst = target.principal_structure
    if linalg.shape(omega) != (p_dst.dim, p_src.dim):
        raise SemanticError(
            f"omega matrix of {name!r} must be {p_dst.dim}x{p_src.dim}"
        )
    missing = [v for v in source.base.variables if v not in images]
    if missing:
        raise SemanticError(f"ring morphism {name!r} missing images for {missing}")
    morphism = DiffMorphism(p_src, p_dst, images, omega)
    session.ring_morphisms[name] = (src, dst, morphism)


def parse_session(text: str) -> Session:
    session = Session()
    lines = _content_lines(text)
    for lineno, content in lines:
        tokens = content.split()
        head = tokens[0]
        if head == "field":
            if session.field is not None:
                raise ParseError("duplicate field declaration", line=lineno)
            session.field = _field(session, tokens[1:], lineno)
        elif head == "structure":
            if session.field is None and len(tokens) == 1:
                raise ParseError("main structure needs a prior field line", line=lineno)
            _parse_structure_block(lines, session, tokens, lineno)
        elif head == "module":
            _parse_module_block(lines, session, tokens, lineno)
        elif head == "morphism":
            _parse_morphism_block(lines, session, tokens, lineno)
        elif head == "ringmorphism":
            _parse_ring_morphism_block(lines, session, tokens, lineno)
        elif head == "command":
            _parse_command(session, tokens, lineno)
        else:
            raise ParseError(f"unknown declaration {head!r}", line=lineno)
    return session


# --- commands ----------------------------------------------------------------------

# argument kinds: what each operand of a command names
MODULE, RING, MORPHISM, EXPR = "module", "ring morphism", "morphism", "expression"


class Verb(NamedTuple):
    kinds: tuple[str, ...]
    binds: bool  # builds a module that 'command X = ...' can name
    # (session, flags, *operands) -> (module, extra 'derived' fields) when
    # binds, else the certificate fields with the verdict; a module operand
    # comes as its DiffModule, an expression as its RatFun, any other as text
    handler: Callable


def _split_assignment(args: list[str]) -> tuple[str | None, list[str]]:
    if len(args) >= 2 and args[1] == "=":
        return args[0], args[2:]
    return None, args


def _check_operand(session: Session, kind: str, name: str, lineno: int):
    if kind == MODULE:
        defined = name in session.module_structure
    elif kind == RING:
        defined = name in session.ring_morphisms
    elif kind == MORPHISM:
        defined = name in session.ring_morphisms or name in session.mod_morphisms
    else:  # an expression, parsed over the main field when the command runs
        kind, name = "structure", "main"
        defined = name in session.structures
    if not defined:
        raise SemanticError(f"undefined {kind} {name!r} (line {lineno})")


def _result_structure(session: Session, verb: Verb, operands: list[str]) -> str:
    """A derived module lives over the structure of its first operand, or
    over the target of the ring morphism it is extended along."""
    if verb.kinds[0] == RING:
        return session.ring_morphisms[operands[0]][1]
    return session.module_structure[operands[0]]


def _parse_command(session: Session, tokens: list[str], lineno: int):
    """Check arity and names against VERBS; commands may only refer to names
    defined earlier in the file, and 'X = ...' defines X for later ones."""
    name = tokens[1] if len(tokens) > 1 else ""
    verb = VERBS.get(name)
    if verb is None:
        raise ParseError(f"unknown command {name!r}", line=lineno)
    new, operands = _split_assignment(tokens[2:])
    if new is not None and not verb.binds:
        raise ParseError(f"command {name!r} does not produce a named result", line=lineno)
    if len(operands) != len(verb.kinds):
        raise ParseError(
            f"command {name!r} takes {len(verb.kinds)} argument(s), got {len(operands)}",
            line=lineno,
        )
    for kind, operand in zip(verb.kinds, operands):
        _check_operand(session, kind, operand, lineno)
    if new is not None:
        _fresh_name(session, new, lineno)
        session.module_structure[new] = _result_structure(session, verb, operands)
    session.commands.append((lineno, tokens[1:]))


def _strs(xs) -> list[str]:
    return [x.text or str(x) for x in xs]


def _render_matrix(a) -> list[list[str]]:
    return [_strs(row) for row in a]


def _module_record(session: Session, struct_name: str, module: DiffModule) -> dict:
    names = session.deriv_names[struct_name][: module.ps.principal_count]
    return {
        "structure": struct_name,
        "rank": module.rank,
        "matrices": {n: _render_matrix(a) for n, a in zip(names, module.conn)},
    }


def _check_structure(session: Session, flags) -> dict:
    report = {}
    for name, ps in sorted(session.structures.items()):
        report[name] = {
            "principal": ps.principal_count,
            "parameter": ps.parameter_count,
            "constants": list(ps.constant_variables),
            "brackets_vanish": True,  # build_param_structure accepts commuting bases only
        }
    return {"verdict": "ok", "structures": report}


def _check_integrability(session: Session, flags, module: DiffModule) -> dict:
    if module.flat is True:  # checked before, or flat by its construction
        return {"verdict": "flat"}
    verdict = check_integrability(module)
    if verdict.flat:
        return {"verdict": "flat"}
    i, j, res = verdict.witness
    return {"verdict": "curved", "witness": {"pair": [i, j], "residual": _render_matrix(res)}}


def _check_morphism(session: Session, flags, name: str) -> dict:
    if name in session.mod_morphisms:
        src, dst, matrix = session.mod_morphisms[name]
        verdict = morphism_check(matrix, session.modules[src], session.modules[dst])
        if verdict.ok:
            return {"verdict": "ok"}
        witness = {"principal_index": verdict.index, "residual": _render_matrix(verdict.residual)}
        return {"verdict": "fail", "witness": witness}
    verdict = check_morphism(session.ring_morphisms[name][2])
    if verdict.ok:
        return {"verdict": "ok"}
    if verdict.kind == "d_compat_fail":
        witness = {"variable": verdict.variable, "form": _strs(verdict.witness_form)}
        return {"verdict": "d-compat-fail", "witness": witness}
    t = verdict.witness_two_form
    upper = (t[i][j] for i in range(len(t)) for j in range(i + 1, len(t)))
    witness = {"dual_index": verdict.dual_index, "two_form": _strs(upper)}
    return {"verdict": "integrability-fail", "witness": witness}


def _extend_scalars(session: Session, flags, phi: str, module: DiffModule):
    _, dst, morphism = session.ring_morphisms[phi]
    return extend_scalars(morphism, module, session.structures[dst]), {}


def _prolong(session: Session, flags, module: DiffModule):
    p = prolong_module(module)
    return p.core, {
        "parent_rank": module.rank,
        "q": module.ps.parameter_count,
        "incl": _render_matrix(p.incl),
        "proj": _render_matrix(p.proj),
    }


def _at2(session: Session, flags, module: DiffModule):
    s = at2_module(module)
    return s.invariant, {"double_rank": s.double_rank, "incl": _render_matrix(s.incl)}


def _baer_check(session: Session, flags, a: DiffModule, b: DiffModule) -> dict:
    ea = extension_of_prolongation(a)
    neutral = baer_sum(ea, trivial_extension(ea.quot, ea.sub))
    ok = all(linalg.mat_eq(x, y) for x, y in zip(neutral.off, ea.off))
    inverse = baer_sum(ea, ea.negate())
    ok = ok and all(linalg.is_zero_matrix(x) for x in inverse.off)
    ok = ok and check_tensor_compat(a, b)
    return {"verdict": "ok" if ok else "fail"}


def _closure(session: Session, flags, module: DiffModule) -> dict:
    res = generate_closure(module, flags.depth, flags.rank_cap)
    return {
        "verdict": "ok",
        "items": [
            {"label": it.label, "rank": it.module.rank, "depth": it.prolong_depth}
            for it in res.items
        ],
        "truncated_by_rank": res.truncated_by_rank,
        "truncated_by_items": res.truncated_by_items,
    }


def _horizontal(session: Session, flags, module: DiffModule) -> dict:
    vectors = horizontal_space(module, flags.degree_bound)
    return {
        "verdict": "ok",
        "degree_bound": flags.degree_bound,
        "vectors": [_strs(v) for v in vectors],
    }


def _jet_eval(session: Session, flags, f: RatFun, g: RatFun) -> dict:
    s = session.structures["main"].full
    prod = jet2_mul(jet2_r(f, s), jet2_r(g, s), s)
    return {
        "verdict": "ok" if prod == jet2_r(f * g, s) else "fail",
        "r2_product": {
            "scalar": str(prod.a),
            "form": _strs(prod.omega),
            "tensor": _render_matrix(prod.eta),
        },
    }


def _constants_check(session: Session, flags, f: RatFun) -> dict:
    ok = constants_check(f, session.structures["main"])
    return {"verdict": "true" if ok else "false"}


VERBS: dict[str, Verb] = {
    "check-structure": Verb((), False, _check_structure),
    "check-morphism": Verb((MORPHISM,), False, _check_morphism),
    "check-integrability": Verb((MODULE,), False, _check_integrability),
    "tensor": Verb((MODULE, MODULE), True, lambda session, flags, a, b: (tensor(a, b), {})),
    "dual": Verb((MODULE,), True, lambda session, flags, a: (dual(a), {})),
    "hom": Verb((MODULE, MODULE), True, lambda session, flags, a, b: (hom(a, b), {})),
    "extend-scalars": Verb((RING, MODULE), True, _extend_scalars),
    "prolong": Verb((MODULE,), True, _prolong),
    "at2": Verb((MODULE,), True, _at2),
    "baer-check": Verb((MODULE, MODULE), False, _baer_check),
    "closure": Verb((MODULE,), False, _closure),
    "horizontal": Verb((MODULE,), False, _horizontal),
    "jet-eval": Verb((EXPR, EXPR), False, _jet_eval),
    "constants-check": Verb((EXPR,), False, _constants_check),
}

# verdicts of a failed check; any of them makes the run exit 4
FAILING_VERDICTS = frozenset({"curved", "fail", "d-compat-fail", "integrability-fail", "false"})


def _operand(session: Session, kind: str, text: str, lineno: int):
    if kind == MODULE:
        return session.modules[text]
    if kind == EXPR:
        return _parse_expression(session.structures["main"].base, text, lineno)
    return text


def run_session(session: Session, flags) -> tuple[list[dict], int]:
    records: list[dict] = []
    any_verdict_failed = False
    for index, (lineno, cmd) in enumerate(session.commands):
        name, args = cmd[0], cmd[1:]
        verb = VERBS[name]
        new, operands = _split_assignment(args)
        values = [_operand(session, k, n, lineno) for k, n in zip(verb.kinds, operands)]
        if verb.binds:
            module, extra = verb.handler(session, flags, *values)
            struct = _result_structure(session, verb, operands)
            fields = {"verdict": "ok", "derived": _module_record(session, struct, module) | extra}
            if new is not None:
                session.modules[new] = module
        else:
            fields = verb.handler(session, flags, *values)
        any_verdict_failed = any_verdict_failed or fields["verdict"] in FAILING_VERDICTS
        records.append(
            {"record": "certificate", "index": index, "command": name, "args": args, **fields}
        )
    return records, (4 if any_verdict_failed else 0)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _emit(records: list[dict], out_stream) -> None:
    for r in records:
        out_stream.write(_ENCODER.encode(r) + "\n")


def _human_report(records: list[dict], stream) -> None:
    for r in records:
        head = " ".join([r["command"], *r["args"]])
        stream.write(f"[{r['index']}] {head}: {r['verdict']}\n")


def _fail(code: int, line: str) -> int:
    """Print the one-line message of an error exit and return its code.  A
    closed standard error keeps the code: it is pointed at devnull, so that
    the flush at interpreter exit does not raise and exit with 120."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


def _write_out(path: str, records: list[dict]) -> None:
    """Write the records to ``--out``.  A regular file, or a path not yet
    there, is written to a temporary file beside it, which replaces it
    only once every record is out, so a failed run leaves no partial
    file; the temporary file is removed on any exception, which goes on
    up.  A special file such as /dev/null or a pipe is written directly."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            _emit(records, fh)
        return
    target = os.path.realpath(path)  # a symlink keeps pointing at the result
    mode = stat.S_IMODE(os.stat(target).st_mode) if os.path.exists(target) else 0o666
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    except OSError as err:  # name the path asked for, not the temporary one
        raise OSError(err.errno, err.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            _emit(records, fh)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def run(path: str, flags) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        return _fail(2, f"error: {err}")
    except UnicodeDecodeError as err:
        return _fail(2, f"error: {path} is not UTF-8 text: {err}")
    # the exception, and with it the frames that hold the records, is
    # dropped when its except clause ends, so the line has memory to work with
    try:
        return _run_text(text, flags)
    except MemoryError:
        reason = "out of memory"
    except RecursionError:
        reason = "recursion too deep"
    return _fail(3, f"semantic error: {reason}")


def _run_text(text: str, flags) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    try:
        session = parse_session(text)
        records, verdict_code = run_session(session, flags)
    except ParseError as err:
        return _fail(2, f"parse error: {err}")
    except SemanticError as err:
        return _fail(3, f"semantic error: {err}")
    except ParamjetError as err:
        return _fail(3, f"semantic error: {type(err).__name__}: {err}")
    header = {
        "record": "header",
        "tool": "paramjet",
        "version": VERSION,
        "input_digest": f"sha256:{digest}",
        "command_count": len(session.commands),
    }
    try:
        if flags.out:
            _write_out(flags.out, [header] + records)
        else:
            _emit([header] + records, sys.stdout)
            sys.stdout.flush()  # the certificates are out before the report
        if not flags.quiet:
            _human_report(records, sys.stdout if flags.out else sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout or stderr; stdout is pointed at devnull so
        # that the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(2, "error: output closed before all output was written")
    except OSError as err:
        return _fail(2, f"error: {err}")
    return verdict_code


def _nonnegative_int(text: str) -> int:
    """argparse type for counts and bounds: a base-10 integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error in one line, without the usage block."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="paramjet", description="exact engine for parameterized linear differential systems"
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    runp = sub.add_parser("run", help="execute a session file")
    runp.add_argument("file")
    runp.add_argument("--out", default=None, help="write certificates to this path")
    runp.add_argument("--degree-bound", type=_nonnegative_int, default=0, dest="degree_bound")
    runp.add_argument("--depth", type=_nonnegative_int, default=1)
    runp.add_argument("--rank-cap", type=_nonnegative_int, default=8, dest="rank_cap")
    runp.add_argument("--quiet", action="store_true")
    ns = parser.parse_args(argv)
    return run(ns.file, ns)


if __name__ == "__main__":
    raise SystemExit(main())
