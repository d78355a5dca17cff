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

Exit codes: 0 all verdicts ok, 2 parse error, 3 semantic error, 4 at
least one verdict-bearing command failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import linalg
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

VERSION = "0.1.0"

COMMANDS = {
    "check-structure",
    "check-morphism",
    "check-integrability",
    "tensor",
    "dual",
    "hom",
    "extend-scalars",
    "prolong",
    "at2",
    "baer-check",
    "closure",
    "horizontal",
    "jet-eval",
    "constants-check",
}


class Session:
    def __init__(self):
        self.field: FieldSpec | None = None
        self.structures: dict[str, ParamStructure] = {}
        self.deriv_names: dict[str, list[str]] = {}
        self.modules: dict[str, DiffModule] = {}
        self.module_structure: dict[str, str] = {}
        self.mod_morphisms: dict[str, tuple] = {}  # name -> (src, dst, matrix)
        self.ring_morphisms: dict[str, tuple] = {}  # name -> (src, dst, DiffMorphism)
        self.commands: list[tuple[int, list[str]]] = []
        self.names: set[str] = set()

    def structure_of(self, module_name: str) -> str:
        return self.module_structure[module_name]


class _Lines:
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next_content(self) -> tuple[int, str] | None:
        while self.pos < len(self.raw):
            lineno = self.pos + 1
            line = self.raw[self.pos].split("#", 1)[0].strip()
            self.pos += 1
            if line:
                return lineno, line
        return None

    def peek_content(self) -> tuple[int, str] | None:
        saved = self.pos
        out = self.next_content()
        self.pos = saved
        return out


def _split_csv(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValueError("empty entry")
    return parts


def _parse_matrix_block(lines: _Lines, spec: FieldSpec, lineno: int) -> list[list[RatFun]]:
    rows = []
    while True:
        item = lines.next_content()
        if item is None:
            raise ParseError("unterminated matrix block", line=lineno)
        ln, content = item
        if content == "end":
            break
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


def _fresh_name(session: Session, name: str, lineno: int):
    if name in session.names:
        raise ParseError(f"name {name!r} already defined", line=lineno)
    session.names.add(name)


def _parse_structure_block(lines: _Lines, session: Session, header: list[str], lineno: int):
    name = header[1] if len(header) > 1 else "main"
    _fresh_name(session, name, lineno)
    spec = session.field if name == "main" else None
    principal: list[tuple[str, list[str]]] = []
    parameter: list[tuple[str, list[str]]] = []
    constants: list[str] = []
    while True:
        item = lines.next_content()
        if item is None:
            raise ParseError("unterminated structure block", line=lineno)
        ln, content = item
        if content == "end":
            break
        tokens = content.split(None, 1)
        key = tokens[0]
        rest = tokens[1] if len(tokens) > 1 else ""
        if key == "field":
            if spec is not None:
                raise ParseError("field is fixed for this structure", line=ln)
            try:
                spec = FieldSpec(rest.split())
            except ValueError as err:
                raise ParseError(str(err), line=ln) from None
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
    try:
        def mk(coeffs):
            return Derivation(spec, tuple(parse_ratfun(spec, c.strip()) for c in coeffs))

        ps = build_param_structure(
            spec,
            [mk(c) for _, c in principal],
            [mk(c) for _, c in parameter],
            constants,
        )
    except ParseError as err:
        raise ParseError(f"bad structure {name!r}: {err}", line=lineno) from None
    except ParamjetError as err:
        raise SemanticError(f"invalid structure {name!r}: {err}") from None
    deriv_names = [n for n, _ in principal] + [n for n, _ in parameter]
    if len(set(deriv_names)) != len(deriv_names):
        raise ParseError("derivation names must be distinct", line=lineno)
    session.structures[name] = ps
    session.deriv_names[name] = deriv_names


def _parse_module_block(lines: _Lines, session: Session, header: list[str], lineno: int):
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
    matrices: dict[str, list] = {}
    while True:
        item = lines.next_content()
        if item is None:
            raise ParseError("unterminated module block", line=lineno)
        ln, content = item
        if content == "end":
            break
        tokens = content.split()
        if tokens[0] != "matrix" or len(tokens) != 2:
            raise ParseError("expected 'matrix DERIVATION'", line=ln)
        matrices[tokens[1]] = _parse_matrix_block(lines, ps.base, ln)
    names = session.deriv_names[struct][: ps.principal_count]
    conn = []
    for dname in names:
        if dname not in matrices:
            raise SemanticError(f"module {name!r} missing matrix for {dname!r}")
        a = matrices.pop(dname)
        if linalg.shape(a) != (rank, rank):
            raise SemanticError(f"matrix for {dname!r} is not {rank}x{rank}")
        conn.append(a)
    if matrices:
        raise SemanticError(f"module {name!r} has matrices for unknown derivations")
    session.modules[name] = DiffModule(ps, rank, tuple(conn))
    session.module_structure[name] = struct


def _parse_morphism_block(lines: _Lines, session: Session, header: list[str], lineno: int):
    # morphism NAME : SRC -> DST
    text = " ".join(header[1:])
    if ":" not in text or "->" not in text:
        raise ParseError("expected 'morphism NAME : SRC -> DST'", line=lineno)
    name, arrow = text.split(":", 1)
    src, dst = arrow.split("->", 1)
    name, src, dst = name.strip(), src.strip(), dst.strip()
    _fresh_name(session, name, lineno)
    if src not in session.modules or dst not in session.modules:
        raise SemanticError(f"morphism {name!r} references undefined module")
    item = lines.next_content()
    if item is None or item[1] != "matrix":
        raise ParseError("expected 'matrix' block", line=lineno)
    matrix = _parse_matrix_block(lines, session.modules[src].spec, item[0])
    tail = lines.next_content()
    if tail is None or tail[1] != "end":
        raise ParseError("expected 'end' after morphism matrix", line=lineno)
    m, n = session.modules[src], session.modules[dst]
    if linalg.shape(matrix) != (n.rank, m.rank):
        raise SemanticError(f"morphism {name!r} matrix must be {n.rank}x{m.rank}")
    session.mod_morphisms[name] = (src, dst, matrix)


def _parse_ring_morphism_block(lines: _Lines, session: Session, header: list[str], lineno: int):
    text = " ".join(header[1:])
    if ":" not in text or "->" not in text:
        raise ParseError("expected 'ringmorphism NAME : SRC -> DST'", line=lineno)
    name, arrow = text.split(":", 1)
    src, dst = arrow.split("->", 1)
    name, src, dst = name.strip(), src.strip(), dst.strip()
    _fresh_name(session, name, lineno)
    if src not in session.structures or dst not in session.structures:
        raise SemanticError(f"ring morphism {name!r} references undefined structure")
    source = session.structures[src]
    target = session.structures[dst]
    images: dict[str, RatFun] = {}
    omega = None
    while True:
        item = lines.next_content()
        if item is None:
            raise ParseError("unterminated ringmorphism block", line=lineno)
        ln, content = item
        if content == "end":
            break
        tokens = content.split(None, 1)
        if tokens[0] == "image":
            if "=" not in tokens[1]:
                raise ParseError("expected 'image VAR = expr'", line=ln)
            var, expr = tokens[1].split("=", 1)
            images[var.strip()] = parse_ratfun(target.base, expr.strip())
        elif tokens[0] == "omega":
            omega = _parse_matrix_block(lines, target.base, ln)
        else:
            raise ParseError(f"unknown ringmorphism item {tokens[0]!r}", line=ln)
    if omega is None:
        raise ParseError("ringmorphism needs an omega block", line=lineno)
    p_src = source.principal_structure
    p_dst = target.principal_structure
    if linalg.shape(omega) != (p_dst.dim, p_src.dim):
        raise SemanticError(
            f"omega matrix of {name!r} must be {p_dst.dim}x{p_src.dim}"
        )
    missing = [v for v in source.base.variables if v not in images]
    if missing:
        raise SemanticError(f"ring morphism {name!r} missing images for {missing}")
    morphism = DiffMorphism(p_src, p_dst, images, tuple(tuple(r) for r in omega))
    session.ring_morphisms[name] = (src, dst, morphism)


def parse_session(text: str) -> Session:
    session = Session()
    lines = _Lines(text)
    while True:
        item = lines.next_content()
        if item is None:
            break
        lineno, content = item
        tokens = content.split()
        head = tokens[0]
        if head == "field":
            if session.field is not None:
                raise ParseError("duplicate field declaration", line=lineno)
            try:
                session.field = FieldSpec(tokens[1:])
            except ValueError as err:
                raise ParseError(str(err), line=lineno) from None
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
            if len(tokens) < 2 or tokens[1] not in COMMANDS:
                raise ParseError(f"unknown command {' '.join(tokens[1:2])!r}", line=lineno)
            _check_command_references(session, tokens[1:], lineno)
            session.commands.append((lineno, tokens[1:]))
        else:
            raise ParseError(f"unknown declaration {head!r}", line=lineno)
    return session


def _check_command_references(session: Session, cmd: list[str], lineno: int):
    """Commands may only refer to names defined earlier in the file; a
    'NEW = ...' derivation defines NEW for later commands."""
    verb, args = cmd[0], cmd[1:]
    new = None
    if len(args) >= 2 and args[1] == "=":
        new, args = args[0], args[2:]
    module_refs: list[str] = []
    if verb in ("check-integrability", "prolong", "at2", "dual", "closure", "horizontal"):
        module_refs = args[:1]
    elif verb in ("tensor", "hom", "baer-check"):
        module_refs = args[:2]
    elif verb == "extend-scalars":
        if not args or args[0] not in session.ring_morphisms:
            raise SemanticError(f"undefined ring morphism in command (line {lineno})")
        module_refs = args[1:2]
    elif verb == "check-morphism":
        if not args or (
            args[0] not in session.ring_morphisms and args[0] not in session.mod_morphisms
        ):
            raise SemanticError(f"undefined morphism {args[:1]} (line {lineno})")
    for name in module_refs:
        if name not in session.modules:
            raise SemanticError(f"undefined module {name!r} (line {lineno})")
    if new is not None:
        if verb not in ("tensor", "hom", "dual", "prolong", "at2", "extend-scalars"):
            raise ParseError(f"command {verb!r} does not produce a named result", line=lineno)
        _fresh_name(session, new, lineno)
        # register a placeholder so later commands can reference the result
        if verb == "extend-scalars":
            struct = session.ring_morphisms[args[0]][1]
        else:
            struct = session.module_structure[module_refs[0]]
        src = session.modules[module_refs[0]] if verb != "extend-scalars" else session.modules[args[1]]
        session.module_structure[new] = struct
        session.modules[new] = _derived_placeholder(session, verb, args, struct, src)


def _derived_placeholder(session: Session, verb: str, args: list[str], struct: str, src: DiffModule) -> DiffModule:
    """Construct the derived module eagerly so later commands can refer to
    it; run_session recomputes the same value when emitting certificates."""
    ps = session.structures[struct]
    if verb == "tensor":
        return tensor(session.modules[args[0]], session.modules[args[1]])
    if verb == "hom":
        return hom(session.modules[args[0]], session.modules[args[1]])
    if verb == "dual":
        return dual(session.modules[args[0]])
    if verb == "prolong":
        return prolong_module(session.modules[args[0]]).core
    if verb == "at2":
        return at2_module(session.modules[args[0]]).invariant
    if verb == "extend-scalars":
        _, dst, morphism = session.ring_morphisms[args[0]]
        return extend_scalars(morphism, session.modules[args[1]], session.structures[dst])
    raise SemanticError(f"cannot derive a module with {verb!r}")


# --- execution -----------------------------------------------------------------


def _render_matrix(a) -> list[list[str]]:
    return [[str(x) for x in row] for row in a]


def _module_record(session: Session, struct_name: str, module: DiffModule) -> dict:
    names = session.deriv_names[struct_name][: module.ps.principal_count]
    return {
        "structure": struct_name,
        "rank": module.rank,
        "matrices": {n: _render_matrix(a) for n, a in zip(names, module.conn)},
    }


def _require(session: Session, table: dict, name: str, kind: str):
    if name not in table:
        raise SemanticError(f"undefined {kind} {name!r}")
    return table[name]


def _split_assignment(args: list[str]) -> tuple[str | None, list[str]]:
    if len(args) >= 2 and args[1] == "=":
        return args[0], args[2:]
    return None, args


def run_session(session: Session, flags) -> tuple[list[dict], int]:
    records: list[dict] = []
    any_verdict_failed = False
    for index, (lineno, cmd) in enumerate(session.commands):
        verb, args = cmd[0], cmd[1:]
        record: dict = {"record": "certificate", "index": index, "command": verb, "args": args}
        try:
            if verb == "check-structure":
                report = {}
                for name, ps in sorted(session.structures.items()):
                    report[name] = {
                        "principal": ps.principal_count,
                        "parameter": ps.parameter_count,
                        "constants": list(ps.constant_variables),
                        "brackets_vanish": True,
                    }
                record["verdict"] = "ok"
                record["structures"] = report
            elif verb == "check-integrability":
                module = _require(session, session.modules, args[0], "module")
                verdict = check_integrability(module)
                if verdict.flat:
                    record["verdict"] = "flat"
                else:
                    i, j, res = verdict.witness
                    record["verdict"] = "curved"
                    record["witness"] = {"pair": [i, j], "residual": _render_matrix(res)}
                    any_verdict_failed = True
            elif verb == "check-morphism":
                name = args[0]
                if name in session.ring_morphisms:
                    _, _, morphism = session.ring_morphisms[name]
                    verdict = check_morphism(morphism)
                    if verdict.ok:
                        record["verdict"] = "ok"
                    else:
                        any_verdict_failed = True
                        if verdict.kind == "d_compat_fail":
                            record["verdict"] = "d-compat-fail"
                            record["witness"] = {
                                "variable": verdict.variable,
                                "form": [str(c) for c in verdict.witness_form.coeffs],
                            }
                        else:
                            record["verdict"] = "integrability-fail"
                            record["witness"] = {
                                "dual_index": verdict.dual_index,
                                "two_form": [str(c) for c in verdict.witness_two_form.coeffs],
                            }
                elif name in session.mod_morphisms:
                    src, dst, matrix = session.mod_morphisms[name]
                    verdict = morphism_check(
                        matrix, session.modules[src], session.modules[dst]
                    )
                    if verdict.ok:
                        record["verdict"] = "ok"
                    else:
                        record["verdict"] = "fail"
                        record["witness"] = {
                            "principal_index": verdict.index,
                            "residual": _render_matrix(verdict.residual),
                        }
                        any_verdict_failed = True
                else:
                    raise SemanticError(f"undefined morphism {name!r}")
            elif verb in ("tensor", "hom"):
                new, rest = _split_assignment(args)
                a = _require(session, session.modules, rest[0], "module")
                b = _require(session, session.modules, rest[1], "module")
                out = tensor(a, b) if verb == "tensor" else hom(a, b)
                struct = session.structure_of(rest[0])
                record["verdict"] = "ok"
                record["derived"] = _module_record(session, struct, out)
                if new:
                    session.modules[new] = out
                    session.module_structure[new] = struct
            elif verb == "dual":
                new, rest = _split_assignment(args)
                a = _require(session, session.modules, rest[0], "module")
                out = dual(a)
                struct = session.structure_of(rest[0])
                record["verdict"] = "ok"
                record["derived"] = _module_record(session, struct, out)
                if new:
                    session.modules[new] = out
                    session.module_structure[new] = struct
            elif verb == "extend-scalars":
                new, rest = _split_assignment(args)
                phi_name, mod_name = rest[0], rest[1]
                src, dst, morphism = _require(
                    session, session.ring_morphisms, phi_name, "ring morphism"
                )
                module = _require(session, session.modules, mod_name, "module")
                target = session.structures[dst]
                out = extend_scalars(morphism, module, target)
                record["verdict"] = "ok"
                record["derived"] = _module_record(session, dst, out)
                if new:
                    session.modules[new] = out
                    session.module_structure[new] = dst
            elif verb == "prolong":
                new, rest = _split_assignment(args)
                module = _require(session, session.modules, rest[0], "module")
                p = prolong_module(module)
                struct = session.structure_of(rest[0])
                derived = _module_record(session, struct, p.core)
                derived["parent_rank"] = p.parent_rank
                derived["q"] = p.q
                derived["incl"] = _render_matrix(p.incl.matrix)
                derived["proj"] = _render_matrix(p.proj.matrix)
                record["verdict"] = "ok"
                record["derived"] = derived
                if new:
                    session.modules[new] = p.core
                    session.module_structure[new] = struct
            elif verb == "at2":
                new, rest = _split_assignment(args)
                module = _require(session, session.modules, rest[0], "module")
                s = at2_module(module)
                struct = session.structure_of(rest[0])
                derived = _module_record(session, struct, s.invariant)
                derived["double_rank"] = s.double.rank
                derived["incl"] = _render_matrix(s.incl.matrix)
                record["verdict"] = "ok"
                record["derived"] = derived
                if new:
                    session.modules[new] = s.invariant
                    session.module_structure[new] = struct
            elif verb == "baer-check":
                a = _require(session, session.modules, args[0], "module")
                b = _require(session, session.modules, args[1], "module")
                ea = extension_of_prolongation(prolong_module(a))
                neutral = baer_sum(ea, trivial_extension(ea.quot, ea.sub))
                ok = all(linalg.mat_eq(x, y) for x, y in zip(neutral.off, ea.off))
                inverse = baer_sum(ea, ea.negate())
                ok = ok and all(linalg.is_zero_matrix(x) for x in inverse.off)
                ok = ok and check_tensor_compat(a, b)
                record["verdict"] = "ok" if ok else "fail"
                if not ok:
                    any_verdict_failed = True
            elif verb == "closure":
                module = _require(session, session.modules, args[0], "module")
                res = generate_closure(module, flags.depth, flags.rank_cap)
                record["verdict"] = "ok"
                record["items"] = [
                    {"label": it.label, "rank": it.module.rank, "depth": it.prolong_depth}
                    for it in res.items
                ]
                record["truncated_by_rank"] = res.truncated_by_rank
                record["truncated_by_items"] = res.truncated_by_items
            elif verb == "horizontal":
                module = _require(session, session.modules, args[0], "module")
                vectors = horizontal_space(module, flags.degree_bound)
                record["verdict"] = "ok"
                record["degree_bound"] = flags.degree_bound
                record["vectors"] = [[str(c) for c in v] for v in vectors]
            elif verb == "jet-eval":
                struct = session.structures["main"]
                s = struct.full
                f = parse_ratfun(s.base, args[0])
                g = parse_ratfun(s.base, args[1])
                rf, rg = jet2_r(f, s), jet2_r(g, s)
                prod = jet2_mul(rf, rg, s)
                law = prod == jet2_r(f * g, s)
                record["verdict"] = "ok" if law else "fail"
                record["r2_product"] = {
                    "scalar": str(prod.a),
                    "form": [str(c) for c in prod.omega.coeffs],
                    "tensor": _render_matrix(prod.eta),
                }
                if not law:
                    any_verdict_failed = True
            elif verb == "constants-check":
                struct = session.structures["main"]
                a = parse_ratfun(struct.base, args[0])
                ok = constants_check(a, struct)
                record["verdict"] = "true" if ok else "false"
                if not ok:
                    any_verdict_failed = True
            else:
                raise SemanticError(f"unhandled command {verb!r}")
        except IndexError:
            raise SemanticError(f"command {verb!r} is missing arguments (line {lineno})")
        records.append(record)
    return records, (4 if any_verdict_failed else 0)


def _emit(records: list[dict], out_stream) -> None:
    for r in records:
        out_stream.write(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n")


def _human_report(records: list[dict], stream) -> None:
    for r in records:
        if r.get("record") != "certificate":
            continue
        head = " ".join([r["command"], *r["args"]])
        stream.write(f"[{r['index']}] {head}: {r['verdict']}\n")


def run(path: str, flags) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    try:
        session = parse_session(text)
        records, verdict_code = run_session(session, flags)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except SemanticError as err:
        print(f"semantic error: {err}", file=sys.stderr)
        return 3
    except ParamjetError as err:
        print(f"semantic error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    header = {
        "record": "header",
        "tool": "paramjet",
        "version": VERSION,
        "input_digest": f"sha256:{digest}",
        "command_count": len(session.commands),
    }
    stream_records = [header] + records
    if flags.out:
        with open(flags.out, "w", encoding="utf-8") as fh:
            _emit(stream_records, fh)
        if not flags.quiet:
            _human_report(records, sys.stdout)
    else:
        _emit(stream_records, sys.stdout)
        if not flags.quiet:
            _human_report(records, sys.stderr)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
    if ns.verb == "run":
        return run(ns.file, ns)
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
