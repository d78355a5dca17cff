"""Output checks, run by the parent after the timed loop.

Every verdict must equal the answer known by construction, the exit code
must be the expected one, every derived-matrix cell must re-parse to
itself through ``parse_ratfun``, every ``horizontal`` vector must satisfy
v' = A v when sympy re-derives it, the terminating 2F1 solution must lie
in the returned Q-span, and the certificate bytes of a session must be
the same every time it runs.  Any miss fails the operations it touches.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from gen import Session


def write_answers(session_path, session: Session) -> None:
    """The side file beside a session: every answer known by construction."""
    side = asdict(session)
    del side["text"]
    session_path.with_suffix(".answers.json").write_text(json.dumps(side), encoding="utf-8")


def read_session(session_path) -> Session:
    side = json.loads(session_path.with_suffix(".answers.json").read_text(encoding="utf-8"))
    return Session(text=session_path.read_text(encoding="utf-8"), **side)


def structure_fields(text: str) -> dict[str, list[str]]:
    """Field variables of every structure declared in a session text."""
    fields: dict[str, list[str]] = {}
    main: list[str] = []
    current = None
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if current is None:
            if tokens[0] == "field":
                main = tokens[1:]
            elif tokens[0] == "structure":
                current = tokens[1] if len(tokens) > 1 else "main"
                fields[current] = main if current == "main" else []
        elif tokens[0] == "field":
            fields[current] = tokens[1:]
        elif tokens[0] == "end":
            current = None
    return fields


class Checker:
    def __init__(self, field_mod):
        self.field = field_mod
        self.round_tripped: set[tuple] = set()
        self.first_bytes: dict[str, bytes] = {}

    # -- one session -------------------------------------------------------------

    def check(self, session, result: dict) -> tuple[int, set, list[str]]:
        """Returns (operations attempted, indices failed, reasons)."""
        ops = max(1, len(session.answers))
        everything = set(range(ops))
        if result["timed_out"]:
            return ops, everything, [f"{session.name}: command time limit hit"]
        if result["error"]:
            return ops, everything, [f"{session.name}: {result['error']}"]
        if result["exit"] != session.expected_exit:
            return ops, everything, [
                f"{session.name}: exit {result['exit']}, expected {session.expected_exit}"]
        if not session.answers:
            return ops, set(), []
        with open(result["out"], "rb") as fh:
            data = fh.read()
        first = self.first_bytes.setdefault(session.name, data)
        if data != first:
            return ops, everything, [f"{session.name}: certificate bytes differ between runs"]
        records = [json.loads(line) for line in data.decode("utf-8").splitlines()[1:]]
        if len(records) != len(session.answers):
            return ops, everything, [f"{session.name}: {len(records)} certificates"]
        fields = structure_fields(session.text)
        failed, reasons = set(), []
        for i, (rec, ans) in enumerate(zip(records, session.answers)):
            problem = None
            if rec.get("verdict") != ans["verdict"]:
                problem = f"verdict {rec.get('verdict')!r}, expected {ans['verdict']!r}"
            elif "derived" in rec:
                problem = self._round_trip(rec["derived"], fields)
            if problem is None and "nullity" in ans:
                problem = self._horizontal(rec, ans)
            if problem is not None:
                failed.add(i)
                reasons.append(f"{session.name} command {i}: {problem}")
        return ops, failed, reasons

    def check_repeat(self, session, result: dict) -> list[str]:
        if result["timed_out"] or result["error"] or result["exit"] != session.expected_exit:
            return [f"{session.name}: repeat run failed"]
        with open(result["out"], "rb") as fh:
            if fh.read() != self.first_bytes.get(session.name):
                return [f"{session.name}: repeat certificate bytes differ"]
        return []

    # -- derived matrices ----------------------------------------------------------

    def _round_trip(self, derived: dict, fields: dict) -> str | None:
        variables = tuple(fields[derived["structure"]])
        spec = self.field.FieldSpec(variables)
        matrices = list(derived["matrices"].values())
        matrices += [derived[k] for k in ("incl", "proj") if k in derived]
        for rows in matrices:
            for row in rows:
                for cell in row:
                    key = (variables, cell)
                    if key in self.round_tripped:
                        continue
                    if str(self.field.parse_ratfun(spec, cell)) != cell:
                        return f"cell {cell!r} does not round-trip"
                    self.round_tripped.add(key)
        return None

    # -- horizontal vectors --------------------------------------------------------

    def _horizontal(self, rec: dict, ans: dict) -> str | None:
        vectors = rec.get("vectors", [])
        if len(vectors) != ans["nullity"]:
            return f"nullity {len(vectors)}, expected {ans['nullity']}"
        if not vectors:
            return None
        import sympy as sp  # the benchmark's own oracle; the engine never imports it

        x, t = sp.symbols("x t")
        env = {"x": x, "t": t}

        def parse(s: str):
            return sp.sympify(s.replace("^", "**"), locals=env)

        a = sp.Matrix([[parse(c) for c in row] for row in ans["matrix"]])
        vecs = [sp.Matrix([parse(c) for c in v]) for v in vectors]
        for v in vecs:
            residual = v.diff(x) - a * v
            if any(sp.cancel(r) != 0 for r in residual):
                return "a returned vector is not horizontal"
        f = parse(ans["solution"])
        target = sp.Matrix([f, sp.diff(f, x)])
        # the Q-span: clear the common denominator and compare coefficient ranks
        d3 = (x * (x - 1)) ** 3
        cols = []
        for v in vecs + [target]:
            col = {}
            for k, entry in enumerate(v):
                poly = sp.Poly(sp.cancel(entry * d3), x, t)
                for mono, c in poly.as_dict().items():
                    col[(k, mono)] = c
            cols.append(col)
        keys = sorted({key for col in cols for key in col})
        span = sp.Matrix([[col.get(key, 0) for col in cols[:-1]] for key in keys])
        full = sp.Matrix([[col.get(key, 0) for col in cols] for key in keys])
        if span.rank() != len(vecs):
            return "returned vectors are dependent"
        if full.rank() != span.rank():
            return "terminating 2F1 solution is not in the returned span"
        return None
