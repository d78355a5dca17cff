"""Span tracing of the engine's public functions, installed from outside.

``install`` rebinds each listed function in every ``paramjet`` module that
holds it (``conn`` imports ``poly_gcd`` by name, ``cli`` imports ``tensor``
and so on), so every call path goes through the wrapper.  A wrapper records
one span per call: kind, start, end, parent span and session.  A call of a
kind that is already open on the stack (the recursion inside ``poly_gcd``)
records no span of its own, so recursive calls count once, at the top.
Spans stay in memory in flat arrays and are written out when the run ends.

Two constructors are too hot to span: ``RatFun.__init__`` and
``RatFun.const`` are counted only.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span kind); the layer is the kind's first component
SPANS = [
    ("cli", "parse_session", "cli.parse"),
    ("cli", "run_session", "cli.run"),
    ("cli", "_emit", "cli.emit"),
    ("field", "poly_gcd", "field.gcd"),
    ("field", "parse_ratfun", "field.parse"),
    ("field", "poly_divexact", "field.divexact"),
    ("field", "partial_derivative", "field.partial"),
    ("field", "substitute", "field.substitute"),
    ("linalg", "fraction_nullspace", "linalg.nullspace"),
    ("linalg", "kron", "linalg.kron"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("diffstruct", "Derivation.apply", "diffstruct.apply"),
    ("diffstruct", "check_morphism", "diffstruct.check_morphism"),
    ("diffstruct", "build_param_structure", "diffstruct.build_param_structure"),
    ("jet", "jet2_mul", "jet.jet2_mul"),
    ("jet", "jet2_r", "jet.jet2_r"),
    ("conn", "curvature_residual", "conn.curvature"),
    ("conn", "horizontal_space", "conn.horizontal"),
    ("conn", "tensor", "conn.tensor"),
    ("conn", "hom", "conn.hom"),
    ("conn", "dual", "conn.dual"),
    ("conn", "direct_sum", "conn.direct_sum"),
    ("conn", "extend_scalars", "conn.extend_scalars"),
    ("conn", "morphism_check", "conn.morphism_check"),
    ("prolong", "prolong_module", "prolong.prolong_module"),
    ("prolong", "at2_module", "prolong.at2"),
    ("prolong", "baer_sum", "prolong.baer"),
    ("prolong", "generate_closure", "prolong.closure"),
]
COUNTS = [
    ("field", "RatFun.__init__", "field.ratfun_new"),
    ("field", "RatFun.const", "field.const"),
]
LAYERS = ("cli", "field", "linalg", "diffstruct", "jet", "conn", "prolong")

# kinds that build a derived module; built directly under cli.parse they are
# the parse-time work that run_session repeats
DERIVED_KINDS = ("conn.tensor", "conn.hom", "conn.dual", "conn.extend_scalars",
                 "prolong.prolong_module", "prolong.at2")
# kinds generate_closure builds candidates with
CANDIDATE_KINDS = ("conn.dual", "conn.tensor", "conn.direct_sum", "prolong.prolong_module")


class Tracer:
    def __init__(self):
        self.kinds = [k for _, _, k in SPANS]
        self.kind_id = {k: i for i, k in enumerate(self.kinds)}
        self.start = array("d")
        self.end = array("d")
        self.kind = array("i")
        self.parent = array("i")
        self.session = array("i")
        self.notes: dict[int, tuple] = {}
        self.open_kinds = [0] * len(self.kinds)
        self.stack: list[int] = []
        self.counts = {k: [0] for _, _, k in COUNTS}
        self.errors = defaultdict(int)
        self.session_id = -1
        self.enabled = False
        self.missing: list[str] = []

    # -- installation ---------------------------------------------------------

    def install(self, error_type) -> None:
        mods = {n: sys.modules[f"paramjet.{n}"] for n in {m for m, _, _ in SPANS + COUNTS}}
        for mod_name, attr, kind in SPANS:
            owner, name = _resolve(mods[mod_name], attr)
            if owner is None:
                self.missing.append(kind)
                continue
            orig = getattr(owner, name)
            wrapper = self._span_wrapper(kind, orig, error_type)
            if owner is mods[mod_name]:
                _rebind_everywhere(orig, wrapper)
            else:
                setattr(owner, name, wrapper)
        for mod_name, attr, kind in COUNTS:
            owner, name = _resolve(mods[mod_name], attr)
            if owner is None:
                self.missing.append(kind)
                continue
            setattr(owner, name, _count_wrapper(owner.__dict__[name], self.counts[kind]))

    def _span_wrapper(self, kind: str, fn, error_type):
        k = self.kind_id[kind]
        layer = kind.split(".", 1)[0]
        open_kinds, stack = self.open_kinds, self.stack
        start, end, kinds, parent, session = (
            self.start, self.end, self.kind, self.parent, self.session)
        notes, errors, clock = self.notes, self.errors, time.perf_counter
        annotate = _ANNOTATE.get(kind)
        tracer = self

        def wrapper(*args, **kwargs):
            if open_kinds[k] or not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            kinds.append(k)
            session.append(tracer.session_id)
            end.append(0.0)
            stack.append(idx)
            open_kinds[k] = 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except error_type:
                errors[layer] += 1
                raise
            finally:
                end[idx] = clock()
                open_kinds[k] = 0
                stack.pop()
            if annotate is not None:
                notes[idx] = annotate(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------------

    def aggregate(self) -> dict:
        n = len(self.start)
        kinds = self.kinds
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        children_of_kind: dict[tuple[int, int], int] = defaultdict(int)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                children_of_kind[(p, self.kind[i])] += 1
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            kind = kinds[self.kind[i]]
            calls[kind] += 1
            busy[kind] += dur[i]
            self_s[kind.split(".", 1)[0]] += dur[i] - child[i]
        m: dict[str, float] = {}
        for kind in kinds:
            m[f"{kind}.calls"] = calls[kind]
            m[f"{kind}.s"] = busy[kind]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.errors"] = self.errors[layer]
        for kind, cell in self.counts.items():
            m[f"{kind}.calls"] = cell[0]

        kid = self.kind_id
        parse_ids = {i for i in range(n) if self.kind[i] == kid["cli.parse"]}
        m["cli.parse.derived_calls"] = sum(
            1 for i in range(n)
            if self.parent[i] in parse_ids and kinds[self.kind[i]] in DERIVED_KINDS
        )
        gcd = kid["field.gcd"]
        coprime = [i for i in range(n) if self.kind[i] == gcd and self.notes.get(i)]
        common = [i for i in range(n) if self.kind[i] == gcd and not self.notes.get(i)]
        m["field.gcd.coprime_ratio"] = len(coprime) / max(1, len(coprime) + len(common))
        m["field.gcd.coprime.s"] = sum(dur[i] for i in coprime)
        m["field.gcd.common.s"] = sum(dur[i] for i in common)

        null = kid["linalg.nullspace"]
        horiz = kid["conn.horizontal"]
        for j, key in enumerate(("rows", "cols", "nnz", "nullity")):
            m[f"linalg.nullspace.{key}"] = sum(
                self.notes[i][j] for i in range(n) if self.kind[i] == null)
        m["conn.horizontal.unknowns"] = sum(
            self.notes[i][1] for i in range(n)
            if self.kind[i] == null and self.parent[i] >= 0
            and self.kind[self.parent[i]] == horiz)

        closure = kid["prolong.closure"]
        kept = built = 0
        for i in range(n):
            if self.kind[i] == closure:
                kept += self.notes[i]
                built += sum(children_of_kind[(i, kid[c])] for c in CANDIDATE_KINDS)
        m["prolong.closure.kept_ratio"] = kept / built if built else 0.0
        return m

    def write(self, path) -> None:
        """One JSON line per span: kind, start, end, parent index, session."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kinds": self.kinds, "missing": self.missing}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.kind[i]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.session[i]}]\n"
                )


def _resolve(module, attr: str):
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if parts[-1] not in vars(owner):
        return None, None
    return owner, parts[-1]


def _rebind_everywhere(orig, wrapper) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "paramjet" or name.startswith("paramjet."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)


def _count_wrapper(raw, cell):
    """Count calls of a plain method or a classmethod, nothing more."""
    if isinstance(raw, classmethod):
        fn = raw.__func__

        def counted_cm(cls, *args, **kwargs):
            cell[0] += 1
            return fn(cls, *args, **kwargs)

        return classmethod(counted_cm)

    def counted(*args, **kwargs):
        cell[0] += 1
        return raw(*args, **kwargs)

    return counted


def _nullspace_note(args, result):
    rows, ncols = args[0], args[1]
    nnz = sum(1 for row in rows for v in row if v)
    return (len(rows), ncols, nnz, len(result))


_ANNOTATE = {
    "field.gcd": lambda args, result: result.is_one(),
    "linalg.nullspace": _nullspace_note,
    "prolong.closure": lambda args, result: len(result.items) - 1,
}
