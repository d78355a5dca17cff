"""Seeded session generators for the three benchmark workloads.

Each generator returns a list of ``Session`` objects.  ``text`` is plain
``.session`` text, the only thing the engine ever sees; ``flags`` are the
``paramjet run`` flags the session runs with; ``answers`` holds, per
command, the verdict known by construction (and, for ``horizontal``, the
expected nullity and the terminating 2F1 solution), and ``expected_exit``
is the exit code the CLI must return.

The same (workload, seed, index) always yields the same session.  The
generators do their own small exact polynomial arithmetic, so they share
no code with the engine they feed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("hypergeom-horizontal", "gauge-closure", "ratfun-jet")


@dataclass
class Session:
    name: str
    text: str
    flags: list[str]
    answers: list[dict]
    expected_exit: int
    fixture: bool = False


# --- a tiny exact polynomial type for building connection matrices --------------


class Poly:
    """Sparse polynomial over Q: {exponent tuple: Fraction}."""

    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, names, c) -> "Poly":
        return cls(names, {(0,) * len(names): Fraction(c)})

    @classmethod
    def var(cls, names, name) -> "Poly":
        e = tuple(1 if n == name else 0 for n in names)
        return cls(names, {e: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.names, out)

    def __neg__(self) -> "Poly":
        return Poly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.names, out)

    def diff(self, name: str) -> "Poly":
        i = self.names.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[e2] = c * e[i]
        return Poly(self.names, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                n if k == 1 else f"{n}^{k}" for n, k in zip(self.names, e) if k
            )
            coeff = f"({c})" if c.denominator != 1 else str(c.numerator)
            if not mono:
                parts.append(coeff)
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        return "(" + " + ".join(parts) + ")"


def _identity(names, n):
    return [[Poly.const(names, int(i == j)) for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    names = a[0][0].names
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = Poly(names)
            for k, x in enumerate(row):
                if not x.is_zero() and not b[k][j].is_zero():
                    acc = acc + x * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def _rand_poly(rng, names, max_deg, terms, coeff=3) -> Poly:
    out = Poly(names)
    while out.is_zero():
        for _ in range(terms):
            e = [0] * len(names)
            for _ in range(rng.randint(1, max_deg)):
                e[rng.randrange(len(names))] += 1
            c = rng.choice([k for k in range(-coeff, coeff + 1) if k])
            out = out + Poly(names, {tuple(e): Fraction(c)})
    return out


def unipotent_gauge(rng, names, principal, rank, steps, max_deg, terms):
    """U = product of elementary matrices with polynomial entries; returns
    (U^-1, [dU/dv for v in principal]).  det U = 1, so U^-1 is
    polynomial and the gauge connection A_v = -U^-1 dU/dv is polynomial
    and flat."""
    u = _identity(names, rank)
    u_inv = _identity(names, rank)
    pairs = [(a, b) for a in range(rank) for b in range(rank) if a != b]
    for _ in range(steps):
        a, b = rng.choice(pairs)
        p = _rand_poly(rng, names, max_deg, terms)
        e = _identity(names, rank)
        e[a][b] = p
        e_inv = _identity(names, rank)
        e_inv[a][b] = -p
        u = _mat_mul(u, e)
        u_inv = _mat_mul(e_inv, u_inv)
    du = [[[x.diff(v) for x in row] for row in u] for v in principal]
    return u_inv, du


def _module_block(name, rank, matrices, over=None) -> str:
    head = f"module {name} over {over} rank {rank}" if over else f"module {name} rank {rank}"
    lines = [head]
    for dname, rows in matrices:
        lines.append(f"  matrix {dname}")
        for row in rows:
            lines.append("    " + ", ".join(row))
        lines.append("  end")
    lines.append("end")
    return "\n".join(lines)


def _frac(rng, dens=(2, 3, 5, 7), hi=3) -> Fraction:
    """A non-integer rational p/q with q drawn from ``dens``, 0 < |p/q| < hi."""
    while True:
        q = rng.choice(dens)
        p = rng.randint(1, hi * q - 1)
        f = Fraction(p, q)
        if f.denominator != 1:
            return f if rng.random() < 0.7 else -f


def _s(f: Fraction) -> str:
    return f"({f.numerator}/{f.denominator})" if f.denominator != 1 else f"({f.numerator})"


# --- hypergeom-horizontal --------------------------------------------------------
#
# Gauss hypergeometric equation x(1-x)y'' + (c-(a+b+1)x)y' - ab y = 0 as the
# rank-2 system v' = A v for v = (y, y').  With D = x(x-1) and degree bound 3
# the solver's ansatz is N/D^3 with deg N <= 9 in (x, t).  For a = -n the
# polynomial F = 2F1(-n, b; c; x) and its multiples F*t^k (deg 6+deg F+k <= 9)
# are the only rational solutions when c, c-b are not integers; when none of
# a, b, c, c-a, c-b is an integer there is no rational solution at all.


def _hyp_module(a: str, b: str, c: str) -> list[list[str]]:
    return [
        ["0", "1"],
        [f"{a}*{b}/(x*(1-x))", f"(({a}+{b}+1)*x-{c})/(x*(1-x))"],
    ]


def _terminating(n: int, b, c):
    """F = sum_k (-n)_k (b)_k / ((c)_k k!) x^k as a sympy-ready string."""
    terms = []
    coeff = "1"
    for k in range(n + 1):
        terms.append(f"({coeff})*x**{k}")
        coeff = f"({coeff})*({-n + k})*({b}+{k})/(({c}+{k})*{k + 1})"
    return " + ".join(terms)


def _hyp_system(rng, terminating: bool):
    """(matrix rows, expected nullity, terminating solution or None).

    The denominators are fixed per parameter (a: 7, b: 3, c: 5), so c - a
    and c - b are never integers and every system has numbers of about one
    size; only the numerators come from the seed."""
    beta, gamma = _frac(rng, dens=(3,)), _frac(rng, dens=(5,))
    if terminating:  # a = -n: F and F*t^k for k <= 3 - n; nullity 4 - n
        n = rng.choice((1, 2, 3))
        return (_hyp_module(f"(-{n})", _s(beta), _s(gamma)), 4 - n,
                _terminating(n, _s(beta), _s(gamma)))
    a = _frac(rng, dens=(7,))  # generic: nullity 0
    return _hyp_module(_s(a), _s(beta), _s(gamma)), 0, None


def gen_hypergeom(seed: int, count: int) -> list[Session]:
    """One system per session, terminating and generic in turn.

    Each session has four cheap commands of 1-3 ms around one ``horizontal``
    of about 0.6 s, so the run holds enough commands for a p90 with ten
    samples beyond it while the nullspace keeps over 90 % of the time.
    Parameters a, b, c are rationals: a t in them (b = t + beta) makes a
    system 3-4x dearer, and so few fit in a run that its medians stop being
    steady; t still enters through the ansatz, whose monomials run over
    (x, t), so the solution space is spanned by F*t^k."""
    out = []
    for idx in range(count):
        rng = random.Random(seed * 1_000_003 + idx)
        rows, nullity, sol = _hyp_system(rng, idx % 2 == 0)
        lines = [
            "# a Gauss hypergeometric system over Q(x, t)",
            "field x t",
            "",
            "structure",
            "  principal dx = 1, 0",
            "  parameter dt = 0, 1",
            "  constants t",
            "end",
            "",
            _module_block("H", 2, [("dx", rows)]),
            "",
            "command check-integrability H",
            "command at2 H",
            "command baer-check H H",
            "command closure H",
            "command horizontal H",
        ]
        horizontal = {"verdict": "ok", "nullity": nullity, "matrix": rows, "solution": sol}
        answers = [{"verdict": "flat"}, {"verdict": "ok"}, {"verdict": "ok"},
                   {"verdict": "ok"}, horizontal]
        text = "\n".join(lines) + "\n"
        out.append(Session(f"hyp{idx}", text,
                           ["--degree-bound", "3", "--depth", "1", "--rank-cap", "2"],
                           answers, 0))
    return out


# --- gauge-closure ------------------------------------------------------------------
#
# Rank-3 unipotent gauge modules over Q(x1, x2, t1, t2): every entry is a
# polynomial, so no command ever needs a gcd or a nullspace.


GAUGE_VARS = ("x1", "x2", "t1", "t2")


def _gauge_rows(u_inv, du_v):
    a = _mat_mul(u_inv, du_v)
    return [[str(-x) for x in row] for row in a]


def gen_gauge(seed: int, count: int) -> list[Session]:
    out = []
    for idx in range(count):
        rng = random.Random(seed * 1_000_003 + idx)
        lines = [
            "# rank-3 unipotent gauge modules over Q(x1, x2, t1, t2)",
            "field x1 x2 t1 t2",
            "",
            "structure",
            "  principal dx1 = 1, 0, 0, 0",
            "  principal dx2 = 0, 1, 0, 0",
            "  parameter dt1 = 0, 0, 1, 0",
            "  parameter dt2 = 0, 0, 0, 1",
            "  constants t1 t2",
            "end",
            "",
        ]
        for name in ("G", "K"):
            u_inv, du = unipotent_gauge(rng, GAUGE_VARS, ("x1", "x2"), 3,
                                           steps=3, max_deg=2, terms=2)
            lines.append(_module_block(
                name, 3, [("dx1", _gauge_rows(u_inv, du[0])),
                          ("dx2", _gauge_rows(u_inv, du[1]))]))
            lines.append("")
        cmds = [
            ("command check-integrability G", "flat"),
            ("command check-integrability K", "flat"),
            ("command tensor GK = G K", "ok"),
            ("command tensor KG = K G", "ok"),
            ("command dual GD = G", "ok"),
            ("command hom HGK = G K", "ok"),
            ("command hom HKG = K G", "ok"),
            ("command prolong PG = G", "ok"),
            ("command prolong PK = K", "ok"),
            ("command at2 SG = G", "ok"),
            ("command check-integrability GK", "flat"),
            ("command baer-check G K", "ok"),
            ("command closure G", "ok"),
            ("command closure K", "ok"),
        ]
        text = "\n".join(lines + [c for c, _ in cmds]) + "\n"
        answers = [{"verdict": v} for _, v in cmds]
        out.append(Session(f"gauge{idx}", text,
                           ["--depth", "1", "--rank-cap", "6"], answers, 0))
    return out


# --- ratfun-jet -----------------------------------------------------------------------
#
# Rational entries everywhere: the (x+t)^a/(x-t)^b ladder through jet-eval
# and constants-check, rational (non-unipotent) gauge modules over
# Q(x1, x2, t), a ring morphism ring3 -> plane whose integrability is known
# from how its form column was built, and curved modules.


RAT_VARS = ("x1", "x2", "t")


def _rational_gauge(rng, curved: bool):
    """A = -U^-1 L U - U^-1 dU with L = diag(dr_k/r_k): the gauge image of
    the trivial connection under T = diag(r_k) U, hence flat; adding x2*I
    to the d1 matrix makes the curvature -I, hence curved.  The r_k are
    linear and U is one elementary step of fixed shape, which keeps every
    gcd below the cliff and the cost alike from session to session."""
    names = RAT_VARS
    x1, x2, t = (Poly.var(names, v) for v in names)

    def k(n=2):
        return Poly.const(names, rng.choice([c for c in range(-n, n + 1) if c]))

    p = k() * x1 + k() * x2 + k() * t
    u = [[Poly.const(names, 1), p], [Poly(names), Poly.const(names, 1)]]
    u_inv = [[Poly.const(names, 1), -p], [Poly(names), Poly.const(names, 1)]]
    du = [[[x.diff(v) for x in row] for row in u] for v in ("x1", "x2")]
    # t in p only: a t in the r_k as well pushes at2 over the cliff
    rs = [x1 + k() * x2 + k(3) for _ in range(2)]
    mats = []
    for v_i, v in enumerate(("x1", "x2")):
        base = _mat_mul(u_inv, du[v_i])
        rows = []
        for i in range(2):
            row = []
            for j in range(2):
                parts = [str(-base[i][j])]
                for m in range(2):
                    w = u_inv[i][m] * u[m][j]
                    dr = rs[m].diff(v)
                    if not w.is_zero() and not dr.is_zero():
                        parts.append(f"-{w}*{dr}/{rs[m]}")
                if curved and v == "x1" and i == j:
                    parts.append("x2")
                row.append(" + ".join(parts))
            rows.append(row)
        mats.append((f"d{v_i + 1}", rows))
    return mats


def _closed_form(rng):
    """(f, g) = grad h for h = p/q in x, y with q linear: a closed 1-form."""
    names = ("x", "y")
    p = _rand_poly(rng, names, 2, 2)
    q = Poly.const(names, rng.randint(1, 3)) + _rand_poly(rng, names, 1, 1)
    f = f"({p.diff('x')}*{q} - {p}*{q.diff('x')})/({q}^2)"
    g = f"({p.diff('y')}*{q} - {p}*{q.diff('y')})/({q}^2)"
    return f, g


def gen_ratfun(seed: int, count: int) -> list[Session]:
    out = []
    for idx in range(count):
        rng = random.Random(seed * 1_000_003 + idx)
        # rungs below the cliff, all of about one cost, so that every
        # session costs about the same; the second jet operand stays c*x
        # because one more variable in it (x^2+t, x+2*t) costs 10-100x
        jet_rungs = [(a, 7) for a in (8, 9, 10)]
        check_rungs = [(8, 7), (9, 7), (10, 7), (11, 7), (9, 6)]
        rng.shuffle(jet_rungs)
        rng.shuffle(check_rungs)
        tconst = f"t^{rng.randint(2, 4)}/(t+{rng.randint(1, 5)})^{rng.randint(1, 3)}"
        phi_ok = idx % 2 == 0
        f, g = _closed_form(rng)
        if not phi_ok:
            f = f"{f} + y"
        c = [_s(_frac(rng)) for _ in range(3)]
        lines = [
            "# rational-entry workload: jet ladder, rational gauge modules,",
            "# a ring morphism and curved modules",
            "field x t",
            "",
            "structure",
            "  principal dx = 1, 0",
            "  parameter dt = 0, 1",
            "  constants t",
            "end",
            "",
            "structure g3",
            "  field x1 x2 t",
            "  principal d1 = 1, 0, 0",
            "  principal d2 = 0, 1, 0",
            "  parameter dt = 0, 0, 1",
            "  constants t",
            "end",
            "",
            "structure plane",
            "  field x y",
            "  principal dx = 1, 0",
            "  principal dy = 0, 1",
            "  constants",
            "end",
            "",
            "structure ring3",
            "  field x y z",
            "  principal d1 = 1, 0, 0",
            "  principal d2 = 0, 1, 0",
            "  principal d3 = 0, 0, z",
            "  constants",
            "end",
            "",
            "ringmorphism phi : ring3 -> plane",
            "  image x = x",
            "  image y = y",
            "  image z = 0",
            "  omega",
            f"    1, 0, {f}",
            f"    0, 1, {g}",
            "  end",
            "end",
            "",
            _module_block("E", 1, [("d1", [[c[0]]]), ("d2", [[c[1]]]), ("d3", [[c[2]]])],
                          over="ring3"),
            "",
            _module_block("R", 2, _rational_gauge(rng, curved=False), over="g3"),
            "",
            _module_block("C", 2, _rational_gauge(rng, curved=True), over="g3"),
            "",
        ]
        cmds = [
            *((f"command jet-eval (x+t)^{a}/(x-t)^{b} {_s(_frac(rng, dens=(2, 3)))}*x", "ok")
              for a, b in jet_rungs),
            *((f"command constants-check (x+t)^{a}/(x-t)^{b}", "false")
              for a, b in check_rungs),
            (f"command constants-check {tconst}", "true"),
            ("command check-integrability R", "flat"),
            ("command prolong LR = R", "ok"),
            ("command at2 R", "ok"),
            ("command baer-check R R", "ok"),
            ("command check-morphism phi", "ok" if phi_ok else "integrability-fail"),
            ("command extend-scalars EP = phi E", "ok"),
            ("command check-integrability EP", "flat" if phi_ok else "curved"),
            ("command check-integrability C", "curved"),
        ]
        text = "\n".join(lines + [c for c, _ in cmds]) + "\n"
        answers = [{"verdict": v} for _, v in cmds]
        out.append(Session(f"ratfun{idx}", text,
                           ["--degree-bound", "1", "--depth", "1", "--rank-cap", "4"],
                           answers, 4))
    return out


# --- fixtures ---------------------------------------------------------------------------
#
# The repository's fixture sessions ride along in ratfun-jet as anchors; their
# verdicts are known from the sessions' own comments and the README.

FIXTURE_ANSWERS = {
    "calculus": (0, ["ok", "ok", "ok", "flat", "ok", "ok", "ok", "ok", "ok", "ok",
                     "ok", "ok", "true"]),
    "malformed": (2, []),
    "ring_morphism_fail": (4, ["integrability-fail", "ok", "curved"]),
    "ring_morphism_ok": (0, ["ok", "ok", "flat"]),
    "xt_prolong": (0, ["ok", "flat", "ok", "flat", "ok", "true"]),
}


def fixture_sessions(fixture_dir) -> list[Session]:
    out = []
    for name, (code, verdicts) in sorted(FIXTURE_ANSWERS.items()):
        path = fixture_dir / f"{name}.session"
        text = path.read_text(encoding="utf-8")
        out.append(Session(
            f"fixture-{name}", text,
            ["--degree-bound", "1", "--depth", "1", "--rank-cap", "4"],
            [{"verdict": v} for v in verdicts], code, fixture=True,
        ))
    return out


GENERATORS = {
    "hypergeom-horizontal": gen_hypergeom,
    "gauge-closure": gen_gauge,
    "ratfun-jet": gen_ratfun,
}
