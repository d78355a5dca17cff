import random
from fractions import Fraction

import pytest

from paramjet import linalg
from paramjet.conn import DiffModule, check_integrability, direct_sum
from paramjet.diffstruct import (
    DiffMorphism,
    build_param_structure,
    build_structure,
    coordinate_derivation,
)
from paramjet.field import FieldSpec, MultiPoly, RatFun, parse_ratfun


# --- fields and structures ---------------------------------------------------


@pytest.fixture(scope="session")
def xt():
    spec = FieldSpec(["x", "t"])
    ps = build_param_structure(
        spec,
        [coordinate_derivation(spec, "x")],
        [coordinate_derivation(spec, "t")],
        ["t"],
    )
    return spec, ps


@pytest.fixture(scope="session")
def x12t():
    spec = FieldSpec(["x1", "x2", "t"])
    ps = build_param_structure(
        spec,
        [coordinate_derivation(spec, "x1"), coordinate_derivation(spec, "x2")],
        [coordinate_derivation(spec, "t")],
        ["t"],
    )
    return spec, ps


@pytest.fixture(scope="session")
def p2q2():
    spec = FieldSpec(["x1", "x2", "t1", "t2"])
    ps = build_param_structure(
        spec,
        [coordinate_derivation(spec, "x1"), coordinate_derivation(spec, "x2")],
        [coordinate_derivation(spec, "t1"), coordinate_derivation(spec, "t2")],
        ["t1", "t2"],
    )
    return spec, ps


@pytest.fixture(scope="session")
def example39():
    """The quotient k[x,y,z] -> k[x,y] with the non-coordinate basis
    {dx, dy, z dz} upstairs; returns (source structure, target structure)."""
    src_spec = FieldSpec(["x", "y", "z"])
    z = parse_ratfun(src_spec, "z")
    src = build_structure(
        src_spec,
        [
            coordinate_derivation(src_spec, "x"),
            coordinate_derivation(src_spec, "y"),
            coordinate_derivation(src_spec, "z").scale(z),
        ],
    )
    dst_spec = FieldSpec(["x", "y"])
    dst = build_structure(
        dst_spec,
        [coordinate_derivation(dst_spec, "x"), coordinate_derivation(dst_spec, "y")],
    )
    return src, dst


def morphism39(src, dst, f: str, g: str) -> DiffMorphism:
    spec = dst.base
    r = lambda s: parse_ratfun(spec, s)
    images = {"x": r("x"), "y": r("y"), "z": r("0")}
    omega = [
        [r("1"), r("0"), r(f)],
        [r("0"), r("1"), r(g)],
    ]
    return DiffMorphism(src, dst, images, omega)


def identity_diff_morphism(s) -> DiffMorphism:
    """The identity of a differential structure: every variable to itself,
    the identity on 1-forms."""
    images = {v: RatFun.variable(s.base, v) for v in s.base.variables}
    return DiffMorphism(s, s, images, linalg.identity(s.base, s.dim))


def parameter_sub(m: DiffModule) -> DiffModule:
    """The sub of the prolongation sequence 0 -> M^q -> P(M) -> M -> 0:
    q diagonal copies of M, of rank 0 when q = 0."""
    q = m.ps.parameter_count
    if q == 0:
        return DiffModule(m.ps, 0, tuple([] for _ in m.conn))
    sub = m
    for _ in range(q - 1):
        sub = direct_sum(sub, m)
    return sub


# --- random generators ----------------------------------------------------------


def rand_poly(spec, rng: random.Random, max_deg=2, terms=2, coeff=2) -> MultiPoly:
    items = []
    n = len(spec)
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        items.append((tuple(exps), rng.randint(-coeff, coeff)))
    return MultiPoly.from_terms(spec, items)


def rand_poly_nonzero(spec, rng, **kw) -> MultiPoly:
    while True:
        p = rand_poly(spec, rng, **kw)
        if not p.is_zero():
            return p


def rand_ratfun(spec, rng: random.Random, max_deg=2, terms=2) -> RatFun:
    num = rand_poly(spec, rng, max_deg=max_deg, terms=terms)
    if rng.random() < 0.5:
        den = MultiPoly.one(spec)
    else:
        den = rand_poly_nonzero(spec, rng, max_deg=1, terms=1)
    return RatFun(num, den)


def rand_unipotent(spec, ps, rng: random.Random, rank: int, steps=2, max_deg=2):
    """A product of elementary matrices with small polynomial entries;
    determinant one, so the inverse is polynomial."""
    t = linalg.identity(spec, rank)
    for _ in range(steps):
        a = rng.randrange(rank)
        b = rng.randrange(rank)
        if a == b:
            continue
        e = linalg.identity(spec, rank)
        e[a][b] = RatFun.from_poly(rand_poly(spec, rng, max_deg=max_deg, terms=1, coeff=2))
        t = linalg.mat_mul(t, e)
    return t


def gauge_module(ps, t_matrix) -> DiffModule:
    """The image of the trivial connection under the basis change T:
    A_i = -T^{-1} ∂i(T); always flat."""
    t_inv = linalg.inverse(t_matrix)
    conn = []
    for d in ps.principal:
        dt = linalg.entrywise(d.apply, t_matrix)
        conn.append(linalg.mat_neg(linalg.mat_mul(t_inv, dt)))
    rank = len(t_matrix)
    return DiffModule(ps, rank, tuple(conn))


def rand_gauge_module(spec, ps, rng: random.Random, rank: int) -> DiffModule:
    if rank == 1:
        for _ in range(20):
            u = RatFun.from_poly(
                MultiPoly.one(spec) + rand_poly(spec, rng, max_deg=2, terms=1)
            )
            h = rand_ratfun(spec, rng, max_deg=1, terms=1)
            if u.is_zero():
                continue
            conn = []
            nonzero = False
            for d in ps.principal:
                val = -(d.apply(u) / u) + d.apply(h)
                nonzero = nonzero or not val.is_zero()
                conn.append([[val]])
            if nonzero:
                return DiffModule(ps, 1, tuple(conn))
        raise AssertionError("could not draw a nontrivial rank-1 module")
    for _ in range(20):
        m = gauge_module(ps, rand_unipotent(spec, ps, rng, rank))
        if any(not linalg.is_zero_matrix(a) for a in m.conn):
            return m
    raise AssertionError("could not draw a nontrivial gauge module")


def perturb_module(spec, ps, rng: random.Random, m: DiffModule) -> DiffModule:
    """A curved neighbour of a flat module (retries until curvature shows)."""
    names = list(spec.variables)
    for _ in range(50):
        conn = [[list(row) for row in a] for a in m.conn]
        i = rng.randrange(len(conn))
        r = rng.randrange(m.rank)
        c = rng.randrange(m.rank)
        bump = parse_ratfun(spec, rng.choice(names))
        conn[i][r][c] = conn[i][r][c] + bump
        cand = DiffModule(ps, m.rank, tuple(conn))
        if not check_integrability(cand).flat:
            return cand
    raise AssertionError("could not build a curved perturbation")


# --- oracles -------------------------------------------------------------------


def fraction_gauss_jordan(rows: list[dict], ncols: int) -> list[list[Fraction]]:
    """Reference for ``linalg.fraction_nullspace``: sparse Gauss–Jordan with
    every entry a Fraction, Markowitz pivots, the pivot row scaled to 1
    and back-substitution; the kernel basis read off the reduced form."""

    def axpy(row, a, prow):
        for k, x in prow.items():
            y = row.get(k, 0) + a * x
            if y:
                row[k] = y
            else:
                del row[k]

    mat = [{c: Fraction(v) for c, v in row.items() if v} for row in rows]
    pending = list(range(len(mat)))
    echelon = []
    for c in range(ncols):
        having = [i for i in pending if c in mat[i]]
        if not having:
            continue
        p = min(having, key=lambda i: len(mat[i]))
        prow = mat[p]
        inv = 1 / prow[c]
        for k in prow:
            prow[k] *= inv
        for i in having:
            if i != p:
                axpy(mat[i], -mat[i][c], prow)
        pending.remove(p)
        echelon.append((c, prow))
    for k in range(len(echelon) - 1, 0, -1):
        c, prow = echelon[k]
        for _, row in echelon[:k]:
            f = row.get(c)
            if f is not None:
                axpy(row, -f, prow)
    pivots = {c for c, _ in echelon}
    basis = {f: [Fraction(0)] * ncols for f in range(ncols) if f not in pivots}
    for f, v in basis.items():
        v[f] = Fraction(1)
    for c, row in echelon:
        for f, x in row.items():
            if f != c:
                basis[f][c] = -x
    return list(basis.values())
