import math
import random
from fractions import Fraction

import pytest

from paramjet import linalg
from paramjet.errors import ShapeMismatch
from paramjet.field import FieldSpec, RatFun

from conftest import fraction_gauss_jordan, rand_ratfun


def dense_fraction_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Reference: dense Gauss–Jordan over Q with first-nonzero pivoting."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [inv * x for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for rr, c in enumerate(pivots):
            v[c] = -mat[rr][f]
        basis.append(v)
    return basis


def densify(rows, ncols, entry=lambda x: x):
    return [[entry(row.get(c, Fraction(0))) for c in range(ncols)] for row in rows]


def sparse(dense_rows):
    return [{c: x for c, x in enumerate(row) if x} for row in dense_rows]


def check_against_oracle(rows, ncols):
    got = linalg.fraction_nullspace(rows, ncols)
    assert got == dense_fraction_nullspace(densify(rows, ncols), ncols)
    for v in got:
        for row in rows:
            assert sum(x * v[c] for c, x in row.items()) == 0
    return got


def test_fraction_nullspace_matches_dense_oracle_random():
    rng = random.Random(20260)
    nullities = set()
    for _ in range(400):
        m, n = rng.randint(0, 12), rng.randint(1, 10)
        density = rng.choice((0.15, 0.35, 0.7))
        rows = [
            {
                c: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
                for c in range(n)
                if rng.random() < density
            }
            for _ in range(m)
        ]
        if rows and rng.random() < 0.3:  # dependent rows
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            rows.append(dict(rows[i]))
            mixed = {c: 2 * x for c, x in rows[i].items()}
            for c, x in rows[j].items():
                y = mixed.get(c, 0) - Fraction(1, 3) * x
                if y:
                    mixed[c] = y
                else:
                    mixed.pop(c, None)
            rows.append(mixed)
        nullities.add(len(check_against_oracle(rows, n)))
    assert 0 in nullities and max(nullities) >= 3


def random_system(rng):
    """Sparse rows over Q: small or large entries, empty rows, and rows that
    are multiples or combinations of others."""
    m, n = rng.randint(0, 14), rng.randint(1, 12)
    density = rng.choice((0.15, 0.35, 0.7))
    big = rng.random() < 0.4

    def entry():
        if big:
            return Fraction(rng.randint(-10**30, 10**30) or 1, rng.randint(1, 10**25))
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))

    rows = [{c: entry() for c in range(n) if rng.random() < density} for _ in range(m)]
    for _ in range(rng.randint(0, 3)):
        if rows and rng.random() < 0.5:
            a = entry()
            rows.append({c: a * x for c, x in rng.choice(rows).items()})
        elif len(rows) >= 2:
            (r1, r2), a = rng.sample(rows, 2), entry()
            mixed = dict(r1)
            for c, x in r2.items():
                y = mixed.get(c, 0) + a * x
                if y:
                    mixed[c] = y
                else:
                    mixed.pop(c)
            rows.append(mixed)
        else:
            rows.append({})
    rng.shuffle(rows)
    return rows, n


def test_fraction_nullspace_matches_fraction_gauss_jordan_random():
    """The fraction-free elimination against Gauss–Jordan over Fraction,
    on 300 seeded systems; the input rows come back unmodified."""
    rng = random.Random(20262)
    nullities, empty_rows = set(), 0
    for _ in range(300):
        rows, n = random_system(rng)
        before = [dict(r) for r in rows]
        got = linalg.fraction_nullspace(rows, n)
        assert rows == before
        assert got == fraction_gauss_jordan(rows, n)
        nullities.add(len(got))
        empty_rows += sum(1 for r in rows if not r)
    assert 0 in nullities and max(nullities) >= 4 and empty_rows > 0


def test_fraction_nullspace_takes_integer_rows():
    # 6a - 4b + 2c = 0 and 3b + 9c = 0: b = -3c, a = -7c/3
    rows = [{0: 6, 1: -4, 2: 2}, {1: 3, 2: 9}]
    assert linalg.fraction_nullspace(rows, 3) == [[Fraction(-7, 3), -3, 1]]


@pytest.mark.parametrize(
    "dense_rows, ncols, nullity",
    [
        # nullity > 0: a 2 x 4 system of full row rank
        ([[1, 2, 0, 3], [0, 1, -1, 0]], 4, 2),
        # rank-deficient with duplicate and proportional rows
        ([[1, 1, 0], [1, 1, 0], [2, 2, 0], [0, 0, 5]], 3, 1),
        # column 1 has no entries, so e_1 is in the kernel
        ([[3, 0, 1], [1, 0, 2]], 3, 1),
        # full column rank: trivial kernel
        ([[1, 0], [0, 2], [1, 1]], 2, 0),
        # every row empty
        ([[0, 0], [0, 0]], 2, 2),
    ],
)
def test_fraction_nullspace_cases(dense_rows, ncols, nullity):
    rows = sparse([[Fraction(x) for x in row] for row in dense_rows])
    assert len(check_against_oracle(rows, ncols)) == nullity


def test_fraction_nullspace_no_rows_is_identity():
    assert linalg.fraction_nullspace([], 3) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert linalg.fraction_nullspace([], 0) == []


def test_fraction_nullspace_does_not_modify_rows():
    rows = [{0: Fraction(2), 1: Fraction(4)}, {1: Fraction(1), 2: Fraction(1)}]
    before = [dict(r) for r in rows]
    linalg.fraction_nullspace(rows, 3)
    assert rows == before


def singleton_heavy_system(rng):
    """Sparse rows over Q of which at least a third have one entry, with
    duplicate rows and all-zero rows; some rows are all ints."""
    n = rng.randint(1, 12)

    def row(k):
        cols = rng.sample(range(n), min(k, n))
        if rng.random() < 0.5:
            return {c: rng.choice((-6, -3, -2, -1, 1, 2, 4, 9)) for c in cols}
        return {c: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for c in cols}

    rows = [row(rng.randint(2, 5)) for _ in range(rng.randint(0, 8))]
    rows += [dict(rng.choice(rows)) for _ in range(rng.randint(0, 2)) if rows]
    rows += [{} for _ in range(rng.randint(0, 2))]
    singles = [row(1) for _ in range(1 + len(rows) // 2 + rng.randint(0, 3))]
    rows += singles + [dict(rng.choice(singles)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    assert 3 * sum(len(r) == 1 for r in rows) >= len(rows)
    return rows, n


def test_fraction_nullspace_on_singleton_heavy_systems():
    """Systems where many pivot rows have a single entry, which only
    deletes its column from the other rows: the dense oracle's basis, the
    same basis for the rows in any order, and the input rows unmodified."""
    rng = random.Random(20265)
    nullities = set()
    for _ in range(300):
        rows, n = singleton_heavy_system(rng)
        before = [dict(r) for r in rows]
        got = linalg.fraction_nullspace(rows, n)
        assert rows == before
        assert got == dense_fraction_nullspace(densify(rows, n, Fraction), n)
        shuffled = rng.sample(rows, len(rows))
        assert linalg.fraction_nullspace(shuffled, n) == got
        nullities.add(len(got))
    assert 0 in nullities and max(nullities) >= 4


def eliminate_shuffled(rng, rows, ncols):
    """The kernel basis of rows eliminated under a random column order,
    put back in the canonical form of the given order, and the same basis
    only read in the given order, as the elimination left it."""
    columns = rng.sample(range(ncols), ncols)  # permuted column j is columns[j]
    position = {c: j for j, c in enumerate(columns)}
    shuffled = [{position[c]: x for c, x in row.items()} for row in rows]
    basis = linalg.fraction_nullspace(shuffled, ncols)
    as_left = [[v[position[c]] for c in range(ncols)] for v in basis]
    return linalg.canonical_kernel(basis, columns), as_left


def test_canonical_kernel_undoes_any_column_order():
    """Random sparse systems eliminated under shuffled column orders, then
    put back in canonical form, give the unshuffled basis: the kernel alone
    fixes its reduced echelon form from the right, so the order eliminated
    in does not show.  Nullity 0, all-empty rows, no rows and no columns
    are among the systems."""
    rng = random.Random(20267)
    fixed = [([], 4), ([{}, {}], 3), ([{0: 1}, {1: 2}, {2: -1}], 3), ([], 0), ([{0: 1, 2: 1}], 3)]
    systems = fixed + [(random_system if k % 2 else singleton_heavy_system)(rng) for k in range(400)]
    nullities, all_empty, no_rows, moved = set(), 0, 0, 0
    for k, (rows, n) in enumerate(systems):
        if k % 40 == 10:
            rows = []
        elif k % 40 == 30:
            rows = [{} for _ in rows]
        expected = linalg.fraction_nullspace(rows, n)
        for _ in range(2):
            got, as_left = eliminate_shuffled(rng, rows, n)
            assert got == expected
            moved += as_left != expected
        nullities.add(len(expected))
        no_rows += not rows
        all_empty += bool(rows) and not any(rows)
    # without the canonical step most shuffled bases would differ
    assert moved >= 300
    assert 0 in nullities and max(nullities) >= 6
    assert no_rows >= 10 and all_empty >= 5


def test_canonical_kernel_reorders_a_free_identity():
    """With no rows every column is free.  Eliminated with the columns
    reversed, the basis vector e_j of the permuted columns is e_(2-j) of
    the original ones, and canonical form orders the vectors by their free
    column of the original order."""
    permuted = linalg.fraction_nullspace([], 3)
    assert linalg.canonical_kernel(permuted, [2, 1, 0]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_single_entry_pivots_take_no_gcd(monkeypatch):
    """Every pivot below has one entry when it is reached, so elimination
    does no arithmetic at all: not one gcd."""
    calls = []
    gcd = math.gcd

    def counting(*args):
        calls.append(args)
        return gcd(*args)

    # columns 0-5 each have a single-entry row; 6 and 7 are free
    rows = [{0: 2, 3: 5, 4: -1}, {0: 3}, {1: -4, 2: 6, 5: 10}, {1: 7}, {2: 9, 3: 3},
            {2: -2}, {3: 8}, {4: 3, 5: 12}, {4: 6}, {5: 5}, {0: 4, 5: 2}]
    monkeypatch.setattr(linalg.math, "gcd", counting)
    got = linalg.fraction_nullspace(rows, 8)
    assert calls == []
    monkeypatch.undo()
    assert got == dense_fraction_nullspace(densify(rows, 8, Fraction), 8)
    assert len(got) == 2


# --- Kronecker sum --------------------------------------------------------------


def kron(a, b):
    """Reference: the Kronecker product, every entry a product."""
    return [
        [x * y for x in arow for y in brow]
        for arow in a
        for brow in b
    ]


def kron_sum_oracle(a, b, spec):
    """Reference: A⊗I + I⊗B through two full Kronecker products."""
    return linalg.mat_add(
        kron(a, linalg.identity(spec, len(b))), kron(linalg.identity(spec, len(a)), b)
    )


def test_kron_sum_matches_kron_oracle_random():
    spec = FieldSpec(["x", "t"])
    rng = random.Random(20261)
    sizes = set()
    for _ in range(60):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        sizes.add((m, n))
        a = [[rand_ratfun(spec, rng, max_deg=2, terms=2) for _ in range(m)] for _ in range(m)]
        b = [[rand_ratfun(spec, rng, max_deg=2, terms=2) for _ in range(n)] for _ in range(n)]
        got = linalg.kron_sum(a, b)
        expected = kron_sum_oracle(a, b, spec)
        assert len(got) == m * n and all(len(row) == m * n for row in got)
        assert linalg.mat_eq(got, expected)
        assert [[str(x) for x in row] for row in got] == [[str(x) for x in row] for row in expected]
    assert {(0, 0), (0, 2), (1, 1), (1, 3), (3, 1), (3, 3)} <= sizes


def test_kron_sum_rejects_non_square():
    spec = FieldSpec(["x"])
    one = RatFun.one(spec)
    with pytest.raises(ShapeMismatch):
        linalg.kron_sum([[one, one]], [[one]])


# --- products and block matrices --------------------------------------------------


def sparse_matrix(spec, rng, rows, cols, density=0.5):
    def entry():
        return rand_ratfun(spec, rng) if rng.random() < density else RatFun.zero(spec)

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def mat_mul_oracle(a, b):
    """Reference: the triple loop, every product a[i][s]·b[s][j] summed in
    increasing s, zero factors included."""
    out = []
    for arow in a:
        row = []
        for j in range(len(b[0])):
            acc = arow[0] * b[0][j]
            for s in range(1, len(b)):
                acc = acc + arow[s] * b[s][j]
            row.append(acc)
        out.append(row)
    return out


def test_mat_mul_matches_triple_loop_on_sparse_products():
    spec = FieldSpec(["x", "t"])
    rng = random.Random(20263)
    widths, zero_rows, unreached = set(), 0, 0
    for _ in range(60):
        m, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = sparse_matrix(spec, rng, m, n, density=rng.choice((0.3, 0.6, 1.0)))
        b = sparse_matrix(spec, rng, n, k, density=rng.choice((0.3, 0.6, 1.0)))
        if rng.random() < 0.3:
            a[rng.randrange(m)] = [RatFun.zero(spec)] * n  # a zero row of a
        if rng.random() < 0.3:
            j = rng.randrange(k)
            for row in b:
                row[j] = RatFun.zero(spec)  # a zero column of b
        got = linalg.mat_mul(a, b)
        expected = mat_mul_oracle(a, b)
        assert linalg.shape(got) == (m, k)
        assert linalg.mat_eq(got, expected)
        assert [[str(x) for x in row] for row in got] == [[str(x) for x in row] for row in expected]
        for i in range(m):
            for j in range(k):
                if all(a[i][s].is_zero() or b[s][j].is_zero() for s in range(n)):
                    assert got[i][j] is RatFun.zero(spec)
                    unreached += 1
        widths.add(k)
        zero_rows += any(linalg.is_zero_matrix([row]) for row in a)
    assert {1, 4} <= widths and zero_rows and unreached


def test_mat_mul_tests_each_factor_for_zero_once(monkeypatch):
    """Each a[i][s] is tested once, and row s of b once per nonzero a[i][s]."""
    spec = FieldSpec(["x", "t"])
    rng = random.Random(20264)
    a = sparse_matrix(spec, rng, 4, 5, density=0.5)
    b = sparse_matrix(spec, rng, 5, 3, density=0.5)
    nnz = sum(not x.is_zero() for row in a for x in row)
    calls = []
    is_zero = RatFun.is_zero
    monkeypatch.setattr(RatFun, "is_zero", lambda self: calls.append(self) or is_zero(self))
    linalg.mat_mul(a, b)
    assert 0 < len(calls) <= 4 * 5 + nnz * 3


def test_has_shape_reads_every_row():
    z = RatFun.zero(FieldSpec(["x"]))
    assert linalg.has_shape([], 0, 5) and linalg.has_shape([[], []], 2, 0)
    assert linalg.has_shape([[z, z], [z, z]], 2, 2)
    assert not linalg.has_shape([[z, z], [z]], 2, 2)
    assert not linalg.has_shape([[z, z]], 2, 2)


@pytest.mark.parametrize("op", [linalg.mat_add, linalg.mat_sub, linalg.mat_eq])
def test_ragged_operand_is_a_shape_mismatch(op):
    """The sum, difference and equality read every row's length, not only
    row 0's: a ragged operand on either side is refused."""
    o = RatFun.one(FieldSpec(["x"]))
    square, ragged = [[o, o], [o, o]], [[o, o], [o]]
    for a, b in ((ragged, square), (square, ragged), (ragged, ragged)):
        with pytest.raises(ShapeMismatch):
            op(a, b)
    assert linalg.mat_eq(square, [[o, o], [o, o]]) and not linalg.mat_eq(square, [[o, o]])
    assert linalg.mat_eq([], [])


def test_block_fills_unnamed_blocks_with_the_shared_zero():
    spec = FieldSpec(["x", "t"])
    rng = random.Random(20265)
    z = RatFun.zero(spec)
    a = sparse_matrix(spec, rng, 1, 3, density=1.0)
    c = sparse_matrix(spec, rng, 2, 2, density=1.0)
    got = linalg.block(spec, [1, 2], [2, 3], {(0, 1): a, (1, 0): c})
    assert got == [[z, z] + a[0], c[0] + [z, z, z], c[1] + [z, z, z]]
    assert got[0][0] is z and got[1][4] is z
    empty = linalg.block(spec, [2, 1], [1, 3], {})
    assert linalg.shape(empty) == (3, 4)
    assert all(x is z for row in empty for x in row)
