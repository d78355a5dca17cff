"""Exact linear algebra: dense over a rational function field, sparse over Q.

Matrices over Q(v) are plain lists of lists of ``RatFun``; their routines
are pure and use Gaussian elimination with first-nonzero pivoting in the
given row order, so results are deterministic.  ``fraction_nullspace``
takes sparse rows over Q (``{column: Fraction}``) for the horizontal
solver, eliminates them over Z without fractions, and returns the kernel
basis of the same reduced row echelon form as Gauss–Jordan over Q;
``canonical_kernel`` gives the basis of the unpermuted columns back from
an elimination in another column order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import field
from .errors import ShapeMismatch
from .field import FieldSpec, RatFun, int_content

Matrix = list


def zeros(spec: FieldSpec, rows: int, cols: int) -> Matrix:
    z = RatFun.zero(spec)
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(spec: FieldSpec, n: int) -> Matrix:
    o = RatFun.one(spec)
    z = RatFun.zero(spec)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def has_shape(a: Matrix, rows: int, cols: int) -> bool:
    """Whether a has rows rows of cols entries each; a matrix with no rows
    has every width."""
    return len(a) == rows and all(len(row) == cols for row in a)


def _even_shape(a: Matrix) -> tuple[int, int]:
    """The shape of a, whose rows must all be as long as its first."""
    m, n = shape(a)
    if not has_shape(a, m, n):
        raise ShapeMismatch("ragged matrix")
    return m, n


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if _even_shape(a) != _even_shape(b):
        raise ShapeMismatch("matrix addition shape mismatch")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    if _even_shape(a) != _even_shape(b):
        raise ShapeMismatch("matrix subtraction shape mismatch")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def mat_scale(c: RatFun, a: Matrix) -> Matrix:
    return [[c * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Row by row (Gustavson, ACM TOMS 4, 1978): each nonzero a[i][s] is
    multiplied into the nonzero entries of row s of b, and each entry sums
    its products in increasing s, starting from the shared zero, which is
    where an entry no product reaches stays."""
    m, n = shape(a)
    n2, k = shape(b)
    if n != n2:
        raise ShapeMismatch("matrix product shape mismatch")
    zero = RatFun.zero(a[0][0].spec) if m and k else None
    out = []
    for arow in a:
        acc = [zero] * k
        for x, brow in zip(arow, b):
            if not x.is_zero():
                for j, y in enumerate(brow):
                    if not y.is_zero():
                        acc[j] = x * y if acc[j] is zero else acc[j] + x * y
        out.append(acc)
    return out


def mat_vec(a: Matrix, v: list) -> list:
    return [row_col for [row_col] in mat_mul(a, [[x] for x in v])]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def kron_sum(a: Matrix, b: Matrix) -> Matrix:
    """A⊗I + I⊗B for square A and B, rows and columns ordered row-major
    over (A index, B index).  Entry ((i, k), (j, l)) is a[i][j] where
    k == l plus b[k][l] where i == j, read off without multiplying."""
    m, n = len(a), len(b)
    if shape(a) != (m, m) or shape(b) != (n, n):
        raise ShapeMismatch("Kronecker sum of non-square matrices")
    zero = RatFun.zero(a[0][0].spec) if m and n else None
    out = []
    for i, arow in enumerate(a):
        for k, brow in enumerate(b):
            row = []
            for j, x in enumerate(arow):
                if j == i:
                    row.extend(x + y if l == k else y for l, y in enumerate(brow))
                else:
                    row.extend(x if l == k else zero for l in range(n))
            out.append(row)
    return out


def block(spec: FieldSpec, heights: list[int], widths: list[int], blocks: dict) -> Matrix:
    """The block matrix whose block row i has height heights[i] and block
    column j width widths[j].  ``blocks`` maps (i, j) to the block there and
    names only the nonzero ones; every other block holds the field's shared
    zero RatFun.zero(spec)."""
    z = RatFun.zero(spec)
    out = []
    for i, height in enumerate(heights):
        brow = [blocks.get((i, j)) or [[z] * w] * height for j, w in enumerate(widths)]
        for r in range(height):
            row = []
            for b in brow:
                row.extend(b[r])
            out.append(row)
    return out


def entrywise(fn, a: Matrix) -> Matrix:
    return [[fn(x) for x in row] for row in a]


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def sum_is_zero(terms: list) -> bool:
    """Whether Σ sign·A + Σ sign·A·B is the zero matrix, over the signed
    matrices (sign, A) and products (sign, A, B) of terms, sign 1 or −1,
    of one shape.  Row by row as in ``mat_mul``, each entry's terms are
    grouped by the exponent vectors of their denominators and tested by
    ``field.sum_is_zero``; the first nonzero entry ends the test."""
    values = [field.addends(a, sign) for sign, a, *b in terms if not b]
    products = [(field.addends(a, sign), field.addends(b[0], 1)) for sign, a, *b in terms if b]
    width = shape(terms[0][-1])[1]
    for r in range(len(terms[0][1])):
        groups: list[dict] = [{} for _ in range(width)]
        for a in values:
            for c, n, f in a[r]:
                g = groups[c]
                g[f] = g[f] + n if f in g else n
        for a, b in products:
            for s, n, f in a[r]:
                for c, n2, f2 in b[s]:
                    g, key = groups[c], f + f2
                    g[key] = g[key] + n * n2 if key in g else n * n2
        if not all(map(field.sum_is_zero, groups)):
            return False
    return True


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return _even_shape(a) == _even_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def _eliminate(a: Matrix) -> tuple[Matrix, list[int]]:
    """Row echelon form with first-nonzero pivoting; returns (rows, pivot cols)."""
    rows = list(a)  # rows are replaced, never changed in place
    m, n = shape(rows)
    pivots = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(m):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    _, pivots = _eliminate(a)
    return len(pivots)


def solve_or_residual(a: Matrix, b: list) -> tuple[list, list]:
    """Best-effort solution of a x = b plus the residual b - a x.

    The solution is obtained from the consistent pivot rows with free
    variables zero, so the residual is zero exactly when the system is
    solvable.
    """
    m, n = shape(a)
    aug = [ra + [bv] for ra, bv in zip(a, b)]
    rows, pivots = _eliminate(aug)
    spec = b[0].spec if b else a[0][0].spec
    x = [RatFun.zero(spec) for _ in range(n)]
    for r, c in enumerate(pivots):
        if c < n:
            x[c] = rows[r][n]
    ax = mat_vec(a, x)
    residual = [bv - av for bv, av in zip(b, ax)]
    return x, residual


def inverse(a: Matrix) -> Matrix:
    m, n = shape(a)
    if m != n:
        raise ShapeMismatch("only square matrices invert")
    spec = a[0][0].spec
    aug = [ra + ri for ra, ri in zip(a, identity(spec, n))]
    rows, pivots = _eliminate(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in rows]


# --- rational (constant) elimination for the horizontal solver ---------------


def fraction_nullspace(rows: list[dict[int, Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the kernel of a sparse matrix over Q.

    Each row maps a column to its nonzero entry, a ``Fraction`` or an
    ``int``.  Each row is cleared of denominators once, into a copy, and
    eliminated over Z, fraction-free in the style of Bareiss (Math. Comp.
    22, 1968) but with content divisions in place of his exact divisions:
    row <- (p/g)·row - (r/g)·pivot_row with g = gcd(p, r), and a row so
    scaled (p/g ≠ 1) is divided by the gcd of its entries; a pivot row with
    a single entry only deletes its column from the other rows.  For each
    column in increasing order the pivot is the pending row with the fewest
    entries that has the column, ties going to the lowest row index
    (Markowitz pivoting); the column is eliminated from the other pending
    rows, and back-substitution the same way leaves each pivot row a
    multiple of its row in the reduced row echelon form.  That form does
    not depend on the pivot order or on how any row is scaled, so the basis
    (one vector per free column f, ascending, with v[f] = 1 and
    v[c] = -R[c][f] for each pivot column c) is the one dense first-nonzero
    pivoting over Q gives.  The column order does change the basis, and
    the cost: fill-in follows it.  To eliminate in another order, permute
    the columns and pass the result to ``canonical_kernel``.
    """
    mat = [_integer_row(row) for row in rows]
    # column -> rows that may hold it; a row joins when fill-in gives it
    # the column, and leaves lazily (checked when the column is reached)
    holders: dict[int, list[int]] = {}
    for i, row in enumerate(mat):
        for c in row:
            holders.setdefault(c, []).append(i)
    pending = [True] * len(mat)
    echelon: list[tuple[int, dict[int, int]]] = []
    for c in range(ncols):
        having = [i for i in set(holders.pop(c, ())) if pending[i] and c in mat[i]]
        if not having:
            continue
        p = min(having, key=lambda i: (len(mat[i]), i))
        prow = mat[p]
        for i in having:
            if i != p:
                for k in _eliminate_int(mat[i], prow, c):
                    holders.setdefault(k, []).append(i)
        pending[p] = False
        echelon.append((c, prow))
    # back-substitution only adds free columns, so the rows that hold a
    # pivot column are known before it starts
    pivots = {c for c, _ in echelon}
    users: dict[int, list[dict[int, int]]] = {}
    for c, row in echelon:
        for k in row:
            if k != c and k in pivots:
                users.setdefault(k, []).append(row)
    for c, prow in reversed(echelon):
        for row in users.get(c, ()):
            _eliminate_int(row, prow, c)
    basis = {f: [Fraction(0)] * ncols for f in range(ncols) if f not in pivots}
    for f, v in basis.items():
        v[f] = Fraction(1)
    for c, row in echelon:
        pv = row[c]
        for f, x in row.items():
            if f != c:
                basis[f][c] = Fraction(-x, pv)
    return list(basis.values())


def canonical_kernel(basis: list[list[Fraction]], columns: list[int]) -> list[list[Fraction]]:
    """The basis ``fraction_nullspace`` returns for a matrix, from the basis
    it returned for the same matrix with its columns permuted: column j of
    the permuted matrix is column columns[j] of the original.

    The kernel alone fixes the result, whatever order it was eliminated in.
    A row of the reduced row echelon form has no entry left of its pivot,
    so the basis vector of free column f is 1 at f, 0 at every other free
    column and 0 right of f: the basis is the kernel's reduced echelon form
    taken from the right, whose pivots, the last nonzero positions, are
    the free columns.  That form is unique for the subspace, like any
    reduced echelon form.  So the vectors, read in the original columns,
    are reduced against each other from the right: each is cleared at the
    pivots found so far, scaled to 1 at its last nonzero position and
    cleared from the vectors found before it.  The vectors are kept sparse,
    so a kernel of sparse vectors costs little beyond reading the
    nullity × ncols entries in and writing them out."""
    echelon: dict[int, dict[int, Fraction]] = {}
    for v in basis:
        row = {columns[j]: x for j, x in enumerate(v) if x}
        for c in [c for c in row if c in echelon]:
            _axpy(row, -row[c], echelon[c])
        p = max(row)
        lead = row[p]
        if lead != 1:
            row = {k: x / lead for k, x in row.items()}
        for other in echelon.values():
            if p in other:
                _axpy(other, -other[p], row)
        echelon[p] = row
    zero = Fraction(0)
    out = []
    for p in sorted(echelon):
        v = [zero] * len(columns)
        for k, x in echelon[p].items():
            v[k] = x
        out.append(v)
    return out


def _axpy(row: dict[int, Fraction], a: Fraction, prow: dict[int, Fraction]) -> None:
    """row <- row + a·prow in place, entries that cancel dropped."""
    for k, x in prow.items():
        y = row.get(k, 0) + a * x
        if y:
            row[k] = y
        else:
            del row[k]


def _integer_row(row: dict[int, Fraction]) -> dict[int, int]:
    """An integer multiple of a row over Q, zero entries dropped: a row of
    nonzero ints is copied as it is, any other is multiplied by the lcm of
    its denominators.  The row need not be primitive: the basis is read off
    as the ratios R[c][f]/R[c][c] of the reduced rows, which no row scaling
    moves, and elimination divides out the content of every row it scales."""
    if all(type(x) is int and x for x in row.values()):
        return dict(row)
    den = 1
    for x in row.values():
        den = math.lcm(den, x.denominator)
    return {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}


def _eliminate_int(row: dict[int, int], prow: dict[int, int], c: int) -> list[int]:
    """row <- (p/g)·row - (r/g)·prow in place, for p = prow[c], r = row[c]
    and g = gcd(p, r); entries that cancel are dropped, column c among them.
    A row scaled by p/g ≠ 1 is then divided by the gcd of its entries,
    which keeps scaling from compounding; an unscaled row only had a
    multiple of prow taken off and skips that pass.  A single-entry pivot
    row only deletes column c: that is the formula's result divided by
    p/g, the zero fill-in case of Markowitz (Management Science 3, 1957),
    done with no arithmetic.  Returns the columns the row gained."""
    if len(prow) == 1:
        del row[c]
        return []
    p, r = prow[c], row[c]
    g = math.gcd(p, r)
    a, b = p // g, r // g
    if a != 1:
        for k in row:
            row[k] *= a
    gained = []
    for k, x in prow.items():
        y = row.get(k)
        if y is None:
            row[k] = -b * x
            gained.append(k)
        else:
            y -= b * x
            if y:
                row[k] = y
            else:
                del row[k]
    if a != 1:
        g = int_content(row.values())
        if g > 1:
            for k in row:
                row[k] //= g
    return gained
