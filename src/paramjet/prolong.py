"""The prolongation functor on modules and morphisms, its second-order
refinement via the slot-swap involution, Baer sums of block extensions,
tensor compatibility, and closure generation.

Block layout of a prolonged module of parent rank m with q parameters:
basis (horizontal-lift block of size m, then one block of size m per
parameter direction), so every principal connection matrix is block lower
triangular with 1 + q diagonal copies of the parent matrix and the
parameter-derivative blocks in the first block column.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .conn import (
    DiffModule,
    ModMorphism,
    direct_sum,
    dual,
    inherit_flat,
    morphism_check,
    require_flat,
    require_same_structure,
    tensor,
)
from .diffstruct import Derivation, ParamStructure
from .errors import MorphismInvalid, ShapeMismatch

Matrix = list


class ProlongedModule(NamedTuple):
    core: DiffModule
    incl: Matrix  # 0/1, core.rank x rank·q: the parameter blocks (q copies of the parent)
    proj: Matrix  # 0/1, rank x core.rank: the quotient onto the first block


def prolong_block(a: Matrix, parameter_derivation: Derivation) -> Matrix:
    """B = −∂t(A), the first-column block of the prolonged connection.  The
    bracket term −A_[∂,∂t] of the general formula vanishes, because
    build_param_structure accepts commuting bases only."""
    return linalg.mat_neg(linalg.entrywise(parameter_derivation.apply, a))


def _prolong_blocks(ps: ParamStructure, a: Matrix) -> dict:
    """The nonzero blocks of the prolongation of a connection matrix, or of
    a (rectangular) morphism matrix, A: A at (d, d) for d = 0..q and
    −∂t_j(A) at (j, 0), parameters numbered from 1."""
    blocks = {(d, d): a for d in range(1 + ps.parameter_count)}
    for j, t in enumerate(ps.parameter, 1):
        blocks[j, 0] = prolong_block(a, t)
    return blocks


def _prolong_matrix(ps: ParamStructure, a: Matrix) -> Matrix:
    """The block lower-triangular matrix of _prolong_blocks."""
    rows, cols = linalg.shape(a)
    width = 1 + ps.parameter_count
    return linalg.block(ps.base, [rows] * width, [cols] * width, _prolong_blocks(ps, a))


def _prolonged_core(m: DiffModule) -> DiffModule:
    """The module of prolong_module, without its inclusion and projection.

    Flat, since M must be: the curvature of the prolonged connection has
    F on its diagonal blocks and −∂t(F) in block (t, 0), because ∂t
    commutes with ∂i and ∂j, and F = 0."""
    require_flat(m)
    ps = m.ps
    big = m.rank * (1 + ps.parameter_count)
    core = DiffModule(ps, big, tuple(_prolong_matrix(ps, a) for a in m.conn))
    core.flat = True
    return core


def prolong_module(m: DiffModule) -> ProlongedModule:
    """One prolongation step: adjoin the parameter-derivatives of
    solutions.  Refused on curved input, which is not a module over the
    principal directions in the first place."""
    core = _prolonged_core(m)
    ident = linalg.identity(m.spec, core.rank)
    return ProlongedModule(core, [row[m.rank :] for row in ident], ident[: m.rank])


def prolong_morphism(t: ModMorphism) -> ModMorphism:
    """Prolong a module morphism: diagonal copies of T with −∂t(T) blocks
    in the first block column; functorial in T."""
    verdict = morphism_check(t.matrix, t.src, t.dst)
    if not verdict.ok:
        raise MorphismInvalid("matrix does not intertwine the connections")
    big = _prolong_matrix(t.src.ps, t.matrix)
    return ModMorphism(_prolonged_core(t.src), _prolonged_core(t.dst), big)


# --- second prolongation -----------------------------------------------------------


class SecondProlongation(NamedTuple):
    """The swap-invariant part of the twice-prolonged module."""

    invariant: DiffModule
    double_rank: int  # rank of the twice-prolonged module, rank * (1 + q)^2
    incl: Matrix  # 0/1, double_rank x invariant.rank: the invariant basis


def at2_module(m: DiffModule) -> SecondProlongation:
    """The double prolongation, flat index (outer block, inner block, module
    index), restricted to the swap-invariant blocks e(a,b) + e(b,a), a <= b,
    built from its formula.  The pairs (0, c) are the blocks c of the
    prolongation and hold its blocks.  With B_b = prolong_block(A, t_b),
    parameters numbered from 1, block row (a, b) for 1 <= a <= b holds A on
    the diagonal, prolong_block(B_b, t_a) in column (0, 0), B_b in column
    (0, a) and B_a in column (0, b), the two added when a = b.

    The invariant module is flat, since M must be: the double prolongation
    of a flat module is flat (``_prolonged_core``, twice), the invariant
    part is a submodule, so incl·F_inv = F_double·incl = 0, and the 0/1
    ``incl`` is injective.
    """
    require_flat(m)
    ps = m.ps
    rank = m.rank
    width = 1 + ps.parameter_count
    pairs = [(a, b) for a in range(width) for b in range(a, width)]  # (0, c) is block c
    sizes = [rank] * len(pairs)
    conn = []
    for a_mat in m.conn:
        blocks = _prolong_blocks(ps, a_mat)
        for k, (pa, pb) in enumerate(pairs[width:], width):
            b_a, b_b = blocks[pa, 0], blocks[pb, 0]
            blocks[k, k] = a_mat
            blocks[k, 0] = prolong_block(b_b, ps.parameter[pa - 1])
            blocks[k, pa] = b_b
            blocks[k, pb] = b_a if pa < pb else linalg.mat_add(b_b, b_a)
        conn.append(linalg.block(ps.base, sizes, sizes, blocks))
    invariant = DiffModule(ps, rank * len(pairs), tuple(conn))
    invariant.flat = True
    ident = linalg.identity(m.spec, rank)
    places = [(i, k) for k, (a, b) in enumerate(pairs) for i in (a * width + b, b * width + a)]
    incl = linalg.block(m.spec, [rank] * width * width, sizes, dict.fromkeys(places, ident))
    return SecondProlongation(invariant, rank * width * width, incl)


# --- Baer sums of block extensions ---------------------------------------------------


class BlockExtension(NamedTuple):
    """An extension of a quotient by a sub in split-compatible block shape:
    connection matrices [[A_quot, 0], [X, A_sub]]."""

    ps: ParamStructure
    quot: DiffModule
    sub: DiffModule
    off: tuple  # per principal index, sub.rank x quot.rank

    def negate(self) -> "BlockExtension":
        return BlockExtension(
            self.ps, self.quot, self.sub, tuple(linalg.mat_neg(x) for x in self.off)
        )


def trivial_extension(quot: DiffModule, sub: DiffModule) -> BlockExtension:
    off = tuple(
        linalg.zeros(quot.spec, sub.rank, quot.rank) for _ in range(quot.ps.principal_count)
    )
    return BlockExtension(quot.ps, quot, sub, off)


def extension_of_prolongation(m: DiffModule) -> BlockExtension:
    """The prolongation as an extension of M by q copies of M, built from
    the prolongation's block rows 1..q: their blocks in columns 1..q, the
    q diagonal copies of A, are the sub, and their blocks in column 0, the
    stacked −∂t_j(A), the off block.  The sub is the direct sum of q
    copies of the flat M, so it is flat."""
    require_flat(m)
    sizes = [m.rank] * m.ps.parameter_count
    sub, off = [], []
    for a in m.conn:
        blocks = _prolong_blocks(m.ps, a)
        diagonal = {(i - 1, j - 1): x for (i, j), x in blocks.items() if j}
        first_column = {(i - 1, 0): x for (i, j), x in blocks.items() if i and not j}
        sub.append(linalg.block(m.spec, sizes, sizes, diagonal))
        off.append(linalg.block(m.spec, sizes, [m.rank], first_column))
    sub_module = inherit_flat(DiffModule(m.ps, m.rank * len(sizes), tuple(sub)), m)
    return BlockExtension(m.ps, m, sub_module, tuple(off))


def baer_sum(e1: BlockExtension, e2: BlockExtension) -> BlockExtension:
    """Addition of extensions with the same sub and quotient blocks; for
    split-compatible presentations the general kernel/image construction
    reduces to adding the off-diagonal blocks."""
    if e1.quot != e2.quot or e1.sub != e2.sub:
        raise ShapeMismatch("extensions do not share sub and quotient data")
    off = tuple(linalg.mat_add(x, y) for x, y in zip(e1.off, e2.off))
    return BlockExtension(e1.ps, e1.quot, e1.sub, off)


def check_tensor_compat(m: DiffModule, n: DiffModule) -> bool:
    """Matrix form of the Baer-sum compatibility of prolongation with
    tensor products: every parameter block −∂t_j(A⊗I + I⊗B) of the
    prolonged tensor product is B_j(M)⊗I + I⊗B_j(N)."""
    require_same_structure(m, n)
    require_flat(m)
    require_flat(n)
    for a, b in zip(m.conn, n.conn):
        ab = linalg.kron_sum(a, b)
        for t in m.ps.parameter:
            expected = linalg.kron_sum(prolong_block(a, t), prolong_block(b, t))
            if not linalg.mat_eq(prolong_block(ab, t), expected):
                return False
    return True


# --- closure generation ---------------------------------------------------------------


class ClosureItem(NamedTuple):
    label: str
    module: DiffModule
    prolong_depth: int


class ClosureResult(NamedTuple):
    items: list
    truncated_by_rank: list
    truncated_by_items: bool


MAX_CLOSURE_ITEMS = 32  # the most modules a closure lists, the seed included


def generate_closure(m: DiffModule, depth: int, rank_cap: int) -> ClosureResult:
    """Breadth-first enumeration of modules reachable from the seed by
    duals, prolongations, tensor products and direct sums.

    ``depth`` caps the number of nested prolongations, ``rank_cap`` prunes
    large modules (recorded in ``truncated_by_rank``) before they are built,
    since a candidate's rank follows from its construction, and
    ``MAX_CLOSURE_ITEMS`` bounds the enumeration itself, since the
    reachable set is infinite in general; hitting it sets
    ``truncated_by_items``.  Duplicates are pruned by exact matrix
    equality, and the discovery order is deterministic.
    """
    require_flat(m)
    items: list[ClosureItem] = [ClosureItem("M", m, 0)]
    truncated_rank: list[str] = []
    truncated_items = False
    q = m.ps.parameter_count

    def offer(label: str, rank: int, pdepth: int, build) -> None:
        nonlocal truncated_items
        if truncated_items:
            return
        if rank > rank_cap:
            truncated_rank.append(label)
            return
        module = build()
        if any(item.module == module for item in items):
            return
        if len(items) >= MAX_CLOSURE_ITEMS:
            truncated_items = True
            return
        items.append(ClosureItem(label, module, pdepth))

    i = 0
    while i < len(items) and not truncated_items:
        it = items[i]
        offer(f"dual({it.label})", it.module.rank, it.prolong_depth, lambda: dual(it.module))
        if it.prolong_depth < depth:
            offer(
                f"at1({it.label})",
                it.module.rank * (1 + q),
                it.prolong_depth + 1,
                lambda: _prolonged_core(it.module),
            )
        for other in items[: i + 1]:
            pdepth = max(it.prolong_depth, other.prolong_depth)
            offer(
                f"tensor({it.label},{other.label})",
                it.module.rank * other.module.rank,
                pdepth,
                lambda: tensor(it.module, other.module),
            )
            offer(
                f"sum({it.label},{other.label})",
                it.module.rank + other.module.rank,
                pdepth,
                lambda: direct_sum(it.module, other.module),
            )
        i += 1
    return ClosureResult(items, truncated_rank, truncated_items)
