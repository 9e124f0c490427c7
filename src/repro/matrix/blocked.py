"""Blocked (tiled) matrices: the distributed representation.

A :class:`BlockedMatrix` is an R x C logical matrix cut into a grid of
``block_size`` x ``block_size`` tiles, stored in a dict keyed by grid
coordinates; missing keys are all-zero tiles. This mirrors SystemDS/Spark's
``(MatrixIndexes, MatrixBlock)`` RDDs (the paper inherits 1000x1000 blocks;
we default to a smaller tile so laptop-scale datasets still produce
multi-block grids).

The arithmetic here is *logical* — correct values computed with NumPy/SciPy.
Distribution effects (which worker holds which block, what a multiply
shuffles) are the runtime's business; it consumes the grid structure exposed
here.

Every per-tile loop (construction, ``transpose``, ``matmul``, the
cell-wise ops, ``add_scalar``, ``map_cells``) goes through
:func:`map_blocks`, one serial loop that keeps the tile order, so each
float fold and grid insertion runs in a fixed order. Grids are treated as
immutable once an operation returns, so ``nnz``, ``serialized_bytes()``,
``meta()`` and the transposed grid are computed once and cached; callers
that legitimately edit ``blocks`` afterwards (crash healing) must call
:meth:`BlockedMatrix.invalidate_stats`. ``from_scipy`` tiles a sparse
input in one array pass per row slab, with no per-tile slicing or format
round trip.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np
from scipy import sparse

from ..errors import ExecutionError, ShapeError
from .block import Block
from .meta import MatrixMeta

DEFAULT_BLOCK_SIZE = 512

Item = TypeVar("Item")
Result = TypeVar("Result")


def map_blocks(fn: Callable[[Item], Result],
               items: Iterable[Item]) -> list[Result]:
    """Apply ``fn`` to each independent tile task, in input order.

    ``perfbench`` wraps this module-level name to count calls and tiles,
    so per-tile loops here call it rather than inlining the comprehension.
    """
    return [fn(item) for item in items]


class BlockedMatrix:
    """A matrix partitioned into fixed-size square blocks."""

    def __init__(self, rows: int, cols: int, block_size: int = DEFAULT_BLOCK_SIZE,
                 blocks: dict[tuple[int, int], Block] | None = None,
                 symmetric: bool = False):
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        if block_size <= 0:
            raise ShapeError(f"block size must be positive, got {block_size}")
        self.rows = rows
        self.cols = cols
        self.block_size = block_size
        self.blocks: dict[tuple[int, int], Block] = blocks if blocks is not None else {}
        self._symmetric = symmetric
        # Lazily cached grid statistics (populated on first use; every
        # constructor below finishes mutating ``blocks`` before any read).
        self._nnz: int | None = None
        self._bytes: float | None = None
        self._meta: MatrixMeta | None = None
        # The transposed grid, built on the first transpose(). It holds no
        # reference back to this grid, so dropping either frees it at once.
        self._transpose: BlockedMatrix | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_numpy(cls, array: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE,
                   symmetric: bool = False) -> "BlockedMatrix":
        array = np.atleast_2d(np.asarray(array, dtype=np.float64))
        rows, cols = array.shape
        result = cls(rows, cols, block_size, symmetric=symmetric)
        col_blocks = result.col_blocks

        def build_row(bi: int) -> list[tuple[tuple[int, int], Block]]:
            row: list[tuple[tuple[int, int], Block]] = []
            for bj in range(col_blocks):
                tile = array[bi * block_size:(bi + 1) * block_size,
                             bj * block_size:(bj + 1) * block_size]
                # One scan: the count both skips empty tiles and seeds
                # the block's cached nnz for normalized().
                nnz = int(np.count_nonzero(tile))
                if nnz:
                    row.append(((bi, bj), Block(tile.copy(), nnz).normalized()))
            return row

        for row in map_blocks(build_row, range(result.row_blocks)):
            result.blocks.update(row)
        return result

    @classmethod
    def from_scipy(cls, matrix: sparse.spmatrix, block_size: int = DEFAULT_BLOCK_SIZE,
                   symmetric: bool = False) -> "BlockedMatrix":
        """Tile a SciPy matrix into CSR blocks in one array pass per row slab.

        Each slab's CSR arrays are split by tile with one stable argsort
        of the column-tile ids, so every tile's entries come out in (row,
        column) order, duplicates in stored order: the canonical layout
        a CSC round trip would give, built without one.
        """
        matrix = matrix.tocsr()
        rows, cols = matrix.shape
        result = cls(rows, cols, block_size, symmetric=symmetric)
        col_blocks = result.col_blocks
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        if not matrix.has_sorted_indices:
            # Order each row by column once, keeping duplicates in stored
            # order, so the per-slab split below needs one sort key only.
            entry_rows = np.repeat(np.arange(rows), np.diff(indptr))
            order = np.lexsort((indices, entry_rows))
            indices, data = indices[order], data[order]
        # Radix-sortable tile ids: argsort(kind="stable") is linear on
        # 16-bit keys.
        tile_dtype = np.uint16 if col_blocks <= 1 << 16 else np.int64
        csr = type(matrix)

        def build_row(bi: int) -> list[tuple[tuple[int, int], Block]]:
            top = bi * block_size
            height = min(block_size, rows - top)
            start, stop = indptr[top], indptr[top + height]
            if start == stop:
                return []
            slab_cols = indices[start:stop]
            tile_ids = (slab_cols // block_size).astype(tile_dtype)
            order = np.argsort(tile_ids, kind="stable")
            tile_rows = np.repeat(np.arange(height),
                                  np.diff(indptr[top:top + height + 1]))[order]
            tile_cols = (slab_cols % block_size)[order]
            tile_data = data[start:stop][order]
            bounds = np.zeros(col_blocks + 1, dtype=np.int64)
            np.cumsum(np.bincount(tile_ids, minlength=col_blocks), out=bounds[1:])
            row: list[tuple[tuple[int, int], Block]] = []
            for bj in np.flatnonzero(np.diff(bounds)).tolist():
                lo, hi = bounds[bj], bounds[bj + 1]
                tile_indptr = np.zeros(height + 1, dtype=indices.dtype)
                np.cumsum(np.bincount(tile_rows[lo:hi], minlength=height),
                          out=tile_indptr[1:])
                tile = csr((tile_data[lo:hi], tile_cols[lo:hi], tile_indptr),
                           shape=(height, min(block_size, cols - bj * block_size)))
                tile.has_sorted_indices = True
                row.append(((bi, bj), Block(tile).normalized()))
            return row

        for row in map_blocks(build_row, range(result.row_blocks)):
            result.blocks.update(row)
        return result

    @classmethod
    def from_any(cls, data, block_size: int = DEFAULT_BLOCK_SIZE,
                 symmetric: bool = False) -> "BlockedMatrix":
        if isinstance(data, BlockedMatrix):
            return data
        if sparse.issparse(data):
            return cls.from_scipy(data, block_size, symmetric)
        return cls.from_numpy(np.asarray(data), block_size, symmetric)

    @classmethod
    def scalar(cls, value: float, block_size: int = DEFAULT_BLOCK_SIZE) -> "BlockedMatrix":
        return cls.from_numpy(np.array([[float(value)]]), block_size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def row_blocks(self) -> int:
        return math.ceil(self.rows / self.block_size)

    @property
    def col_blocks(self) -> int:
        return math.ceil(self.cols / self.block_size)

    @property
    def grid(self) -> tuple[int, int]:
        return self.row_blocks, self.col_blocks

    @property
    def num_blocks(self) -> int:
        """Number of grid cells (including implicit zero blocks)."""
        return self.row_blocks * self.col_blocks

    @property
    def symmetric(self) -> bool:
        return self._symmetric

    @symmetric.setter
    def symmetric(self, value: bool) -> None:
        if value != self._symmetric:
            self._symmetric = value
            self._meta = None  # meta() carries the flag
            self._transpose = None  # and so does the transpose's

    @property
    def nnz(self) -> int:
        cached = self._nnz
        if cached is None:
            cached = self._nnz = sum(block.nnz for block in self.blocks.values())
        return cached

    @property
    def sparsity(self) -> float:
        cells = self.rows * self.cols
        return self.nnz / cells if cells else 0.0

    @property
    def is_scalar_like(self) -> bool:
        return self.rows == 1 and self.cols == 1

    def meta(self) -> MatrixMeta:
        """Observed metadata (true sparsity, not an estimate)."""
        cached = self._meta
        if cached is None:
            cached = self._meta = MatrixMeta(self.rows, self.cols, self.sparsity,
                                             symmetric=self._symmetric)
        return cached

    def serialized_bytes(self) -> float:
        """Total wire size over materialized blocks."""
        cached = self._bytes
        if cached is None:
            cached = self._bytes = sum(block.serialized_bytes()
                                       for block in self.blocks.values())
        return cached

    def invalidate_stats(self) -> None:
        """Drop cached ``nnz``/``serialized_bytes``/``meta`` statistics
        and the cached transpose.

        Required only after editing :attr:`blocks` in place — operations
        here never edit a grid they did not just build, so normal use
        never needs it.
        """
        self._nnz = None
        self._bytes = None
        self._meta = None
        self._transpose = None

    def block_dims(self, bi: int, bj: int) -> tuple[int, int]:
        """Dimensions of grid tile (bi, bj), accounting for ragged edges."""
        height = min(self.block_size, self.rows - bi * self.block_size)
        width = min(self.block_size, self.cols - bj * self.block_size)
        return height, width

    def block_at(self, bi: int, bj: int) -> Block | None:
        """The stored block at a grid position, or None if all-zero."""
        return self.blocks.get((bi, bj))

    def iter_blocks(self) -> Iterator[tuple[tuple[int, int], Block]]:
        return iter(self.blocks.items())

    def scalar_value(self) -> float:
        """The single cell of a 1x1 matrix."""
        if not self.is_scalar_like:
            raise ShapeError(f"matrix is {self.rows}x{self.cols}, not scalar")
        block = self.blocks.get((0, 0))
        if block is None:
            return 0.0
        return float(block.to_dense_array()[0, 0])

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        size = self.block_size
        for (bi, bj), block in self.blocks.items():
            h, w = block.shape
            out[bi * size:bi * size + h, bj * size:bj * size + w] = block.to_dense_array()
        return out

    # ------------------------------------------------------------------
    # Logical arithmetic (used by the executor's kernels)
    # ------------------------------------------------------------------
    def copy(self) -> "BlockedMatrix":
        """The same matrix with a grid dict of its own.

        Callers may edit the copy's grid without touching this one; the
        blocks themselves are immutable and shared.
        """
        return BlockedMatrix(self.rows, self.cols, self.block_size,
                             blocks=dict(self.blocks),
                             symmetric=self.symmetric)

    def transpose(self) -> "BlockedMatrix":
        """The transposed grid, built once per grid and then shared.

        Loop-invariant operands (``t(X) %*% ...`` on an input, mmchain's
        ``X``) are transposed on every iteration; the cache makes all but
        the first call free. The result is shared, so callers must not
        edit its ``blocks``: one that needs a grid of its own (a lineage-
        registered kernel output, which crash healing edits in place)
        takes a :meth:`copy`.
        """
        cached = self._transpose
        if cached is None:
            cached = BlockedMatrix(self.cols, self.rows, self.block_size,
                                   symmetric=self.symmetric)
            cached.blocks.update(map_blocks(_transposed_entry,
                                            list(self.blocks.items())))
            self._transpose = cached
        return cached

    def matmul(self, other: "BlockedMatrix") -> "BlockedMatrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"matmul shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.block_size != other.block_size:
            raise ShapeError("matmul requires operands with identical block sizes")
        # A x A of a symmetric A is provably symmetric: (AA)^T = A^T A^T = AA.
        result = BlockedMatrix(self.rows, other.cols, self.block_size,
                               symmetric=self is other and self.symmetric)
        # Group right-operand blocks by their row-block index so we only touch
        # compatible pairs (a sparse-grid join on the inner dimension).
        right_by_row: dict[int, list[tuple[int, Block]]] = {}
        for (bk, bj), block in other.blocks.items():
            right_by_row.setdefault(bk, []).append((bj, block))
        # Per-output-tile contribution lists. Tiles are discovered in
        # first-touch order and each tile's pairs in left-block scan order,
        # which fixes the per-tile partial-sum folds and the result grid's
        # insertion order.
        contributions: dict[tuple[int, int], list[tuple[Block, Block]]] = {}
        for (bi, bk), left_block in self.blocks.items():
            for bj, right_block in right_by_row.get(bk, ()):
                pairs = contributions.get((bi, bj))
                if pairs is None:
                    contributions[(bi, bj)] = pairs = []
                pairs.append((left_block, right_block))
        tiles = map_blocks(_tile_product, list(contributions.values()))
        for key, block in zip(contributions, tiles):
            if block is not None:
                result.blocks[key] = block
        return result

    def _zip(self, other: "BlockedMatrix", op_name: str) -> "BlockedMatrix":
        """Cell-wise combine; see the named wrappers below.

        Implicit (absent) blocks are all-zero tiles. ``multiply`` skips a
        tile when either side is absent (x * 0 == 0); ``divide`` raises
        :class:`~repro.errors.ExecutionError` when the divisor's tile is
        absent and the numerator's is not — materializing the zero tile
        would silently produce ``inf``/``nan`` cells (this matches the
        scalar-divide guard in ``Kernels._scalar_ewise``). A tile absent on
        *both* sides stays absent for every op, including divide: the
        result cell is defined as zero, the sparse-grid shortcut the seed
        semantics always took.
        """
        if self.shape != other.shape:
            raise ShapeError(
                f"cell-wise shape mismatch: {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}")
        result = BlockedMatrix(self.rows, self.cols, self.block_size)
        keys = list(set(self.blocks) | set(other.blocks))
        tasks = [(key, self.blocks.get(key), other.blocks.get(key),
                  self.block_dims(*key), op_name) for key in keys]
        for key, block in zip(keys, map_blocks(_zip_entry, tasks)):
            if block is not None:
                result.blocks[key] = block
        return result

    def add(self, other: "BlockedMatrix") -> "BlockedMatrix":
        return self._zip(other, "add")

    def subtract(self, other: "BlockedMatrix") -> "BlockedMatrix":
        return self._zip(other, "subtract")

    def multiply(self, other: "BlockedMatrix") -> "BlockedMatrix":
        return self._zip(other, "multiply")

    def divide(self, other: "BlockedMatrix") -> "BlockedMatrix":
        return self._zip(other, "divide")

    def scale(self, scalar: float) -> "BlockedMatrix":
        result = BlockedMatrix(self.rows, self.cols, self.block_size,
                               symmetric=self.symmetric)
        if scalar == 0.0:
            return result
        for key, block in self.blocks.items():
            result.blocks[key] = block.scale(scalar)
        return result

    def add_scalar(self, scalar: float) -> "BlockedMatrix":
        if scalar == 0.0:
            return self.copy()
        result = BlockedMatrix(self.rows, self.cols, self.block_size,
                               symmetric=self.symmetric)
        coords = [(bi, bj) for bi in range(self.row_blocks)
                  for bj in range(self.col_blocks)]
        tasks = [(self.blocks.get(key), self.block_dims(*key), scalar)
                 for key in coords]
        for key, block in zip(coords, map_blocks(_shift_entry, tasks)):
            result.blocks[key] = block
        return result

    def negate(self) -> "BlockedMatrix":
        result = BlockedMatrix(self.rows, self.cols, self.block_size,
                               symmetric=self.symmetric)
        for key, block in self.blocks.items():
            result.blocks[key] = block.negate()
        return result

    def sum(self) -> float:
        return sum(block.sum() for block in self.blocks.values())

    def map_cells(self, func, preserves_zero: bool) -> "BlockedMatrix":
        """Apply ``func`` cell-wise.

        Zero-preserving maps run on sparse payloads directly; densifying
        maps (exp, sigmoid) materialize every block, including implicit
        all-zero ones.
        """
        result = BlockedMatrix(self.rows, self.cols, self.block_size,
                               symmetric=self.symmetric)
        if preserves_zero:
            def mapped(entry: tuple[tuple[int, int], Block]):
                key, block = entry
                if block.is_sparse:
                    payload = block.data.copy()
                    payload.data = func(payload.data)
                    return key, Block(payload).normalized()
                return key, Block(func(block.data)).normalized()

            result.blocks.update(map_blocks(mapped, list(self.blocks.items())))
            return result

        def densified(key: tuple[int, int]):
            block = self.blocks.get(key)
            payload = block.to_dense_array() if block is not None \
                else np.zeros(self.block_dims(*key))
            return key, Block(func(payload))

        coords = [(bi, bj) for bi in range(self.row_blocks)
                  for bj in range(self.col_blocks)]
        result.blocks.update(map_blocks(densified, coords))
        return result

    def row_sums(self) -> "BlockedMatrix":
        """Column vector of per-row sums.

        Builds only the row-tiles that stored blocks touch — a mostly-empty
        grid never materializes a full dense vector.
        """
        partials: dict[int, np.ndarray] = {}
        for (bi, _bj), block in self.blocks.items():
            sums = np.asarray(block.data.sum(axis=1)).reshape(-1, 1)
            buffer = partials.get(bi)
            if buffer is None:
                partials[bi] = buffer = np.zeros((sums.shape[0], 1))
            buffer += sums
        return self._assemble_column(partials, self.rows)

    def col_sums(self) -> "BlockedMatrix":
        """Row vector of per-column sums (sparse-grid aware, as row_sums)."""
        partials: dict[int, np.ndarray] = {}
        for (_bi, bj), block in self.blocks.items():
            sums = np.asarray(block.data.sum(axis=0)).reshape(1, -1)
            buffer = partials.get(bj)
            if buffer is None:
                partials[bj] = buffer = np.zeros((1, sums.shape[1]))
            buffer += sums
        result = BlockedMatrix(1, self.cols, self.block_size)
        for bj in sorted(partials):
            tile = partials[bj]
            if np.any(tile):
                result.blocks[(0, bj)] = Block(tile).normalized()
        return result

    def diagonal(self) -> "BlockedMatrix":
        """The main diagonal of a square matrix, as a column vector.

        Only diagonal grid tiles are touched, and sparse payloads yield
        their diagonal without densifying the block.
        """
        if self.rows != self.cols:
            raise ShapeError(f"diagonal of a non-square {self.rows}x{self.cols} matrix")
        partials: dict[int, np.ndarray] = {}
        for bi in range(self.row_blocks):
            block = self.blocks.get((bi, bi))
            if block is None:
                continue
            diag = np.asarray(block.data.diagonal(), dtype=np.float64)
            partials[bi] = diag.reshape(-1, 1).copy()
        return self._assemble_column(partials, self.rows)

    def _assemble_column(self, partials: dict[int, np.ndarray],
                         rows: int) -> "BlockedMatrix":
        """A (rows x 1) matrix from per-row-block tiles, skipping zeros."""
        result = BlockedMatrix(rows, 1, self.block_size)
        for bi in sorted(partials):
            tile = partials[bi]
            if np.any(tile):
                result.blocks[(bi, 0)] = Block(tile).normalized()
        return result

    def __repr__(self) -> str:
        return (f"BlockedMatrix({self.rows}x{self.cols}, block={self.block_size}, "
                f"grid={self.row_blocks}x{self.col_blocks}, nnz={self.nnz})")


def _transposed_entry(entry: tuple[tuple[int, int], Block]):
    (bi, bj), block = entry
    return (bj, bi), block.transpose()


def _zip_entry(task) -> Block | None:
    """One cell-wise combine task; replicates the serial ``_zip`` rules.

    ``task`` is ``(key, left, right, dims, op_name)`` with either block
    possibly ``None`` (an implicit all-zero tile).
    """
    key, left, right, dims, op_name = task
    if left is None and right is None:
        return None
    if left is None:
        left = Block(np.zeros(dims))
    if right is None:
        if op_name == "multiply":
            return None  # x * 0 == 0
        if op_name == "divide":
            raise ExecutionError(
                f"division by an implicit zero block at grid {key}; "
                "materializing it would produce inf/nan cells")
        right = Block(np.zeros(dims))
    block = getattr(left, op_name)(right)
    if block.is_zero():
        return None
    return block.normalized()


def _shift_entry(task) -> Block:
    """One ``add_scalar`` tile task: ``(block_or_none, dims, scalar)``."""
    block, dims, scalar = task
    if block is None:
        block = Block(np.zeros(dims))
    return block.add_scalar(scalar)


def _tile_product(pairs: list[tuple[Block, Block]]) -> Block | None:
    """One output tile: sum of block products, accumulated sparse-aware.

    Partials stay CSR while every contribution is sparse (CSR + CSR); the
    accumulator densifies at the first dense contribution and is then
    summed in place — no per-pair ``Block`` wrappers or re-allocation. The
    fold runs left-to-right over ``pairs`` (the left-block scan order), so
    the float results are bit-identical to pairwise ``Block.add``.
    """
    accumulator = None
    for left, right in pairs:
        product = left.data @ right.data
        if accumulator is None:
            accumulator = product
        elif sparse.issparse(accumulator) and sparse.issparse(product):
            accumulator = accumulator + product
        else:
            if sparse.issparse(accumulator):
                accumulator = accumulator.toarray()
            dense = product.toarray() if sparse.issparse(product) else product
            # The accumulator is always a private array here (a fresh
            # product or a toarray() copy), so in-place add is safe.
            np.add(accumulator, dense, out=accumulator)
    tile = Block(accumulator)
    if tile.is_zero():
        return None
    return tile.normalized()
