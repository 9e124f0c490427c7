"""A single matrix block: a thin uniform wrapper over dense/sparse payloads.

Blocks are the unit of distribution: a :class:`~repro.matrix.blocked.
BlockedMatrix` is a grid of blocks hashed onto workers. Each block holds
either a ``numpy.ndarray`` or a ``scipy.sparse`` matrix and exposes the
handful of kernels the physical operators need. Zero blocks are never
materialized (they are simply absent from the grid).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .formats import DENSE_THRESHOLD, StorageFormat, choose_format
from .meta import DOUBLE_BYTES, MatrixMeta

Payload = np.ndarray | sparse.spmatrix


class Block:
    """One block of a distributed matrix.

    The payload adapts between dense and CSR based on its own sparsity, the
    way SystemDS converts block layouts. All arithmetic returns new blocks;
    payloads are treated as immutable — which makes ``nnz`` (a full payload
    scan for dense blocks) safe to cache on first use. Everything else the
    runtime repeatedly asks for (``sparsity``, ``serialized_bytes``,
    ``meta``) derives from the cached count in O(1).
    """

    __slots__ = ("data", "_nnz")

    def __init__(self, data: Payload, nnz: int | None = None):
        """``nnz``, when given, must be the payload's nonzero count: callers
        that already know it (a fresh scan, an unchanged count) seed the
        cache so the payload is never scanned again."""
        if sparse.issparse(data):
            data = data.tocsr()
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.ndim != 2:
                raise ValueError(f"block payload must be 2-D, got {data.ndim}-D")
        self.data = data
        self._nnz = nnz

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def nnz(self) -> int:
        cached = self._nnz
        if cached is None:
            if sparse.issparse(self.data):
                cached = int(self.data.nnz)
            else:
                cached = int(np.count_nonzero(self.data))
            self._nnz = cached
        return cached

    @property
    def sparsity(self) -> float:
        rows, cols = self.shape
        cells = rows * cols
        return self.nnz / cells if cells else 0.0

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.data)

    def meta(self) -> MatrixMeta:
        rows, cols = self.shape
        return MatrixMeta(rows, cols, self.sparsity)

    def serialized_bytes(self) -> float:
        """Approximate wire size in the block's current layout."""
        rows, cols = self.shape
        if self.is_sparse:
            return self.nnz * (DOUBLE_BYTES + 4) + rows * 8
        return rows * cols * DOUBLE_BYTES

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matmul(self, other: "Block") -> "Block":
        return Block(self.data @ other.data)

    def add(self, other: "Block") -> "Block":
        return Block(self._binary(other, np.add))

    def subtract(self, other: "Block") -> "Block":
        return Block(self._binary(other, np.subtract))

    def multiply(self, other: "Block") -> "Block":
        if sparse.issparse(self.data):
            return Block(self.data.multiply(other.data))
        if sparse.issparse(other.data):
            return Block(other.data.multiply(self.data))
        return Block(np.multiply(self.data, other.data))

    def divide(self, other: "Block") -> "Block":
        return Block(self.to_dense_array() / other.to_dense_array())

    def _binary(self, other: "Block", op) -> Payload:
        if sparse.issparse(self.data) and sparse.issparse(other.data):
            if op is np.add:
                return self.data + other.data
            return self.data - other.data
        return op(self.to_dense_array(), other.to_dense_array())

    def transpose(self) -> "Block":
        return Block(self.data.T, self._nnz)

    def scale(self, scalar: float) -> "Block":
        return Block(self.data * scalar)

    def add_scalar(self, scalar: float) -> "Block":
        return Block(self.to_dense_array() + scalar)

    def negate(self) -> "Block":
        return Block(-self.data, self._nnz)

    def sum(self) -> float:
        return float(self.data.sum())

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def to_dense_array(self) -> np.ndarray:
        if sparse.issparse(self.data):
            return np.asarray(self.data.todense())
        return self.data

    def normalized(self) -> "Block":
        """Re-pick the layout based on observed sparsity (SystemDS-style)."""
        fmt = choose_format(self.sparsity)
        if fmt is StorageFormat.DENSE and self.is_sparse:
            return Block(self.to_dense_array())
        if fmt is not StorageFormat.DENSE and not self.is_sparse:
            if self.sparsity <= DENSE_THRESHOLD:
                return Block(sparse.csr_matrix(self.data))
        return self

    def is_zero(self, tol: float = 0.0) -> bool:
        if self.nnz == 0:
            return True
        if tol > 0.0:
            if sparse.issparse(self.data):
                return bool(np.all(np.abs(self.data.data) <= tol))
            return bool(np.all(np.abs(self.data) <= tol))
        return False

    def __repr__(self) -> str:
        layout = "sparse" if self.is_sparse else "dense"
        return f"Block({self.shape[0]}x{self.shape[1]}, {layout}, nnz={self.nnz})"


def zeros(rows: int, cols: int) -> Block:
    """A dense zero block (rarely stored; useful for padding in tests)."""
    return Block(np.zeros((rows, cols)))
