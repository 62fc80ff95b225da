"""Tangent-kernel matrices: assembly, index views, sharded matvec, caching.

The empirical kernel between two batches is the Gram matrix of parameter
Jacobians at a shared reference point, assembled layer by layer from cached
activations and backprop signals so the Jacobian itself is never materialized.
Analytic infinite-width kernels factor as sigma (x) I_{d_out} and keep that
Kronecker form through index views and matvecs.
"""

from __future__ import annotations

import copy
import os
import struct
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import (BadHeader, BadMagic, CheckpointMismatch, DimensionMismatch, PartitionGap,
                     PartitionOverlap, TruncatedFile)
from .models import ModelSpec, activations_and_deltas

CACHE_MAGIC = b"KINFKER1"
_FORM_DENSE, _FORM_KRON = 0, 1
_CACHE_HEADER = 58  # magic 8, N and d_out 8 each, source tag 1, form 1, spec hash 32
_ASSEMBLY_BLOCK = 64  # points per kernel-assembly row block


class KernelMatrix:
    """Block-structured kernel, (point, output-dim) indexed, point-major rows.

    A kernel stores exactly one of ``dense`` (d_out*N1, d_out*N2) or ``sigma``
    (N1, N2, the Kronecker factor of sigma (x) I_{d_out}). ``submatrix`` gives
    an index view: the same stored matrix plus the stored points it selects,
    so a view copies nothing. A view's matvec scatters the vector onto the
    stored columns, runs one product with the stored matrix and keeps the
    selected rows. On a view, ``gather`` and the block accessors (``dense``,
    ``sigma``, ``to_dense``, ``kron_factor``) copy out the selected block.
    """

    def __init__(self, d_out: int, dense: np.ndarray | None = None,
                 sigma: np.ndarray | None = None, spec_hash: bytes = b"\x00" * 32):
        if (dense is None) == (sigma is None):
            raise ValueError("exactly one of dense/sigma must be given")
        self.d_out = d_out
        self.spec_hash = spec_hash
        self.kron = sigma is not None
        self._mat = sigma if self.kron else dense
        self._unit = 1 if self.kron else d_out  # stored matrix rows per point
        if self._mat.shape[0] % self._unit or self._mat.shape[1] % self._unit:
            raise DimensionMismatch("dense kernel shape must be a multiple of d_out")
        self.rows = self.cols = None  # the stored points a view selects

    @property
    def dense(self) -> np.ndarray | None:
        """The dense matrix (gathered on a view); None for a Kronecker kernel."""
        return None if self.kron else self._block()

    @property
    def sigma(self) -> np.ndarray | None:
        """The Kronecker factor (gathered on a view); None for a dense kernel."""
        return self._block() if self.kron else None

    @property
    def n_rows(self) -> int:
        """Row count in points (not matrix rows)."""
        return self._mat.shape[0] // self._unit if self.rows is None else len(self.rows)

    @property
    def n_cols(self) -> int:
        return self._mat.shape[1] // self._unit if self.cols is None else len(self.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows * self.d_out, self.n_cols * self.d_out)

    def _block(self) -> np.ndarray:
        if self.rows is None:
            return self._mat
        # one 2-D gather: no intermediate larger than the block
        return self._mat[np.ix_(_expand(self.rows, self._unit), _expand(self.cols, self._unit))]

    def gather(self) -> "KernelMatrix":
        """A stored kernel of the selected block: a view's block is copied out
        into a new array, a stored kernel is returned as it is."""
        if self.rows is None:
            return self
        return KernelMatrix(self.d_out, **{"sigma" if self.kron else "dense": self._block()},
                            spec_hash=self.spec_hash)

    def to_dense(self) -> np.ndarray:
        return np.kron(self.sigma, np.eye(self.d_out)) if self.kron else self.dense

    def kron_factor(self) -> np.ndarray:
        """sigma, or the mean of the d_out diagonal output blocks: nearest sigma (x) I."""
        if self.kron:
            return self.sigma
        d = self.d_out
        k4 = self._mat.reshape(self._mat.shape[0] // d, d, self._mat.shape[1] // d, d)
        factor = np.trace(k4, axis1=1, axis2=3) / d
        return factor if self.rows is None else factor[np.ix_(self.rows, self.cols)]

    def submatrix(self, rows, cols) -> "KernelMatrix":
        """An index view of the points ``rows`` x ``cols`` (slices or index
        arrays, as numpy indexes a 1-D array); keeps the Kronecker form. A
        view of a view composes the indices, so every view reads the stored
        matrix directly and nothing is copied."""
        view = copy.copy(self)
        view.rows = np.asarray((np.arange(self.n_rows) if self.rows is None else self.rows)[rows])
        view.cols = np.asarray((np.arange(self.n_cols) if self.cols is None else self.cols)[cols])
        return view

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.shape[1],):
            raise DimensionMismatch(f"vector length {v.shape} != {self.shape[1]}")
        d = self.d_out
        if self.cols is not None:
            # bincount adds the entries of a point selected twice
            v = np.bincount(_expand(self.cols, d), weights=v,
                            minlength=self._mat.shape[1] // self._unit * d)
        out = (self._mat @ v.reshape(-1, d)).ravel() if self.kron else self._mat @ v
        return out if self.rows is None else out.reshape(-1, d)[self.rows].ravel()


def _expand(points: np.ndarray, unit: int) -> np.ndarray:
    """Matrix rows of the given points, ``unit`` consecutive rows each."""
    return (points[:, None] * unit + np.arange(unit)).ravel()


def empirical_ntk(spec: ModelSpec, theta_ref: np.ndarray, X1: np.ndarray,
                  X2: np.ndarray | None = None) -> KernelMatrix:
    """Gram matrix of parameter Jacobians at ``theta_ref``.

    Equal to stacked_jacobian(X1) @ stacked_jacobian(X2).T, assembled without
    the Jacobians, layer by layer, as
    K[(i,k),(j,l)] = sum_layers (s_w^2 a_i'a_j + s_b^2) * (D_i D_j')[k,l],
    where a are the layer's inputs and D its backprop signals. The output
    layer's signal is the identity, so its term is gram (x) I_{d_out}.

    Without ``X2`` the kernel is symmetric: each row block of points computes
    only the columns from its own first point on, and the rows below the
    diagonal are copied from the transposed upper blocks, so K == K.T exactly.
    """
    symmetric = X2 is None
    a1, d1 = activations_and_deltas(spec, theta_ref, X1)
    a2, d2 = (a1, d1) if symmetric else activations_and_deltas(spec, theta_ref, X2)
    n1, n2 = a1[0].shape[0], a2[0].shape[0]
    d = spec.d_out
    out = np.zeros((n1 * d, n2 * d))
    out4 = out.reshape(n1, d, n2, d)
    # row blocks of _ASSEMBLY_BLOCK points bound the scratch memory: one
    # buffer, reused by every hidden layer's signal product
    scratch = np.empty(min(_ASSEMBLY_BLOCK, n1) * d * n2 * d)
    for r0 in range(0, n1, _ASSEMBLY_BLOCK):
        r1 = min(r0 + _ASSEMBLY_BLOCK, n1)
        c0 = r0 if symmetric else 0
        rb, nc = r1 - r0, n2 - c0
        blk = out4[r0:r1, :, c0:]
        for layer in range(spec.n_layers):
            s_w, s_b = spec.layer_scales(layer)
            gram = (s_w ** 2) * (a1[layer][r0:r1] @ a2[layer][c0:].T)
            if spec.bias:
                gram += s_b ** 2
            if layer == spec.n_layers - 1:
                for k in range(d):
                    blk[:, k, :, k] += gram
                continue
            dd = scratch[:rb * d * nc * d].reshape(rb * d, nc * d)
            np.matmul(d1[layer][r0:r1].reshape(rb * d, -1), d2[layer][c0:].reshape(nc * d, -1).T,
                      out=dd)
            dd = dd.reshape(rb, d, nc, d)
            dd *= gram[:, None, :, None]
            blk += dd
        if symmetric:
            # square tiles keep the copies' temporaries small
            rows = slice(r0 * d, r1 * d)
            tile = out[rows, rows]
            np.copyto(tile, tile.T, where=np.tri(len(tile), k=-1, dtype=bool))
            for t0 in range(r1, n1, _ASSEMBLY_BLOCK):
                cols = slice(t0 * d, min(t0 + _ASSEMBLY_BLOCK, n1) * d)
                out[cols, rows] = out[rows, cols].T
    return KernelMatrix(d, dense=out, spec_hash=spec.spec_hash())


# --------------------------------------------------------------------------
# Sharded matrix-vector products
# --------------------------------------------------------------------------

def validate_shards(shards, n_rows: int):
    """Shards are (start, stop) matrix-row ranges that exactly tile [0, n)."""
    spans = sorted((int(a), int(b)) for a, b in shards)
    if not spans:
        raise PartitionGap("no shards given")
    pos = 0
    for a, b in spans:
        if a < pos:
            raise PartitionOverlap(f"rows [{a}, {min(b, pos)}) covered twice")
        if a > pos:
            raise PartitionGap(f"rows [{pos}, {a}) not covered by any shard")
        pos = b
    if pos != n_rows:
        raise PartitionGap(f"rows [{pos}, {n_rows}) not covered by any shard")
    return spans


_DET_CHUNK = 256


def _det_rows_matvec(block: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    # per-row multiply + pairwise sum: the reduction order depends only on the
    # row length, so any row partition gives bit-identical results
    for c0 in range(0, block.shape[0], _DET_CHUNK):
        c1 = min(c0 + _DET_CHUNK, block.shape[0])
        out[c0:c1] = (block[c0:c1] * v).sum(axis=1)


def sharded_matvec(matrix, v: np.ndarray, shards, workers: int | None = None):
    """Row-sharded matvec with a deterministic per-row reduction.

    Returns (result, per-shard wall seconds). The result is bitwise identical
    for every valid row partition; shards are dispatched to worker threads and
    write disjoint output slices.
    """
    a = matrix.to_dense() if isinstance(matrix, KernelMatrix) else np.asarray(matrix)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (a.shape[1],):
        raise DimensionMismatch(f"vector length {v.shape} != {a.shape[1]}")
    spans = validate_shards(shards, a.shape[0])
    out = np.empty(a.shape[0])
    seconds = [0.0] * len(spans)

    def shard(k: int) -> None:
        t0 = time.perf_counter()
        lo, hi = spans[k]
        _det_rows_matvec(a[lo:hi], v, out[lo:hi])
        seconds[k] = time.perf_counter() - t0

    if workers is None:
        workers = len(spans)
    if workers <= 1 or len(spans) == 1:
        for k in range(len(spans)):
            shard(k)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(shard, range(len(spans))))
    return out, seconds


def even_shards(n_rows: int, count: int):
    bounds = np.linspace(0, n_rows, count + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


# --------------------------------------------------------------------------
# Kernel cache files
# --------------------------------------------------------------------------

def write_kernel_cache(path: str, kernel: KernelMatrix) -> None:
    """Header (magic, N, d_out, source tag, form, spec hash) + f64 LE payload.

    The source tag repeats the form (0 empirical and dense, 1 analytic and
    Kronecker), the only pairs the assemblers produce. A view is written as
    the block it selects, gathered first."""
    if kernel.n_rows != kernel.n_cols:
        raise DimensionMismatch("cache stores square train kernels only")
    form = _FORM_KRON if kernel.kron else _FORM_DENSE
    payload = kernel.sigma if kernel.kron else kernel.dense
    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<QQBB", kernel.n_rows, kernel.d_out, form, form))
        f.write(kernel.spec_hash)
        f.write(memoryview(np.ascontiguousarray(payload, dtype="<f8")))


def read_kernel_cache(path: str, expect_hash: bytes | None = None) -> KernelMatrix:
    """Checks the header and the file size, then reads the payload straight
    into an array."""
    with open(path, "rb") as f:
        head = f.read(_CACHE_HEADER)
        if head[:8] != CACHE_MAGIC:
            raise BadMagic(f"{path}: not a kernel cache file")
        if len(head) < _CACHE_HEADER:
            raise TruncatedFile(f"{path}: header {len(head)} bytes != {_CACHE_HEADER}")
        n, d_out, source_tag, form = struct.unpack("<QQBB", head[8:26])
        spec_hash = head[26:]
        if expect_hash is not None and spec_hash != expect_hash:
            raise CheckpointMismatch(f"{path}: spec hash mismatch")
        if source_tag not in (0, 1):
            raise BadHeader(f"{path}: unknown source tag {source_tag}")
        if form not in (_FORM_DENSE, _FORM_KRON):
            raise BadHeader(f"{path}: unknown form byte {form}")
        side = n * d_out if form == _FORM_DENSE else n
        body = os.fstat(f.fileno()).st_size - _CACHE_HEADER
        if body != 8 * side * side:
            raise TruncatedFile(f"{path}: payload {body} bytes != {8 * side * side}")
        mat = np.fromfile(f, dtype="<f8", count=side * side)
    mat = mat.astype(np.float64, copy=False).reshape(side, side)
    if form == _FORM_DENSE:
        return KernelMatrix(d_out, dense=mat, spec_hash=spec_hash)
    return KernelMatrix(d_out, sigma=mat, spec_hash=spec_hash)
