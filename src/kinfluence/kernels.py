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
from .models import Linearization, ModelSpec

CACHE_MAGIC = b"KINFKER1"
_FORM_DENSE, _FORM_KRON = 0, 1
_CACHE_HEADER = 58  # magic 8, N and d_out 8 each, source tag 1, form 1, spec hash 32
_ASSEMBLY_BLOCK = 64  # points per kernel-assembly row block


class KernelMatrix:
    """Block-structured kernel, (point, output-dim) indexed, point-major rows.

    A kernel stores exactly one of ``dense`` (d_out*N1, d_out*N2) or ``sigma``
    (N1, N2, the Kronecker factor of sigma (x) I_{d_out}). A symmetric dense
    kernel may be given as its upper block rows, a list of K[e:e+b, e:] in row
    order, about half the square: every method reads them, ``matvec`` as a
    symmetric product, and ``dense``/``to_dense`` copy out a full square.
    ``submatrix`` gives an index view: the same stored matrix plus the stored
    points it selects, so a view copies nothing. A view's matvec scatters the
    vector onto the stored columns, runs one product with the stored matrix
    and keeps the selected rows. On a view, ``gather`` and the block accessors
    (``dense``, ``sigma``, ``to_dense``, ``kron_factor``) copy out the
    selected block, as a plain array.
    """

    def __init__(self, d_out: int, dense: np.ndarray | list | None = None,
                 sigma: np.ndarray | None = None, spec_hash: bytes = b"\x00" * 32):
        if (dense is None) == (sigma is None):
            raise ValueError("exactly one of dense/sigma must be given")
        self.d_out = d_out
        self.spec_hash = spec_hash
        self.kron = sigma is not None
        self._unit = 1 if self.kron else d_out  # stored matrix rows per point
        self._upper, self._mat = None, sigma if self.kron else dense
        if isinstance(dense, list):  # (first point, K[e:e+b, e:]) per block row
            starts = np.cumsum([0] + [len(r) // d_out for r in dense]).tolist()
            self._upper, self._mat, self._points = list(zip(starts, dense)), None, (starts[-1],) * 2
        elif self._mat.shape[0] % self._unit or self._mat.shape[1] % self._unit:
            raise DimensionMismatch("dense kernel shape must be a multiple of d_out")
        else:
            self._points = tuple(s // self._unit for s in self._mat.shape)
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
        return self._points[0] if self.rows is None else len(self.rows)

    @property
    def n_cols(self) -> int:
        return self._points[1] if self.cols is None else len(self.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows * self.d_out, self.n_cols * self.d_out)

    def _block(self) -> np.ndarray:
        if self.rows is None and self._upper is None:
            return self._mat
        # a row block of points at a time: no intermediate wider than the stored rows
        u = self._unit
        out = np.empty((self.n_rows * u, self.n_cols * u))
        for p0 in range(0, self.n_rows, _ASSEMBLY_BLOCK):
            out[p0 * u:(p0 + _ASSEMBLY_BLOCK) * u] = self.rows_block(
                slice(p0, p0 + _ASSEMBLY_BLOCK), slice(None))
        return out

    def _stored_rows(self, points: np.ndarray, c0: int = 0, out: np.ndarray | None = None):
        """The stored rows of ``points`` from the stored column of point ``c0``
        on (into ``out`` when given). From block rows, a point's columns left of
        its own block row come from the block rows above, transposed."""
        u = self._unit
        if self._upper is None:
            return self._mat[_expand(points, u), c0 * u:]
        shape = (len(points) * u, (self._points[1] - c0) * u)
        out = np.empty(shape) if out is None else out[:shape[0]]
        for i, p in enumerate(points):
            row = out[i * u:(i + 1) * u]
            for e, r in self._upper:
                b, c = len(r) // u, max(e, c0)
                if p < e + b:
                    row[:, (c - c0) * u:] = r[(p - e) * u:(p - e + 1) * u, (c - e) * u:]
                    break
                if e + b > c0:
                    col = r[(c - e) * u:, (p - e) * u:(p - e + 1) * u]
                    row[:, (c - c0) * u:(e + b - c0) * u] = col.T
        return out

    def gather(self) -> "KernelMatrix":
        """A stored kernel of the selected block: a view's block is copied out
        into a new array, a stored kernel is returned as it is."""
        if self.rows is None:
            return self
        return KernelMatrix(self.d_out, **{"sigma" if self.kron else "dense": self._block()},
                            spec_hash=self.spec_hash)

    def rows_block(self, rows, cols) -> np.ndarray:
        """The block of a few points ``rows`` x ``cols`` (as ``submatrix``
        takes them): the stored rows from the first selected column on, then
        the columns in runs of a point's entries, with a stored-row-wide
        intermediate."""
        view, u = self.submatrix(rows, cols), self._unit
        c0 = view.cols.min(initial=self._points[1])
        whole = self._stored_rows(view.rows, c0).reshape(len(view.rows) * u, -1, u)
        return np.take(whole, view.cols - c0, axis=1).reshape(len(view.rows) * u, -1)

    def to_dense(self) -> np.ndarray:
        return np.kron(self.sigma, np.eye(self.d_out)) if self.kron else self.dense

    def kron_factor(self) -> np.ndarray:
        """sigma, or the mean of the d_out diagonal output blocks: nearest sigma (x) I."""
        if self.kron:
            return self.sigma
        d = self.d_out

        def traces(k):
            return np.trace(k.reshape(len(k) // d, d, -1, d), axis1=1, axis2=3) / d
        if self._upper is None:
            factor = traces(self._mat)
        else:
            factor = np.empty(self._points)
            for e, r in self._upper:
                t, b = traces(r), len(r) // d
                factor[e:e + b, e:] = t
                factor[e + b:, e:e + b] = t[:, b:].T
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
            v = np.bincount(_expand(self.cols, d), weights=v, minlength=self._points[1] * d)
        if self.kron:
            out = (self._mat @ v.reshape(-1, d)).ravel()
        elif self._upper is None:
            out = self._mat @ v
        else:
            # each block row gives its own rows and, transposed, the rows below
            out = np.zeros(self._points[0] * d)
            for e, r in self._upper:
                s, b = e * d, len(r)
                out[s:s + b] += r @ v[s:]
                out[s + b:] += r[:, b:].T @ v[s:s + b]
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

    Without ``X2`` the kernel is symmetric and held as its upper block rows:
    each row block of 64 points computes only the columns from its own first
    point on, and its diagonal tile's lower triangle is copied from the upper,
    so K == K.T exactly and no entry below the diagonal tiles is stored.
    """
    symmetric = X2 is None
    lz1 = Linearization(spec, theta_ref, X1)
    lz2 = lz1 if symmetric else Linearization(spec, theta_ref, X2)
    a1, a2, d1 = lz1.acts, lz2.acts, lz1.signals()
    d2 = d1 if symmetric else lz2.signals()
    n1, n2 = a1[0].shape[0], a2[0].shape[0]
    d = spec.d_out
    out = []
    # row blocks of _ASSEMBLY_BLOCK points bound the scratch memory: one
    # buffer, reused by every hidden layer's signal product
    scratch = np.empty(min(_ASSEMBLY_BLOCK, n1) * d * n2 * d)
    for r0 in range(0, n1, _ASSEMBLY_BLOCK):
        r1 = min(r0 + _ASSEMBLY_BLOCK, n1)
        c0 = r0 if symmetric else 0
        rb, nc = r1 - r0, n2 - c0
        out.append(np.zeros((rb * d, nc * d)))
        blk = out[-1].reshape(rb, d, nc, d)
        for layer in range(spec.n_layers):
            gram = _layer_gram(spec, layer, a1[layer][r0:r1], a2[layer][c0:])
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
            tile = out[-1][:, :rb * d]
            np.copyto(tile, tile.T, where=np.tri(len(tile), k=-1, dtype=bool))
    return KernelMatrix(d, dense=out if symmetric else np.concatenate(out),
                        spec_hash=spec.spec_hash())


def _layer_gram(spec: ModelSpec, layer: int, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """The layer's input term of the kernel, s_w^2 a1 a2' + s_b^2."""
    s_w, s_b = spec.layer_scales(layer)
    gram = (s_w ** 2) * (a1 @ a2.T)
    if spec.bias:
        gram += s_b ** 2
    return gram


def empirical_kron_factor(lz: Linearization) -> np.ndarray:
    """``empirical_ntk(...).kron_factor()`` with no kernel: sigma = (1/d_out)
    sum_layers gram * T, T the N x N Gram of the flattened backprop signals
    (d_out on the output layer, whose signal is the identity)."""
    spec, acts, deltas = lz.spec, lz.acts, lz.signals()
    sigma = _layer_gram(spec, spec.n_layers - 1, acts[-1], acts[-1])
    for layer in range(spec.n_layers - 1):
        flat = deltas[layer].reshape(len(acts[0]), -1)
        sigma += _layer_gram(spec, layer, acts[layer], acts[layer]) * (flat @ flat.T) / spec.d_out
    return sigma


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
    Kronecker), the only pairs the assemblers produce. The payload is the
    full row-major square, written a few points' rows at a time, so a kernel
    held as block rows is never copied out whole. A view is written as the
    block it selects, gathered first."""
    if kernel.n_rows != kernel.n_cols:
        raise DimensionMismatch("cache stores square train kernels only")
    form = _FORM_KRON if kernel.kron else _FORM_DENSE
    kernel, n = kernel.gather(), kernel.n_rows
    step = max(1, n // 64)  # points per write: 1/64 of the payload or less
    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<QQBB", n, kernel.d_out, form, form))
        f.write(kernel.spec_hash)
        buf = np.empty((step * kernel.d_out, kernel.shape[1]))  # for block rows: no fresh pages
        for p0 in range(0, n, step):
            rows = kernel._stored_rows(np.arange(p0, min(p0 + step, n)), out=buf)
            f.write(memoryview(np.ascontiguousarray(rows, dtype="<f8")))


def read_kernel_cache(path: str, expect_hash: bytes | None = None) -> KernelMatrix:
    """Checks the header and the file size, then reads the payload. A dense
    payload, the full square of a symmetric training kernel, is read a few
    points' rows at a time into its upper block rows (as ``empirical_ntk``
    holds them); the entries left of each block row's diagonal tile are read
    past."""
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
        if form == _FORM_KRON:
            mat = np.fromfile(f, dtype="<f8", count=side * side)
            return KernelMatrix(d_out, sigma=mat.astype(np.float64, copy=False).reshape(side, side),
                                spec_hash=spec_hash)
        upper, step = [], max(1, n // 64) * d_out  # rows per read: 1/64 of the payload or less
        buf = np.empty((step, side), dtype="<f8")
        for e in range(0, n, _ASSEMBLY_BLOCK):
            upper.append(np.empty((min(_ASSEMBLY_BLOCK, n - e) * d_out, side - e * d_out)))
            for r0 in range(0, len(upper[-1]), step):
                rows = buf[:min(step, len(upper[-1]) - r0)]
                f.readinto(memoryview(rows))
                upper[-1][r0:r0 + len(rows)] = rows[:, e * d_out:]
    return KernelMatrix(d_out, dense=upper, spec_hash=spec_hash)
