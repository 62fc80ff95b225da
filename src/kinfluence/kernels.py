"""Tangent-kernel matrices: assembly, block slicing, sharded matvec, caching.

The empirical kernel between two batches is the Gram matrix of parameter
Jacobians at a shared reference point, assembled layer by layer from cached
activations and backprop signals so the Jacobian itself is never materialized.
Analytic infinite-width kernels factor as sigma (x) I_{d_out} and keep that
Kronecker form through slicing and matvecs.
"""

from __future__ import annotations

import os
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (BadHeader, BadMagic, CheckpointMismatch, DimensionMismatch, PartitionGap,
                     PartitionOverlap, TruncatedFile)
from .models import ModelSpec, activations_and_deltas

EMPIRICAL = "empirical"
ANALYTIC = "analytic"

CACHE_MAGIC = b"KINFKER1"
_FORM_DENSE, _FORM_KRON = 0, 1
_CACHE_HEADER = 58  # magic 8, N and d_out 8 each, source tag 1, form 1, spec hash 32
_ASSEMBLY_BLOCK = 64  # points per kernel-assembly row block


@dataclass
class KernelMatrix:
    """Block-structured kernel, (point, output-dim) indexed, point-major rows.

    Exactly one of ``dense`` (d_out*N1, d_out*N2) or ``sigma`` (N1, N2, the
    Kronecker factor of sigma (x) I_{d_out}) is set.
    """

    d_out: int
    source: str
    dense: np.ndarray | None = None
    sigma: np.ndarray | None = None
    spec_hash: bytes = b"\x00" * 32

    def __post_init__(self):
        if (self.dense is None) == (self.sigma is None):
            raise ValueError("exactly one of dense/sigma must be given")
        if self.dense is not None and (
            self.dense.shape[0] % self.d_out or self.dense.shape[1] % self.d_out
        ):
            raise DimensionMismatch("dense kernel shape must be a multiple of d_out")

    @property
    def n_rows(self) -> int:
        """Row count in points (not matrix rows)."""
        if self.dense is not None:
            return self.dense.shape[0] // self.d_out
        return self.sigma.shape[0]

    @property
    def n_cols(self) -> int:
        if self.dense is not None:
            return self.dense.shape[1] // self.d_out
        return self.sigma.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows * self.d_out, self.n_cols * self.d_out)

    def to_dense(self) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        return np.kron(self.sigma, np.eye(self.d_out))

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> "KernelMatrix":
        """Point-index slicing; keeps the Kronecker form when present."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        if self.sigma is not None:
            return KernelMatrix(self.d_out, self.source, sigma=self.sigma[np.ix_(rows, cols)],
                                spec_hash=self.spec_hash)
        d = self.d_out
        r = (rows[:, None] * d + np.arange(d)).ravel()
        c = (cols[:, None] * d + np.arange(d)).ravel()
        return KernelMatrix(self.d_out, self.source, dense=self.dense[np.ix_(r, c)],
                            spec_hash=self.spec_hash)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.shape[1],):
            raise DimensionMismatch(f"vector length {v.shape} != {self.shape[1]}")
        if self.dense is not None:
            return self.dense @ v
        return (self.sigma @ v.reshape(self.n_cols, self.d_out)).ravel()


def empirical_ntk(spec: ModelSpec, theta_ref: np.ndarray, X1: np.ndarray,
                  X2: np.ndarray | None = None) -> KernelMatrix:
    """Gram matrix of parameter Jacobians at ``theta_ref``.

    Equal to stacked_jacobian(X1) @ stacked_jacobian(X2).T, assembled without
    the Jacobians via the layerwise identity
    K[(i,k),(j,l)] = sum_l (s_w^2 a_i'a_j + s_b^2) * (delta_ik' delta_jl).
    """
    symmetric = X2 is None
    a1, d1 = activations_and_deltas(spec, theta_ref, X1)
    a2, d2 = (a1, d1) if symmetric else activations_and_deltas(spec, theta_ref, X2)
    n1, n2 = a1[0].shape[0], a2[0].shape[0]
    d = spec.d_out
    out = np.zeros((n1 * d, n2 * d))
    # row blocks of _ASSEMBLY_BLOCK points bound the scratch memory
    for r0 in range(0, n1, _ASSEMBLY_BLOCK):
        r1 = min(r0 + _ASSEMBLY_BLOCK, n1)
        acc = np.zeros(((r1 - r0) * d, n2 * d))
        for layer in range(spec.n_layers):
            s_w, s_b = spec.layer_scales(layer)
            gram = (s_w ** 2) * (a1[layer][r0:r1] @ a2[layer].T)
            if spec.bias:
                gram = gram + s_b ** 2
            dd = d1[layer][r0:r1].reshape((r1 - r0) * d, -1) @ d2[layer].reshape(n2 * d, -1).T
            acc += np.repeat(np.repeat(gram, d, axis=0), d, axis=1) * dd
        out[r0 * d:r1 * d] = acc
    return KernelMatrix(d, EMPIRICAL, dense=out, spec_hash=spec.spec_hash())


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
    """Header (magic, N, d_out, source tag, form, spec hash) + f64 LE payload."""
    if kernel.n_rows != kernel.n_cols:
        raise DimensionMismatch("cache stores square train kernels only")
    source_tag = 0 if kernel.source == EMPIRICAL else 1
    form = _FORM_DENSE if kernel.dense is not None else _FORM_KRON
    payload = kernel.dense if kernel.dense is not None else kernel.sigma
    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<QQBB", kernel.n_rows, kernel.d_out, source_tag, form))
        f.write(kernel.spec_hash)
        f.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


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
    source = EMPIRICAL if source_tag == 0 else ANALYTIC
    if form == _FORM_DENSE:
        return KernelMatrix(d_out, source, dense=mat, spec_hash=spec_hash)
    return KernelMatrix(d_out, source, sigma=mat, spec_hash=spec_hash)
