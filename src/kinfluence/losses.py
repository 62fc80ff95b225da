"""Per-point loss functions and their output-space derivatives.

Both kinds are convex in the model output: squared error has Hessian I,
softmax cross-entropy has Hessian diag(p) - p p' (PSD). Every function
takes (N, d_out) arrays and returns per-point values/blocks without any 1/N
scaling — risk-level code applies its own normalization.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

SQUARED = "squared"
CROSS_ENTROPY = "cross_entropy"
LOSS_KINDS = (SQUARED, CROSS_ENTROPY)


def _check(kind: str, f: np.ndarray, y: np.ndarray) -> None:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    if f.shape != y.shape:
        raise DimensionMismatch(f"output shape {f.shape} != target shape {y.shape}")


def _softmax(f: np.ndarray) -> np.ndarray:
    z = f - f.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def loss_value_batch(kind: str, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-point loss values, shape (N,)."""
    _check(kind, f, y)
    if kind == SQUARED:
        return 0.5 * np.sum((f - y) ** 2, axis=-1)
    z = f - f.max(axis=-1, keepdims=True)
    return np.log(np.exp(z).sum(axis=-1)) - np.sum(z * y, axis=-1)


def loss_grad_batch(kind: str, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-point gradients d loss / d f, shape (N, d_out)."""
    _check(kind, f, y)
    if kind == SQUARED:
        return f - y
    return _softmax(f) - y


def loss_hess_batch(kind: str, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-point output Hessians, shape (N, d_out, d_out)."""
    _check(kind, f, y)
    n, d = f.shape
    if kind == SQUARED:
        return np.broadcast_to(np.eye(d), (n, d, d)).copy()
    p = _softmax(f)
    h = -p[:, :, None] * p[:, None, :]
    h[:, np.arange(d), np.arange(d)] += p
    return h

