"""Dataset containers, binary-format loaders, and forget/retain splitting.

Feature matrices are float64 with values in [0, 1]; targets are either one-hot
rows (multi-class) or a single +-1 column (binary scalar models). The forget
set always occupies the first ``n_forget`` rows of a split — downstream
influence code indexes blocks by that convention.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagic,
    ConfigError,
    CountMismatch,
    DegenerateSplit,
    EmptyDataset,
    InsufficientClassMembers,
    TruncatedFile,
)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixel bytes

DATA_DIR_ENV = "KINF_DATA_DIR"


def data_dir() -> str:
    """Dataset cache directory, configurable via ``KINF_DATA_DIR``."""
    return os.environ.get(DATA_DIR_ENV, os.path.join(os.path.expanduser("~"), ".kinfluence", "data"))


@dataclass(frozen=True)
class LabeledDataset:
    """Features (N, d_in) in [0,1], targets (N, d_out), integer labels (N)."""

    features: np.ndarray
    targets: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2 or self.targets.ndim != 2:
            raise EmptyDataset("features and targets must be 2-D matrices")
        n = self.features.shape[0]
        if n < 1:
            raise EmptyDataset("dataset must contain at least one row")
        if self.targets.shape[0] != n or self.labels.shape[0] != n:
            raise CountMismatch(
                f"row counts disagree: features {n}, targets {self.targets.shape[0]}, labels {self.labels.shape[0]}"
            )
        lo, hi = self.features.min(), self.features.max()
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"feature values must lie in [0, 1], got range [{lo}, {hi}]")
        if self.d_out == 1:
            if not np.all(np.abs(np.abs(self.targets) - 1.0) < 1e-12):
                raise ValueError("scalar targets must be +-1")
        else:
            one = np.isin(self.targets, (0.0, 1.0)).all() and np.allclose(self.targets.sum(axis=1), 1.0)
            if not one:
                raise ValueError("multi-output targets must be one-hot rows")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d_in(self) -> int:
        return self.features.shape[1]

    @property
    def d_out(self) -> int:
        return self.targets.shape[1]

    @property
    def targets_vec(self) -> np.ndarray:
        """Targets flattened point-major: index = point * d_out + dim."""
        return self.targets.ravel()

    def take(self, idx: np.ndarray, name: str | None = None) -> "LabeledDataset":
        return LabeledDataset(
            self.features[idx], self.targets[idx], self.labels[idx],
            self.name if name is None else name,
        )


@dataclass(frozen=True)
class SplitDataset:
    """A dataset whose first ``n_forget`` rows are the forget set."""

    full: LabeledDataset
    n_forget: int
    # row i of ``full`` is row permutation[i] of the unsplit data: the index
    # that gathers the split's kernel from one assembled in unsplit order
    permutation: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not 0 < self.n_forget < self.full.n:
            raise DegenerateSplit(
                f"n_forget must satisfy 0 < {self.n_forget} < {self.full.n}"
            )

    @property
    def n(self) -> int:
        return self.full.n

    @property
    def n_retain(self) -> int:
        return self.full.n - self.n_forget

    @property
    def forget(self) -> LabeledDataset:
        return self.full.take(np.arange(self.n_forget), name=self.full.name + "/forget")

    @property
    def retain(self) -> LabeledDataset:
        return self.full.take(np.arange(self.n_forget, self.full.n), name=self.full.name + "/retain")


# --------------------------------------------------------------------------
# IDX (big-endian) image/label files
# --------------------------------------------------------------------------

def _read_exact(f, count: int, path: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise TruncatedFile(f"{path}: expected {count} more bytes, got {len(buf)}")
    return buf


def load_idx(images_path: str, labels_path: str, name: str = "idx") -> LabeledDataset:
    """Parse an IDX image/label file pair into a dataset.

    Pixels are flattened row-major and scaled by 1/255; targets are one-hot
    over the classes observed in the label file (sorted ascending).
    """
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGE_MAGIC:
            raise BadMagic(f"{images_path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
        pixels = np.frombuffer(_read_exact(f, count * rows * cols, images_path), dtype=np.uint8)
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, labels_path))
        if magic != IDX_LABEL_MAGIC:
            raise BadMagic(f"{labels_path}: magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
        labels = np.frombuffer(_read_exact(f, label_count, labels_path), dtype=np.uint8)
    if label_count != count:
        raise CountMismatch(f"{count} images but {label_count} labels")
    features = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return LabeledDataset(features, _one_hot(labels.astype(np.int64)), labels.astype(np.int64), name)


# --------------------------------------------------------------------------
# CIFAR-10 binary batches
# --------------------------------------------------------------------------

def load_cifar_binary(path: str, name: str = "cifar10") -> LabeledDataset:
    """Parse one CIFAR-10 binary batch (3073-byte records)."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % CIFAR_RECORD_BYTES != 0:
        raise TruncatedFile(
            f"{path}: {raw.size} bytes is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    records = raw.reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    features = records[:, 1:].astype(np.float64) / 255.0
    return LabeledDataset(features, _one_hot(labels), labels, name)


# --------------------------------------------------------------------------
# Target encodings, subsets, forget splits
# --------------------------------------------------------------------------

def _one_hot(labels: np.ndarray, classes: np.ndarray | None = None) -> np.ndarray:
    if classes is None:
        classes = np.unique(labels)
    targets = np.zeros((labels.shape[0], classes.shape[0]))
    pos = {int(c): j for j, c in enumerate(classes)}
    for i, lab in enumerate(labels):
        targets[i, pos[int(lab)]] = 1.0
    return targets


def check_encoding(encoding: str, n_classes: int) -> None:
    """Raise ValueError unless ``encoding`` can encode ``n_classes`` classes."""
    if encoding not in ("onehot", "pm1"):
        raise ValueError(f"unknown target encoding {encoding!r}")
    if encoding == "pm1" and n_classes != 2:
        raise ValueError("pm1 encoding needs exactly two classes")


def _encode_targets(labels: np.ndarray, classes, encoding: str) -> np.ndarray:
    """Re-encode integer labels over ``classes`` as one-hot or +-1 columns."""
    classes = np.asarray(sorted(int(c) for c in classes))
    check_encoding(encoding, classes.shape[0])
    if encoding == "onehot":
        return _one_hot(labels, classes)
    # pm1: lower class id -> -1, higher -> +1
    return np.where(labels == classes[0], -1.0, 1.0)[:, None]


def subset_per_class(ds: LabeledDataset, classes, per_class: int, seed: int,
                     encoding: str = "onehot") -> LabeledDataset:
    """Deterministically sample ``per_class`` rows from each requested class.

    Targets are re-encoded over the requested classes only; rows are ordered
    class-major, within class by ascending original index.
    """
    classes = sorted(int(c) for c in classes)
    if len(set(classes)) < len(classes):
        raise ConfigError(f"classes {classes} repeat a class")
    if per_class < 1:
        raise EmptyDataset("per_class must be at least 1")
    rng = np.random.default_rng(seed)
    picked = []
    for c in classes:
        members = np.flatnonzero(ds.labels == c)
        if members.shape[0] < per_class:
            raise InsufficientClassMembers(
                f"class {c} has {members.shape[0]} members, need {per_class}"
            )
        sel = rng.permutation(members.shape[0])[:per_class]
        picked.append(np.sort(members[sel]))
    idx = np.concatenate(picked)
    labels = ds.labels[idx]
    return LabeledDataset(
        ds.features[idx], _encode_targets(labels, classes, encoding), labels,
        f"{ds.name}/subset{classes}x{per_class}",
    )


def split_forget(ds: LabeledDataset, percent: float, scope="all", seed: int = 0) -> SplitDataset:
    """Move a random ``percent`` of eligible rows to the front as the forget set.

    ``scope`` is ``"all"`` or an integer class id. The forget count is
    round-half-up of percent/100 times the eligible count. Both blocks keep
    ascending original-index order, so the only reordering is the documented
    forget-first permutation.
    """
    if scope == "all":
        eligible = np.arange(ds.n)
    else:
        eligible = np.flatnonzero(ds.labels == int(scope))
        if eligible.size == 0:
            raise DegenerateSplit(f"no rows with class {scope}")
    count = int(np.floor(percent / 100.0 * eligible.size + 0.5))
    if count < 1 or count >= ds.n:
        raise DegenerateSplit(
            f"percent={percent} of {eligible.size} eligible rows gives forget count {count} "
            f"(need 0 < count < {ds.n})"
        )
    rng = np.random.default_rng(seed)
    chosen = np.sort(eligible[rng.permutation(eligible.size)[:count]])
    mask = np.zeros(ds.n, dtype=bool)
    mask[chosen] = True
    order = np.concatenate([chosen, np.flatnonzero(~mask)])
    return SplitDataset(ds.take(order, name=ds.name + f"/forget{percent}%"), count, permutation=order)


def make_blobs(n_per_class: int, n_classes: int, d_in: int, seed: int,
               noise: float = 0.12, encoding: str = "onehot", name: str = "blobs") -> LabeledDataset:
    """Synthetic Gaussian-blob dataset with features clipped to [0, 1].

    Class centers are drawn once from [0.25, 0.75]^d_in; points are centers
    plus isotropic noise. Self-contained substitute for downloaded corpora.
    """
    if n_per_class < 1 or n_classes < 1:
        raise EmptyDataset("need at least one point and one class")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.25, 0.75, size=(n_classes, d_in))
    feats = np.concatenate([
        centers[c] + noise * rng.standard_normal((n_per_class, d_in)) for c in range(n_classes)
    ])
    labels = np.repeat(np.arange(n_classes), n_per_class)
    perm = rng.permutation(labels.shape[0])
    feats, labels = np.clip(feats[perm], 0.0, 1.0), labels[perm]
    return LabeledDataset(feats, _encode_targets(labels, range(n_classes), encoding), labels, name)
