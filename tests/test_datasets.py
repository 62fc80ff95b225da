"""Format parsing, subsets, and forget splits."""

import os
import struct

import numpy as np
import pytest

from kinfluence.datasets import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    LabeledDataset,
    data_dir,
    load_cifar_binary,
    load_idx,
    make_blobs,
    split_forget,
    subset_per_class,
)
from kinfluence.errors import (
    BadMagic,
    CountMismatch,
    DegenerateSplit,
    EmptyDataset,
    InsufficientClassMembers,
    TruncatedFile,
)


def _write_idx_fixture(tmp_path, pixels, labels, rows=2, cols=2,
                       image_magic=0x00000803, label_magic=0x00000801):
    images = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    pixels = np.asarray(pixels, dtype=np.uint8)
    with open(images, "wb") as f:
        f.write(struct.pack(">IIII", image_magic, pixels.shape[0], rows, cols))
        f.write(pixels.tobytes())
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", label_magic, len(labels)))
        f.write(bytes(labels))
    return str(images), str(lab)


def write_idx(images_path: str, labels_path: str, ds: LabeledDataset, rows: int, cols: int) -> None:
    """Write a dataset back to an IDX pair (fixture/round-trip helper)."""
    if rows * cols != ds.d_in:
        raise CountMismatch(f"rows*cols = {rows * cols} != d_in = {ds.d_in}")
    pixels = np.rint(ds.features * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, ds.n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, ds.n))
        f.write(ds.labels.astype(np.uint8).tobytes())


class TestIdx:
    def test_four_image_fixture(self, tmp_path):
        pixels = np.array([
            [0, 255, 10, 20],
            [1, 2, 3, 4],
            [255, 255, 255, 255],
            [0, 0, 0, 0],
        ], dtype=np.uint8)
        ip, lp = _write_idx_fixture(tmp_path, pixels, [0, 1, 1, 0])
        ds = load_idx(ip, lp)
        assert ds.n == 4 and ds.d_in == 4
        assert ds.features[0, 1] == 1.0  # pixel 255 -> 1.0
        assert ds.features[1, 0] == 1.0 / 255.0
        assert ds.d_out == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 1, 0])

    def test_bad_label_magic(self, tmp_path):
        ip, lp = _write_idx_fixture(tmp_path, np.zeros((1, 4), np.uint8), [0],
                                    label_magic=0x00000802)
        with pytest.raises(BadMagic):
            load_idx(ip, lp)

    def test_bad_image_magic(self, tmp_path):
        ip, lp = _write_idx_fixture(tmp_path, np.zeros((1, 4), np.uint8), [0],
                                    image_magic=0x00000804)
        with pytest.raises(BadMagic):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, lp = _write_idx_fixture(tmp_path, np.zeros((2, 4), np.uint8), [0, 1, 1])
        with pytest.raises(CountMismatch):
            load_idx(ip, lp)

    def test_truncated_images(self, tmp_path):
        ip, lp = _write_idx_fixture(tmp_path, np.zeros((2, 4), np.uint8), [0, 1])
        with open(ip, "r+b") as f:
            f.truncate(16 + 5)  # header + 5 of 8 pixel bytes
        with pytest.raises(TruncatedFile):
            load_idx(ip, lp)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        pixels = rng.integers(0, 256, size=(9, 6), dtype=np.uint8)
        ip, lp = _write_idx_fixture(tmp_path, pixels, list(rng.integers(0, 3, 9)), rows=2, cols=3)
        ds = load_idx(ip, lp)
        ip2, lp2 = str(tmp_path / "im2.idx"), str(tmp_path / "lb2.idx")
        write_idx(ip2, lp2, ds, rows=2, cols=3)
        ds2 = load_idx(ip2, lp2)
        np.testing.assert_array_equal(ds.features, ds2.features)
        np.testing.assert_array_equal(ds.labels, ds2.labels)
        with open(ip, "rb") as a, open(ip2, "rb") as b:
            assert a.read() == b.read()

    def test_real_mnist_if_available(self):
        ip = os.path.join(data_dir(), "t10k-images-idx3-ubyte")
        lp = os.path.join(data_dir(), "t10k-labels-idx1-ubyte")
        if not (os.path.exists(ip) and os.path.exists(lp)):
            pytest.skip("real MNIST test split not present in KINF_DATA_DIR")
        ds = load_idx(ip, lp)
        assert ds.n == 10000 and ds.d_in == 784 and ds.d_out == 10


class TestCifar:
    def test_two_record_fixture(self, tmp_path):
        p = tmp_path / "batch.bin"
        rec = bytes([1]) + bytes(range(256)) * 12  # 1 + 3072
        p.write_bytes(rec + bytes([0]) + bytes(3072))
        ds = load_cifar_binary(str(p))
        assert ds.n == 2 and ds.d_in == 3072
        np.testing.assert_array_equal(ds.labels, [1, 0])
        assert ds.features[0, 255] == 1.0

    def test_truncated(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(bytes(6147))
        with pytest.raises(TruncatedFile):
            load_cifar_binary(str(p))

    def test_real_cifar_if_available(self):
        p = os.path.join(data_dir(), "cifar-10-batches-bin", "data_batch_1.bin")
        if not os.path.exists(p):
            pytest.skip("real CIFAR-10 batch not present in KINF_DATA_DIR")
        ds = load_cifar_binary(p)
        assert ds.n == 10000 and ds.d_in == 3072


class TestSubsetPerClass:
    def test_counts_and_reencoding(self):
        ds = make_blobs(50, 4, d_in=5, seed=0)
        sub = subset_per_class(ds, [1, 3], per_class=20, seed=1)
        assert sub.n == 40 and sub.d_out == 2
        assert np.sum(sub.labels == 1) == 20 and np.sum(sub.labels == 3) == 20
        np.testing.assert_allclose(sub.targets.sum(axis=1), 1.0)

    def test_pm1_encoding(self):
        ds = make_blobs(30, 3, d_in=4, seed=0)
        sub = subset_per_class(ds, [0, 2], per_class=10, seed=5, encoding="pm1")
        assert sub.d_out == 1
        assert set(np.unique(sub.targets)) == {-1.0, 1.0}
        np.testing.assert_array_equal((sub.targets[:, 0] > 0), sub.labels == 2)

    def test_deterministic(self):
        ds = make_blobs(40, 2, d_in=3, seed=2)
        a = subset_per_class(ds, [0, 1], 15, seed=9)
        b = subset_per_class(ds, [0, 1], 15, seed=9)
        np.testing.assert_array_equal(a.features, b.features)

    def test_insufficient_members(self):
        ds = make_blobs(10, 2, d_in=3, seed=0)
        with pytest.raises(InsufficientClassMembers):
            subset_per_class(ds, [0], per_class=11, seed=0)

    def test_per_class_zero_rejected(self):
        ds = make_blobs(10, 2, d_in=3, seed=0)
        with pytest.raises(EmptyDataset):
            subset_per_class(ds, [0, 1], per_class=0, seed=0)


class TestSplitForget:
    def test_fifty_percent(self):
        ds = make_blobs(1000, 2, d_in=4, seed=3)
        sp = split_forget(ds, 50.0, scope="all", seed=0)
        assert sp.forget_count == 1000 and sp.n_retain == 1000

    def test_hundred_percent_rejected(self):
        ds = make_blobs(20, 2, d_in=3, seed=0)
        with pytest.raises(DegenerateSplit):
            split_forget(ds, 100.0, scope="all", seed=0)

    def test_single_class_scope_counts(self):
        # enumeration oracle: 10% of the 1000 class-0 rows = 100, all labeled 0
        ds = make_blobs(1000, 2, d_in=4, seed=4)
        sp = split_forget(ds, 10.0, scope=0, seed=1)
        assert sp.forget_count == 100
        assert np.all(sp.forget.labels == 0)

    def test_permutation_preserves_multiset(self):
        ds = make_blobs(60, 3, d_in=5, seed=5)
        sp = split_forget(ds, 30.0, scope="all", seed=2)
        orig = np.lexsort(ds.features.T)
        new = np.lexsort(sp.full.features.T)
        np.testing.assert_array_equal(ds.features[orig], sp.full.features[new])
        np.testing.assert_array_equal(ds.labels[orig], sp.full.labels[new])

    def test_block_order_preserved(self):
        # within each block, rows keep ascending original-index order
        ds = make_blobs(50, 2, d_in=3, seed=6)
        sp = split_forget(ds, 20.0, scope=1, seed=3)
        perm = sp.permutation
        m = sp.forget_count
        assert np.all(np.diff(perm[:m]) > 0) and np.all(np.diff(perm[m:]) > 0)

    def test_deterministic(self):
        ds = make_blobs(100, 2, d_in=3, seed=7)
        a = split_forget(ds, 40.0, scope="all", seed=11)
        b = split_forget(ds, 40.0, scope="all", seed=11)
        np.testing.assert_array_equal(a.permutation, b.permutation)


class TestValidation:
    def test_feature_range_enforced(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[1.5]]), np.array([[1.0]]), np.array([0]))

    def test_onehot_enforced(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), np.array([0]))

    def test_blobs_in_range(self):
        ds = make_blobs(200, 3, d_in=6, seed=1, noise=0.5)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


class TestRealSubsets:
    def test_mnist_three_eight_subset_if_available(self):
        ip = os.path.join(data_dir(), "train-images-idx3-ubyte")
        lp = os.path.join(data_dir(), "train-labels-idx1-ubyte")
        if not (os.path.exists(ip) and os.path.exists(lp)):
            pytest.skip("real MNIST train split not present in KINF_DATA_DIR")
        ds = load_idx(ip, lp)
        sub = subset_per_class(ds, [3, 8], per_class=5000, seed=0, encoding="pm1")
        assert sub.n == 10000 and sub.d_out == 1

    def test_cifar_two_class_subset_if_available(self):
        p = os.path.join(data_dir(), "cifar-10-batches-bin", "data_batch_1.bin")
        if not os.path.exists(p):
            pytest.skip("real CIFAR-10 batch not present in KINF_DATA_DIR")
        ds = load_cifar_binary(p)
        per = min(1000, int(np.sum(ds.labels == 0)), int(np.sum(ds.labels == 1)))
        sub = subset_per_class(ds, [0, 1], per_class=per, seed=0)
        assert sub.n == 2 * per and sub.d_out == 2
