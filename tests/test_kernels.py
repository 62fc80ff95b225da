"""Kernel assembly, Kronecker structure, sharded matvec, cache format."""

import numpy as np
import pytest

from kinfluence.datasets import make_blobs
from kinfluence.errors import (BadHeader, BadMagic, ConfigError, PartitionGap, PartitionOverlap,
                              TruncatedFile)
from kinfluence.kernels import (
    ANALYTIC,
    EMPIRICAL,
    KernelMatrix,
    empirical_ntk,
    even_shards,
    read_kernel_cache,
    sharded_matvec,
    validate_shards,
    write_kernel_cache,
)
from kinfluence.models import ModelSpec, jacobian, stacked_jacobian


class TestEmpirical:
    def test_linear_model_inner_products(self):
        spec = ModelSpec((3, 1), activation="identity", bias=False)
        x = np.array([[1.0, 0.0, 2.0], [0.5, 1.0, -1.0]])
        k = empirical_ntk(spec, np.zeros(3), x)
        np.testing.assert_allclose(k.dense, x @ x.T, atol=1e-14)

    def test_single_point_is_jacobian_norm(self):
        spec = ModelSpec((4, 7, 1), init_seed=1)
        theta = spec.init_params()
        x = np.array([[0.2, 0.8, 0.1, 0.5]])
        k = empirical_ntk(spec, theta, x)
        j = jacobian(spec, theta, x[0])
        assert k.dense[0, 0] == pytest.approx((j @ j.T).item(), rel=1e-12)

    def test_matches_explicit_jacobian_product(self):
        spec = ModelSpec((5, 64, 3), init_seed=2)
        theta = spec.init_params()
        x = np.random.default_rng(0).uniform(0, 1, size=(10, 5))
        k = empirical_ntk(spec, theta, x)
        jac = stacked_jacobian(spec, theta, x)
        ref = jac @ jac.T
        assert np.max(np.abs(k.dense - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cross_kernel_matches_jacobians(self):
        spec = ModelSpec((4, 16, 2), init_seed=3, parameterization="ntk")
        theta = spec.init_params()
        rng = np.random.default_rng(1)
        x1, x2 = rng.uniform(0, 1, (6, 4)), rng.uniform(0, 1, (3, 4))
        k = empirical_ntk(spec, theta, x1, x2)
        ref = stacked_jacobian(spec, theta, x1) @ stacked_jacobian(spec, theta, x2).T
        np.testing.assert_allclose(k.dense, ref, atol=1e-11 * np.abs(ref).max())

    def test_symmetric_psd(self):
        spec = ModelSpec((4, 24, 2), init_seed=4)
        ds = make_blobs(8, 2, d_in=4, seed=5)
        k = empirical_ntk(spec, spec.init_params(), ds.features)
        np.testing.assert_allclose(k.dense, k.dense.T, atol=1e-12)
        min_eig = np.linalg.eigvalsh((k.dense + k.dense.T) / 2.0).min()
        assert min_eig >= -1e-8 * np.trace(k.dense) / k.n_rows


class TestKron:
    def test_matvec_matches_dense_expansion(self):
        rng = np.random.default_rng(2)
        sigma = rng.standard_normal((5, 5))
        sigma = sigma @ sigma.T
        k = KernelMatrix(3, ANALYTIC, sigma=sigma)
        v = rng.standard_normal(15)
        np.testing.assert_allclose(k.matvec(v), np.kron(sigma, np.eye(3)) @ v, atol=1e-12)
        np.testing.assert_allclose(k.to_dense(), np.kron(sigma, np.eye(3)), atol=1e-15)

    def test_submatrix_keeps_structure(self):
        rng = np.random.default_rng(3)
        sigma = rng.standard_normal((6, 6))
        k = KernelMatrix(2, ANALYTIC, sigma=sigma)
        sub = k.submatrix(np.array([1, 4]), np.array([0, 2, 5]))
        assert sub.sigma is not None
        full = np.kron(sigma, np.eye(2))
        rows = np.array([2, 3, 8, 9])
        cols = np.array([0, 1, 4, 5, 10, 11])
        np.testing.assert_array_equal(sub.to_dense(), full[np.ix_(rows, cols)])


class TestShardedMatvec:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.a = rng.standard_normal((40, 40))
        self.v = rng.standard_normal(40)

    def test_single_shard_matches_dense(self):
        y, secs = sharded_matvec(self.a, self.v, [(0, 40)])
        np.testing.assert_allclose(y, self.a @ self.v, rtol=1e-13)
        assert len(secs) == 1

    def test_bitwise_equal_across_shard_counts(self):
        ref, _ = sharded_matvec(self.a, self.v, even_shards(40, 1))
        for count in (2, 3, 4, 7):
            y, secs = sharded_matvec(self.a, self.v, even_shards(40, count))
            assert np.array_equal(ref, y)
            assert len(secs) == count

    def test_bitwise_equal_uneven_partition(self):
        ref, _ = sharded_matvec(self.a, self.v, [(0, 40)])
        y, _ = sharded_matvec(self.a, self.v, [(0, 3), (3, 8), (8, 40)])
        assert np.array_equal(ref, y)

    def test_partition_gap(self):
        with pytest.raises(PartitionGap):
            sharded_matvec(self.a[:10], self.v, [(0, 3), (3, 8)])  # row 9 missing

    def test_partition_overlap(self):
        with pytest.raises(PartitionOverlap):
            validate_shards([(0, 5), (4, 10)], 10)

    def test_threaded_matches_serial(self):
        spans = even_shards(40, 4)
        a, _ = sharded_matvec(self.a, self.v, spans, workers=1)
        b, _ = sharded_matvec(self.a, self.v, spans, workers=4)
        assert np.array_equal(a, b)


class TestCache:
    def test_round_trip_dense(self, tmp_path):
        spec = ModelSpec((3, 8, 2), init_seed=8)
        ds = make_blobs(6, 2, d_in=3, seed=9)
        k = empirical_ntk(spec, spec.init_params(), ds.features)
        p = str(tmp_path / "k.bin")
        write_kernel_cache(p, k)
        k2 = read_kernel_cache(p, expect_hash=spec.spec_hash())
        np.testing.assert_array_equal(k.dense, k2.dense)
        assert k2.source == EMPIRICAL and k2.d_out == 2

    def test_round_trip_kron(self, tmp_path):
        sigma = np.random.default_rng(6).standard_normal((4, 4))
        k = KernelMatrix(3, ANALYTIC, sigma=sigma)
        p = str(tmp_path / "k.bin")
        write_kernel_cache(p, k)
        k2 = read_kernel_cache(p)
        np.testing.assert_array_equal(sigma, k2.sigma)
        assert k2.source == ANALYTIC

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTAKERN" + bytes(64))
        with pytest.raises(BadMagic):
            read_kernel_cache(str(p))

    # header bytes 24 and 25 hold the source tag and the form byte
    @pytest.mark.parametrize("offset, value", [(25, 2), (24, 7)], ids=["form", "source"])
    def test_unknown_header_byte_rejected(self, tmp_path, offset, value):
        p = tmp_path / "k.bin"
        write_kernel_cache(str(p), KernelMatrix(2, ANALYTIC, sigma=np.eye(3)))
        raw = bytearray(p.read_bytes())
        raw[offset] = value
        p.write_bytes(bytes(raw))
        with pytest.raises(BadHeader) as err:
            read_kernel_cache(str(p))
        assert isinstance(err.value, ConfigError)

    @pytest.mark.parametrize("form", ["dense", "kron"])
    @pytest.mark.parametrize("change", [-8, 8], ids=["truncated", "overlong"])
    def test_payload_length_checked(self, tmp_path, form, change):
        k = (KernelMatrix(2, EMPIRICAL, dense=np.eye(6)) if form == "dense" else
             KernelMatrix(2, ANALYTIC, sigma=np.eye(3)))
        p = tmp_path / "k.bin"
        write_kernel_cache(str(p), k)
        raw = p.read_bytes()
        p.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
        with pytest.raises(TruncatedFile) as err:
            read_kernel_cache(str(p))
        assert isinstance(err.value, ConfigError)

    def test_short_header_rejected(self, tmp_path):
        p = tmp_path / "k.bin"
        write_kernel_cache(str(p), KernelMatrix(2, ANALYTIC, sigma=np.eye(3)))
        p.write_bytes(p.read_bytes()[:20])
        with pytest.raises(TruncatedFile):
            read_kernel_cache(str(p))
