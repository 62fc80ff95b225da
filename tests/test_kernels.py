"""Kernel assembly, Kronecker structure, sharded matvec, cache format."""

import struct
import tracemalloc

import numpy as np
import pytest

from kinfluence.datasets import make_blobs
from kinfluence.errors import (BadHeader, BadMagic, CheckpointMismatch, ConfigError, PartitionGap,
                              PartitionOverlap, TruncatedFile)
from kinfluence.kernels import (
    CACHE_MAGIC,
    KernelMatrix,
    _layer_gram,
    empirical_kron_factor,
    empirical_ntk,
    even_shards,
    read_kernel_cache,
    sharded_matvec,
    validate_shards,
    write_kernel_cache,
)
from kinfluence.models import Linearization, ModelSpec, save_params, stacked_jacobian


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
        j = stacked_jacobian(spec, theta, x)
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


class TestKronFactorFromLayers:
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("parameterization", ["standard", "ntk"])
    @pytest.mark.parametrize("hidden", [(12,), (12, 7)], ids=["one_hidden", "two_hidden"])
    def test_equals_assembled_kron_factor(self, hidden, parameterization, bias):
        spec = ModelSpec((4, *hidden, 3), parameterization=parameterization, bias=bias,
                         init_seed=6)
        theta = spec.init_params()
        x = make_blobs(5, 3, d_in=4, seed=7).features
        want = empirical_ntk(spec, theta, x).kron_factor()
        got = empirical_kron_factor(Linearization(spec, theta, x))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def repeat_reference(spec, theta, X1, X2=None):
    """Every layer's full (point, point) gram expanded with np.repeat and
    multiplied into the full signal product: the block formula in its
    plainest form, with no symmetry and no identity shortcut."""
    lz1 = Linearization(spec, theta, X1)
    lz2 = lz1 if X2 is None else Linearization(spec, theta, X2)
    a1, d1, a2, d2 = lz1.acts, lz1.signals(), lz2.acts, lz2.signals()
    n1, n2, d = a1[0].shape[0], a2[0].shape[0], spec.d_out
    out = np.zeros((n1 * d, n2 * d))
    for layer in range(spec.n_layers):
        s_w, s_b = spec.layer_scales(layer)
        gram = (s_w ** 2) * (a1[layer] @ a2[layer].T)
        if spec.bias:
            gram = gram + s_b ** 2
        dd = d1[layer].reshape(n1 * d, -1) @ d2[layer].reshape(n2 * d, -1).T
        out += np.repeat(np.repeat(gram, d, axis=0), d, axis=1) * dd
    return out


ASSEMBLY_SPECS = {
    "output_layer_only": ModelSpec((5, 3), init_seed=1),
    "relu_2_layers": ModelSpec((5, 16, 3), init_seed=2),
    "relu_3_layers": ModelSpec((5, 12, 8, 3), init_seed=3),
    "identity": ModelSpec((5, 16, 3), activation="identity", init_seed=4),
    "no_bias": ModelSpec((5, 12, 8, 3), bias=False, init_seed=5),
    "ntk_parameterization": ModelSpec((5, 12, 8, 3), parameterization="ntk", init_seed=6),
}


class TestAssembly:
    """Upper row blocks mirrored, the output layer as gram (x) I."""

    @pytest.mark.parametrize("n", [1, 64, 65, 130])
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_SPECS))
    def test_symmetric_and_matches_repeat_formula(self, name, n):
        spec = ASSEMBLY_SPECS[name]
        theta = spec.init_params()
        x = np.random.default_rng(n).uniform(-1, 1, size=(n, spec.d_in))
        k = empirical_ntk(spec, theta, x).dense
        assert np.array_equal(k, k.T)
        ref = repeat_reference(spec, theta, x)
        assert np.max(np.abs(k - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", sorted(ASSEMBLY_SPECS))
    def test_cross_kernel_matches_symmetric_rows(self, name):
        spec = ASSEMBLY_SPECS[name]
        theta = spec.init_params()
        x = np.random.default_rng(7).uniform(-1, 1, size=(130, spec.d_in))
        full = empirical_ntk(spec, theta, x).dense
        for k in (1, 65, 130):
            cross = empirical_ntk(spec, theta, x[:k], x).dense
            rows = full[:k * spec.d_out]
            assert np.max(np.abs(cross - rows)) <= 1e-13 * np.max(np.abs(rows))
            ref = repeat_reference(spec, theta, x[:k], x)
            assert np.max(np.abs(cross - ref)) <= 1e-13 * np.max(np.abs(ref))


def square_reference(spec, theta, x):
    """The training kernel as a full square, assembled as it was before the
    kernel was held as block rows: each 64-point row block from its diagonal
    on, written into the square and mirrored into the rows below."""
    lz = Linearization(spec, theta, x)
    acts, sig = lz.acts, lz.signals()
    n, d = len(x), spec.d_out
    out = np.zeros((n * d, n * d))
    for r0 in range(0, n, 64):
        r1 = min(r0 + 64, n)
        blk = out.reshape(n, d, n, d)[r0:r1, :, r0:]
        for layer in range(spec.n_layers):
            gram = _layer_gram(spec, layer, acts[layer][r0:r1], acts[layer][r0:])
            if layer == spec.n_layers - 1:
                for k in range(d):
                    blk[:, k, :, k] += gram
                continue
            dd = (sig[layer][r0:r1].reshape((r1 - r0) * d, -1)
                  @ sig[layer][r0:].reshape((n - r0) * d, -1).T).reshape(r1 - r0, d, n - r0, d)
            dd *= gram[:, None, :, None]
            blk += dd
        rows = slice(r0 * d, r1 * d)
        tile = out[rows, rows]
        np.copyto(tile, tile.T, where=np.tri(len(tile), k=-1, dtype=bool))
        out[r1 * d:, rows] = out[rows, r1 * d:].T
    return out


def as_block_rows(square, d, bounds):
    """A symmetric square held as its upper block rows, cut at the point
    ``bounds``."""
    return KernelMatrix(d, dense=[square[a * d:b * d, a * d:].copy()
                                  for a, b in zip(bounds[:-1], bounds[1:])])


class TestBlockRows:
    """A training kernel is held as its upper block rows K[e:e+b, e:]; every
    method reads them as it reads the same kernel held as a full square."""

    @pytest.mark.parametrize("parameterization", ["standard", "ntk"])
    @pytest.mark.parametrize("hidden", [(12,), (12, 7)], ids=["one_hidden", "two_hidden"])
    def test_dense_is_the_full_square_bitwise(self, hidden, parameterization):
        spec = ModelSpec((5, *hidden, 3), parameterization=parameterization, init_seed=8)
        theta = spec.init_params()
        x = np.random.default_rng(8).uniform(-1, 1, size=(150, 5))
        k = empirical_ntk(spec, theta, x)
        # three block rows of 64, 64 and 22 points: about 0.6 of the square held
        assert k.shape == (450, 450)
        dense = k.dense
        assert np.array_equal(dense, square_reference(spec, theta, x))
        assert np.array_equal(dense, dense.T)
        np.testing.assert_array_equal(k.to_dense(), dense)

    def test_cache_bytes_unchanged_and_read_back_bitwise(self, tmp_path):
        spec = ModelSpec((5, 12, 3), init_seed=9)
        theta = spec.init_params()
        x = np.random.default_rng(9).uniform(-1, 1, size=(150, 5))
        path = tmp_path / "k.bin"
        write_kernel_cache(str(path), empirical_ntk(spec, theta, x))
        square = square_reference(spec, theta, x)
        head = CACHE_MAGIC + struct.pack("<QQBB", 150, 3, 0, 0) + spec.spec_hash()
        assert path.read_bytes() == head + square.astype("<f8").tobytes()
        back = read_kernel_cache(str(path), expect_hash=spec.spec_hash())
        assert back.shape == (450, 450)
        np.testing.assert_array_equal(back.dense, square)
        # a second write of the kernel read back gives the same bytes
        write_kernel_cache(str(tmp_path / "again.bin"), back)
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("select", ["stored", "permutation", "row_subset", "view_of_view",
                                        "repeated_points"])
    def test_agrees_with_the_full_square(self, select):
        rng = np.random.default_rng(11)
        n, d = 150, 2
        a = rng.standard_normal((n * d, 40))
        square = a @ a.T
        square = np.triu(square) + np.triu(square, 1).T  # exactly symmetric
        upper, plain = as_block_rows(square, d, [0, 50, 114, 150]), KernelMatrix(d, dense=square)
        perm, sub = rng.permutation(n), np.array([140, 7, 60, 99, 0])
        got, want = upper, plain
        if select != "stored":
            rows, cols = {"permutation": (perm, perm), "row_subset": (sub, slice(None)),
                          "view_of_view": (perm, perm),
                          "repeated_points": (np.array([3, 3, 120]), np.array([149, 0, 149, 64]))
                          }[select]
            got, want = (k.submatrix(rows, cols) for k in (upper, plain))
        if select == "view_of_view":
            got, want = (k.submatrix(sub, sub[::-1]) for k in (got, want))
        assert got.shape == want.shape
        v = rng.standard_normal(got.shape[1])
        pick = (np.array([2, 0]), slice(1, None))
        for g, w in [(got.matvec(v), want.matvec(v)), (got.kron_factor(), want.kron_factor()),
                     (got.rows_block(*pick), want.rows_block(*pick)),
                     (got.gather().dense, want.gather().dense),
                     (got.gather().matvec(v), want.matvec(v))]:
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
        # entries are copied, never recomputed
        np.testing.assert_array_equal(got.rows_block(slice(None), slice(None)),
                                      want.rows_block(slice(None), slice(None)))


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of ``fn()``, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.mark.parametrize("widths", [(4, 8, 4), (4, 8, 6, 4)], ids=["2_layers", "3_layers"])
    def test_assembly_peak_is_output_plus_two_row_blocks(self, widths):
        # the upper block rows hold half the square plus half of each diagonal
        # tile, and the scratch buffer is one row block: no full square exists
        spec = ModelSpec(widths, init_seed=9)
        theta = spec.init_params()
        n, d = 200, spec.d_out
        x = np.random.default_rng(9).uniform(0, 1, size=(n, spec.d_in))
        peak = traced_peak(lambda: empirical_ntk(spec, theta, x))
        output = (n * d) ** 2 * 8
        row_block = 64 * d * n * d * 8  # one row block of points, every column
        assert peak <= output / 2 + 2 * row_block

    def test_cache_write_streams_from_the_array(self, tmp_path):
        dense = np.random.default_rng(10).standard_normal((600, 600))
        dense += dense.T  # a training kernel: read back as its upper block rows
        k = KernelMatrix(3, dense=dense)
        path = str(tmp_path / "k.bin")
        peak = traced_peak(lambda: write_kernel_cache(path, k))
        assert peak < 0.1 * dense.nbytes
        np.testing.assert_array_equal(read_kernel_cache(path).dense, dense)

    def test_cache_read_holds_the_block_rows(self, tmp_path):
        # 600 points in block rows of 64: 0.55 of the square, plus a read
        # buffer of 9 points' rows
        dense = np.random.default_rng(13).standard_normal((1200, 1200))
        dense += dense.T
        path = str(tmp_path / "k.bin")
        write_kernel_cache(path, KernelMatrix(2, dense=dense))
        out = []
        peak = traced_peak(lambda: out.append(read_kernel_cache(path)))
        assert peak <= 0.6 * dense.nbytes
        np.testing.assert_array_equal(out[0].dense, dense)

    def test_checkpoint_write_streams_from_the_array(self, tmp_path):
        spec = ModelSpec((50, 400, 10), init_seed=11)
        theta = spec.init_params()
        peak = traced_peak(lambda: save_params(str(tmp_path / "t.bin"), spec, theta))
        # the finiteness check's boolean mask is an eighth of the payload
        assert peak < 0.25 * theta.nbytes


class TestKron:
    def test_matvec_matches_dense_expansion(self):
        rng = np.random.default_rng(2)
        sigma = rng.standard_normal((5, 5))
        sigma = sigma @ sigma.T
        k = KernelMatrix(3, sigma=sigma)
        v = rng.standard_normal(15)
        np.testing.assert_allclose(k.matvec(v), np.kron(sigma, np.eye(3)) @ v, atol=1e-12)
        np.testing.assert_allclose(k.to_dense(), np.kron(sigma, np.eye(3)), atol=1e-15)

    def test_submatrix_keeps_structure(self):
        rng = np.random.default_rng(3)
        sigma = rng.standard_normal((6, 6))
        k = KernelMatrix(2, sigma=sigma)
        sub = k.submatrix(np.array([1, 4]), np.array([0, 2, 5]))
        assert sub.sigma is not None
        full = np.kron(sigma, np.eye(2))
        rows = np.array([2, 3, 8, 9])
        cols = np.array([0, 1, 4, 5, 10, 11])
        np.testing.assert_array_equal(sub.to_dense(), full[np.ix_(rows, cols)])


class TestSubmatrixViews:
    """submatrix gives an index view of the stored matrix; only gathers copy."""

    @pytest.mark.parametrize("kron", [False, True], ids=["dense", "kron"])
    def test_slices_and_index_arrays_select_alike(self, kron):
        rng = np.random.default_rng(4)
        if kron:
            k = KernelMatrix(3, sigma=rng.standard_normal((7, 7)))
            stored = k.sigma
        else:
            k = KernelMatrix(3, dense=rng.standard_normal((21, 21)))
            stored = k.dense
        unit = 1 if kron else 3
        for rows, cols in [(slice(2, 7), slice(0, 2)), (slice(0, 7), slice(3, None)),
                           (slice(-2, None), slice(1, 6)), (slice(0, 4, 2), slice(None))]:
            view = k.submatrix(rows, cols)
            same = k.submatrix(np.arange(7)[rows], np.arange(7)[cols])
            np.testing.assert_array_equal(view.rows, same.rows)
            np.testing.assert_array_equal(view.cols, same.cols)
            block = view.sigma if kron else view.dense
            # a gathered block, never the stored matrix
            assert not np.shares_memory(block, stored)
            r, c = ((np.arange(7)[i][:, None] * unit + np.arange(unit)).ravel()
                    for i in (rows, cols))
            np.testing.assert_array_equal(block, stored[np.ix_(r, c)])
            block[0, 0] = np.inf
            assert np.all(np.isfinite(stored))

    def test_views_copy_nothing(self):
        k = KernelMatrix(10, dense=np.random.default_rng(5).standard_normal((1000, 1000)))
        perm = np.random.default_rng(6).permutation(100)
        peak = traced_peak(lambda: k.submatrix(perm, perm).submatrix(slice(10, None, 2),
                                                                      perm[:30]))
        assert peak < 0.01 * k.dense.nbytes
        view = k.submatrix(slice(0, 4, 2), slice(None))
        assert view.shape == (20, 1000)
        np.testing.assert_array_equal(view.dense, k.dense[np.r_[0:10, 20:30]])

    @pytest.mark.parametrize("select", ["row_subset", "column_subset", "permutation",
                                        "view_of_view", "repeated_points"])
    @pytest.mark.parametrize("kron", [False, True], ids=["dense", "kron"])
    def test_view_matches_gathered_matrix(self, kron, select):
        rng = np.random.default_rng(7)
        n, d = 9, 3
        a = rng.standard_normal((n * (1 if kron else d), 40))
        stored = a @ a.T
        k = KernelMatrix(d, sigma=stored) if kron else KernelMatrix(d, dense=stored)
        perm, sub = rng.permutation(n), np.array([7, 2, 5, 0])
        rows, cols = {"row_subset": (sub, np.arange(n)), "column_subset": (np.arange(n), sub),
                      "permutation": (perm, perm), "view_of_view": (perm[sub], perm[sub[::-1]]),
                      "repeated_points": (np.array([3, 3, 1]), np.array([4, 0, 4, 4]))}[select]
        if select == "view_of_view":
            view = k.submatrix(perm, perm).submatrix(sub, sub[::-1])
        else:
            view = k.submatrix(rows, cols)
        unit = 1 if kron else d
        r, c = ((i[:, None] * unit + np.arange(unit)).ravel() for i in (rows, cols))
        block = stored[np.ix_(r, c)]
        ref = KernelMatrix(d, sigma=block) if kron else KernelMatrix(d, dense=block)
        assert view.shape == ref.shape and view.kron == kron
        v = rng.standard_normal(view.shape[1])
        part = ref.submatrix([2, 0], slice(1, None))
        part = part.sigma if kron else part.dense
        for got, want in [(view.matvec(v), ref.matvec(v)),
                          (view.kron_factor(), ref.kron_factor()),
                          (view.to_dense(), ref.to_dense()),
                          (view.gather().sigma if kron else view.gather().dense, block),
                          (view.rows_block(slice(None), slice(None)), block),
                          (view.rows_block([2, 0], slice(1, None)), part)]:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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


class TestCache:
    def test_round_trip_dense(self, tmp_path):
        spec = ModelSpec((3, 8, 2), init_seed=8)
        ds = make_blobs(6, 2, d_in=3, seed=9)
        k = empirical_ntk(spec, spec.init_params(), ds.features)
        p = str(tmp_path / "k.bin")
        write_kernel_cache(p, k)
        k2 = read_kernel_cache(p, expect_hash=spec.spec_hash())
        np.testing.assert_array_equal(k.dense, k2.dense)
        assert k2.sigma is None and k2.d_out == 2
        # the source tag (byte 24) follows the form byte (25)
        assert (tmp_path / "k.bin").read_bytes()[24:26] == bytes([0, 0])

    def test_round_trip_kron(self, tmp_path):
        sigma = np.random.default_rng(6).standard_normal((4, 4))
        k = KernelMatrix(3, sigma=sigma)
        p = str(tmp_path / "k.bin")
        write_kernel_cache(p, k)
        k2 = read_kernel_cache(p)
        np.testing.assert_array_equal(sigma, k2.sigma)
        assert k2.dense is None
        assert (tmp_path / "k.bin").read_bytes()[24:26] == bytes([1, 1])

    @pytest.mark.parametrize("kron", [False, True], ids=["dense", "kron"])
    def test_view_written_as_its_block(self, tmp_path, kron):
        rng = np.random.default_rng(12)
        k = (KernelMatrix(2, sigma=rng.standard_normal((5, 5))) if kron else
             KernelMatrix(2, dense=rng.standard_normal((10, 10))))
        view = k.submatrix([4, 1, 2], [4, 1, 2])
        p = str(tmp_path / "k.bin")
        write_kernel_cache(p, view)
        back = read_kernel_cache(p)
        assert back.kron == kron and back.n_rows == 3
        np.testing.assert_array_equal(back.to_dense(), view.to_dense())

    def test_spec_hash_mismatch_rejected(self, tmp_path):
        # a kernel assembled for one network is no kernel of another
        ds = make_blobs(4, 2, d_in=3, seed=9)
        p = str(tmp_path / "k.bin")
        write_kernel_cache(p, empirical_ntk(ModelSpec((3, 8, 2), init_seed=8),
                                            ModelSpec((3, 8, 2), init_seed=8).init_params(),
                                            ds.features))
        with pytest.raises(CheckpointMismatch, match="spec hash mismatch"):
            read_kernel_cache(p, expect_hash=ModelSpec((3, 8, 2), init_seed=9).spec_hash())
        assert read_kernel_cache(p).n_rows == 8  # no expected hash, no check

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTAKERN" + bytes(64))
        with pytest.raises(BadMagic):
            read_kernel_cache(str(p))

    # header bytes 24 and 25 hold the source tag and the form byte
    @pytest.mark.parametrize("offset, value", [(25, 2), (24, 7)], ids=["form", "source"])
    def test_unknown_header_byte_rejected(self, tmp_path, offset, value):
        p = tmp_path / "k.bin"
        write_kernel_cache(str(p), KernelMatrix(2, sigma=np.eye(3)))
        raw = bytearray(p.read_bytes())
        raw[offset] = value
        p.write_bytes(bytes(raw))
        with pytest.raises(BadHeader) as err:
            read_kernel_cache(str(p))
        assert isinstance(err.value, ConfigError)

    @pytest.mark.parametrize("form", ["dense", "kron"])
    @pytest.mark.parametrize("change", [-8, 8], ids=["truncated", "overlong"])
    def test_payload_length_checked(self, tmp_path, form, change):
        k = (KernelMatrix(2, dense=np.eye(6)) if form == "dense" else
             KernelMatrix(2, sigma=np.eye(3)))
        p = tmp_path / "k.bin"
        write_kernel_cache(str(p), k)
        raw = p.read_bytes()
        p.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
        with pytest.raises(TruncatedFile) as err:
            read_kernel_cache(str(p))
        assert isinstance(err.value, ConfigError)

    def test_short_header_rejected(self, tmp_path):
        p = tmp_path / "k.bin"
        write_kernel_cache(str(p), KernelMatrix(2, sigma=np.eye(3)))
        p.write_bytes(p.read_bytes()[:20])
        with pytest.raises(TruncatedFile):
            read_kernel_cache(str(p))
