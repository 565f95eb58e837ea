from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiggm import (
    CovarianceSet,
    DataFormatError,
    DimensionMismatchError,
    MultiPopDataset,
    NotPositiveDefiniteError,
    PrecisionSet,
    draw_mvn,
    draw_mvn_dataset,
    ingest_csv,
    invert_pd,
    population_seed,
    sample_covariance,
)
from multiggm import _blas
from multiggm.core import derive_seed
from multiggm.graphs import chain_precision, star_precision

from oracles import draw_mvn_oracle


def random_pd(rng, p, ridge=0.5):
    a = rng.standard_normal((p, 2 * p))
    return (a @ a.T) / (2 * p) + ridge * np.eye(p)


class TestInvertPd:
    def test_identity(self):
        assert np.allclose(invert_pd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        out = invert_pd(np.diag([2.0, 4.0]))
        assert np.allclose(out, np.diag([0.5, 0.25]))

    def test_tridiagonal_residual(self):
        m = chain_precision(4, 0.2)
        inv = invert_pd(m)
        assert np.max(np.abs(m @ inv - np.eye(4))) <= 1e-10
        assert np.array_equal(inv, inv.T)

    def test_double_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        for p in (2, 5, 17, 50):
            m = random_pd(rng, p)
            m = (m + m.T) / 2
            assert np.max(np.abs(invert_pd(invert_pd(m)) - m)) <= 1e-8

    def test_non_pd_is_a_distinct_error(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            invert_pd(bad)
        with pytest.raises(DimensionMismatchError):
            invert_pd(np.ones((2, 3)))


class TestSampleCovariance:
    def test_two_point_example(self):
        data = MultiPopDataset([np.array([[1.0, 0.0], [-1.0, 0.0]])])
        covs = sample_covariance(data)
        assert np.array_equal(covs.matrices[0], np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_zero_data_gives_zero_matrix(self):
        data = MultiPopDataset([np.zeros((5, 3))])
        covs = sample_covariance(data)
        assert np.array_equal(covs.matrices[0], np.zeros((3, 3)))

    def test_centering_flag(self, tmp_path):
        # Centering is ingest_csv's, the path `--center` runs.
        x = np.array([[1.0, 2.0], [3.0, 2.0], [5.0, 2.0]])
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3,2\n5,2\n")
        raw = sample_covariance(ingest_csv([str(path)]))
        centered = sample_covariance(ingest_csv([str(path)], center=True))
        assert raw.matrices[0][0, 0] == pytest.approx(np.mean(x[:, 0] ** 2))
        assert centered.matrices[0][0, 0] == pytest.approx(np.var(x[:, 0]))
        assert centered.matrices[0][1, 1] == 0.0

    def test_large_sample_recovers_chain_covariance(self):
        # Monte Carlo oracle: the sample covariance of many chain-model draws
        # approaches the true inverse of the chain precision.
        omega = chain_precision(5, 0.2)
        sigma = invert_pd(omega)
        x = draw_mvn(omega, 100000, seed=123)
        covs = sample_covariance(MultiPopDataset([x]))
        assert np.max(np.abs(covs.matrices[0] - sigma)) <= 0.02

    def test_symmetric_psd_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, p = int(rng.integers(2, 30)), int(rng.integers(1, 8))
            data = MultiPopDataset([rng.standard_normal((n, p))])
            s = sample_covariance(data).matrices[0]
            assert np.array_equal(s, s.T)
            assert np.min(np.linalg.eigvalsh(s)) >= -1e-10

    def test_rejects_single_observation(self):
        with pytest.raises(DataFormatError):
            MultiPopDataset([np.ones((1, 3))])

    def test_rejects_column_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MultiPopDataset([np.ones((3, 2)), np.ones((3, 4))])


class TestDrawMvn:
    def test_same_seed_is_bit_identical(self):
        omega = chain_precision(4, 0.2)
        a = draw_mvn(omega, 50, seed=99)
        b = draw_mvn(omega, 50, seed=99)
        assert np.array_equal(a, b)
        c = draw_mvn(omega, 50, seed=100)
        assert not np.array_equal(a, c)

    def test_identity_precision_unit_variances(self):
        x = draw_mvn(np.eye(3), 100000, seed=1)
        assert np.all(np.abs(x.var(axis=0) - 1.0) <= 0.05)
        assert np.all(np.abs(x.mean(axis=0)) <= 0.05)

    def test_scaled_precision_variances(self):
        x = draw_mvn(np.diag([4.0, 4.0]), 100000, seed=2)
        assert np.all(np.abs(x.var(axis=0) - 0.25) <= 0.02)

    def test_non_pd_precision_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            draw_mvn(np.array([[1.0, 2.0], [2.0, 1.0]]), 10, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["chain", "star", "random"]),
        st.integers(1, 200),
        st.integers(1, 300),
        st.integers(0, 2**64 - 1),
        st.booleans(),
    )
    def test_bit_identical_to_triangular_solve(self, kind, p, n, seed, pinned):
        if kind == "chain":
            precision = chain_precision(p, 0.45)
        elif kind == "star":
            precision = star_precision(p, min(p - 1, 10), 1.0, 0.25, seed)[0]
        else:
            m = random_pd(np.random.default_rng(seed), p, ridge=0.1)
            precision = (m + m.T) / 2.0
        with _blas.single_threaded() if pinned else nullcontext():
            got = draw_mvn(precision, n, seed)
            want = draw_mvn_oracle(precision, n, seed)
        assert np.array_equal(got, want)

    def test_dataset_uses_xor_population_streams(self):
        truth = PrecisionSet([np.eye(3), np.eye(3)], positive_definite=True)
        data = draw_mvn_dataset(truth, (20, 20), seed=8)
        assert np.array_equal(data.data[0], draw_mvn(np.eye(3), 20, population_seed(8, 0)))
        assert np.array_equal(data.data[1], draw_mvn(np.eye(3), 20, population_seed(8, 1)))
        assert not np.array_equal(data.data[0], data.data[1])


class TestSeedDerivation:
    def test_derive_seed_is_stable_and_spread(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seeds = {derive_seed(5, b) for b in range(1000)}
        assert len(seeds) == 1000

    @given(st.integers(0, 2**63), st.integers(0, 31))
    @settings(max_examples=50, deadline=None)
    def test_population_seed_is_involutive_xor(self, seed, k):
        assert population_seed(population_seed(seed, k), k) == seed & (2**64 - 1)


class TestSetValidation:
    def test_exact_symmetry_enforced(self):
        m = np.eye(3)
        m[0, 1] = 1e-14
        with pytest.raises(DataFormatError):
            CovarianceSet([m], [10])

    def test_covariance_positive_diagonal_check(self):
        covs = CovarianceSet([np.diag([1.0, 0.0])], [10])
        with pytest.raises(DataFormatError):
            covs.require_positive_diagonal()

    def test_pd_flag_verified(self):
        with pytest.raises(NotPositiveDefiniteError):
            PrecisionSet([np.array([[1.0, 2.0], [2.0, 1.0]])], positive_definite=True)

    def test_matrices_are_frozen(self):
        covs = CovarianceSet([np.eye(2)], [5])
        with pytest.raises(ValueError):
            covs.matrices[0][0, 0] = 2.0


_INT64 = st.integers(-(2**63), 2**64 - 1)


class TestSeedRange:
    def test_pinned_value(self):
        assert derive_seed(1, 2, 3) == 13041116711478803063

    @given(_INT64, st.lists(_INT64, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_full_signed_and_unsigned_range(self, base, indices):
        seed = derive_seed(base, *indices)
        assert 0 <= seed < 2**64
        mask = 2**64 - 1
        assert seed == derive_seed(base & mask, *(i & mask for i in indices))

    @given(st.integers(0, 2**63 - 1), st.lists(st.integers(0, 2**63 - 1), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_signed_packing_where_it_applies(self, base, indices):
        import hashlib
        import struct

        h = hashlib.blake2b(digest_size=8)
        for value in (base, *indices):
            h.update(struct.pack("<q", value))
        assert derive_seed(base, *indices) == int.from_bytes(h.digest(), "little")
