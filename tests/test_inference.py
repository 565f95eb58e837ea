import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiggm import (
    CovarianceSet,
    DataFormatError,
    DimensionMismatchError,
    LinearCombo,
    PrecisionSet,
    combine,
    confidence_interval,
    debias,
    entry_variances,
    invert_pd,
    normal_cdf,
    normal_quantile,
    upper_quantile,
)

from multiggm import test_linear_combo as linear_combo_test

from oracles import random_covariance_set, scalar_combination, scalar_variance


def _sets(matrices, covariances, sizes):
    est = PrecisionSet(matrices, positive_definite=True)
    covs = CovarianceSet(covariances, sizes)
    return est, covs


class TestDebias:
    def test_exact_inverse_is_fixed_point(self):
        rng = np.random.default_rng(4)
        for p in (2, 10, 50):
            m = random_covariance_set(rng, p, 1)[0]
            est, covs = _sets([m], [invert_pd(m)], [100])
            out = debias(est, covs)
            assert np.max(np.abs(out.matrices[0] - m)) <= 1e-10

    def test_identity_case(self):
        est, covs = _sets([np.eye(3)], [np.eye(3)], [10])
        assert np.array_equal(debias(est, covs).matrices[0], np.eye(3))

    def test_small_perturbation_flips_sign(self):
        e = np.zeros((2, 2))
        e[0, 1] = e[1, 0] = 0.1
        est, covs = _sets([np.eye(2)], [np.eye(2) + e], [10])
        assert np.allclose(debias(est, covs).matrices[0], np.eye(2) - e)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        m = random_covariance_set(rng, 6, 1)[0]
        s = random_covariance_set(rng, 6, 1)[0]
        out = debias(*_sets([m], [s], [30]))
        assert np.array_equal(out.matrices[0], out.matrices[0].T)


class TestVarianceEstimate:
    def test_identity_offdiagonal(self):
        assert entry_variances(np.eye(4), [0], [2]).tolist() == [1.0]

    def test_diagonal_entry_doubles(self):
        m = np.diag([1.5, 2.0])
        assert entry_variances(m, 1, 1) == pytest.approx(2 * 2.0**2)

    def test_direct_arithmetic(self):
        m = np.array([[2.0, 0.45], [0.45, 2.5]])
        assert entry_variances(m, 0, 1) == pytest.approx(5.2025)

    def test_rejects_nonpositive(self):
        m = np.array([[1.0, 0.0], [0.0, -1.0]])
        covs = CovarianceSet([np.eye(2)], [10])
        with pytest.raises(DataFormatError, match="nonpositive variance"):
            combine(PrecisionSet([np.eye(2)]), PrecisionSet([m]), covs, [1.0], [0], [1])


def _combination_instance(seed, K, p):
    """PD estimates, symmetric (not PD) debiased matrices and truths, sample
    sizes, a coefficient vector with zeros, and index pairs (diagonal too)."""
    rng = np.random.default_rng(seed)
    estimate = PrecisionSet(random_covariance_set(rng, p, K), positive_definite=True)
    debiased, truth = (
        PrecisionSet([(a + a.T) / 2.0 for a in rng.standard_normal((K, p, p))])
        for _ in range(2)
    )
    covs = CovarianceSet(random_covariance_set(rng, p, K), rng.integers(1, 2000, K).tolist())
    coefficients = rng.standard_normal(K) * rng.uniform(0.1, 5.0) * (rng.random(K) < 0.6)
    coefficients[rng.integers(K)] = rng.choice([-1.0, 0.5, 2.0])
    rows, cols = rng.integers(0, p, size=(2, int(rng.integers(1, 3 * p))))
    return debiased, estimate, truth, covs, coefficients, rows, cols


def _ulps(value, reference):
    return np.abs(value - reference) / np.spacing(np.abs(reference))


class TestCombine:
    instances = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 9))

    @settings(max_examples=100, deadline=None)
    @given(instances)
    def test_matches_the_scalar_loop_bit_for_bit(self, instance):
        deb, est, _, covs, coefficients, rows, cols = _combination_instance(*instance)
        point, std_error = combine(deb, est, covs, coefficients, rows, cols)
        assert point.shape == std_error.shape == rows.shape
        for m, (i, j) in enumerate(zip(rows, cols)):
            ref = scalar_combination(deb.matrices, est.matrices, covs.sample_sizes,
                                     coefficients, i, j)
            assert (point[m], std_error[m]) == ref
        test = linear_combo_test(deb, est, covs, LinearCombo(coefficients, (rows[0], cols[0])))
        assert (test.estimate, test.std_error) == (point[0], std_error[0])

    @settings(max_examples=100, deadline=None)
    @given(instances, st.sampled_from([0.5, 0.9, 0.95, 0.99]))
    def test_unit_vectors_standardize_and_give_half_widths(self, instance, level):
        # Per population, combine's (d - t) / sqrt(v / n) and tau * sqrt(v / n)
        # round differently from sqrt(n) (d - t) / sqrt(v) and
        # tau * sqrt(v) / sqrt(n): at most 4 ulp apart.
        deb, est, truth, covs, _, rows, cols = _combination_instance(*instance)
        tau = upper_quantile(1.0 - level)
        for k, unit in enumerate(np.eye(deb.K)):
            point, std_error = combine(deb, est, covs, unit, rows, cols)
            d, t = deb.matrices[k][rows, cols], truth.matrices[k][rows, cols]
            v = np.array([scalar_variance(est.matrices[k], i, j) for i, j in zip(rows, cols)])
            n = covs.sample_sizes[k]
            assert np.array_equal(point, d)
            assert np.all(_ulps((point - t) / std_error, np.sqrt(n) * (d - t) / np.sqrt(v)) <= 4)
            assert np.all(_ulps(tau * std_error, tau * np.sqrt(v) / np.sqrt(n)) <= 4)
            ci = confidence_interval(deb, est, covs, k, rows[0], cols[0], level)
            assert (ci.lower, ci.upper) == (d[0] - tau * std_error[0], d[0] + tau * std_error[0])

    def test_checks_population_count_and_index_range(self):
        est, covs = _sets([np.eye(3)] * 2, [np.eye(3)] * 2, [50, 60])
        with pytest.raises(DimensionMismatchError, match="length must equal K"):
            combine(est, est, covs, [1.0], [0], [1])
        with pytest.raises(DimensionMismatchError, match="do not match"):
            combine(est, est, CovarianceSet([np.eye(3)], [50]), [1.0, -1.0], [0], [1])
        for rows, cols in (([0, 3], [1, 1]), ([0, 1], [2, -1])):
            with pytest.raises(DimensionMismatchError, match="out of range for p=3"):
                combine(est, est, covs, [1.0, -1.0], rows, cols)


class TestLinearComboTest:
    def test_identical_populations_give_p_one(self):
        m = np.eye(3) * 1.3
        est, covs = _sets([m, m], [invert_pd(m), invert_pd(m)], [50, 50])
        deb = debias(est, covs)
        r = linear_combo_test(deb, est, covs, LinearCombo((1.0, -1.0), (0, 1)))
        assert r.estimate == 0.0
        assert r.z_stat == 0.0
        assert r.p_value == 1.0
        assert not r.reject

    def test_worked_arithmetic_example(self):
        # n1 = n2 = 400, unit variances, difference 0.14:
        # se = sqrt(2/400), z ~ 1.98, p ~ 0.0477, reject at 5%.
        d1 = np.eye(2)
        d1 = d1.copy(); d1[0, 1] = d1[1, 0] = 0.14
        deb = PrecisionSet([d1, np.eye(2)])
        est, covs = _sets([np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)], [400, 400])
        r = linear_combo_test(deb, est, covs, LinearCombo((1.0, -1.0), (0, 1)), 0.05)
        assert r.std_error == pytest.approx(0.070711, abs=1e-6)
        assert r.z_stat == pytest.approx(1.9799, abs=1e-4)
        assert r.p_value == pytest.approx(0.0477, abs=1e-4)
        assert r.reject

    def test_scale_equivariance_of_decision(self):
        rng = np.random.default_rng(12)
        m = random_covariance_set(rng, 4, 2)
        est, covs = _sets(m, [invert_pd(x) + 0.01 * np.eye(4) for x in m], [80, 120])
        deb = debias(est, covs)
        base = linear_combo_test(deb, est, covs, LinearCombo((1.0, -1.0), (1, 3)))
        for c in (2.5, -4.0, 0.1):
            scaled = linear_combo_test(
                deb, est, covs, LinearCombo((c, -c), (1, 3))
            )
            assert abs(scaled.z_stat) == pytest.approx(abs(base.z_stat), rel=1e-12)
            assert scaled.p_value == pytest.approx(base.p_value, rel=1e-12)
            assert scaled.reject == base.reject

    def test_zero_standard_error_is_an_error(self):
        deb = PrecisionSet([np.eye(2)])
        est, covs = _sets([np.eye(2)], [np.eye(2)], [50])
        with pytest.raises(DataFormatError):
            linear_combo_test(deb, est, covs, LinearCombo((0.0,), (0, 1)))

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(DataFormatError):
            LinearCombo((0.0, 0.0), (0, 1))


class TestConfidenceInterval:
    def test_half_width_arithmetic(self):
        est, covs = _sets([np.eye(3)], [np.eye(3)], [400])
        deb = debias(est, covs)
        r = confidence_interval(deb, est, covs, 0, 0, 1, level=0.95)
        half = (r.upper - r.lower) / 2
        assert half == pytest.approx(1.959964 / 20.0, abs=1e-6)

    def test_width_shrinks_with_level(self):
        est, covs = _sets([np.eye(3)], [np.eye(3)], [100])
        deb = debias(est, covs)
        widths = [
            confidence_interval(deb, est, covs, 0, 0, 1, level=lv).upper
            - confidence_interval(deb, est, covs, 0, 0, 1, level=lv).lower
            for lv in (0.95, 0.5, 0.1, 1e-6)
        ]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] <= 1e-6


class TestNormalAccuracy:
    def test_cdf_and_quantile_against_mpmath(self):
        mpmath.mp.dps = 40
        for x in np.linspace(-8, 8, 161):
            exact = float(mpmath.ncdf(mpmath.mpf(float(x))))
            assert abs(normal_cdf(x) - exact) <= 1e-10
        for q in list(np.linspace(1e-6, 1 - 1e-6, 101)) + [1e-10, 1 - 1e-10, 0.025, 0.975]:
            exact = float(
                mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(float(q)) - 1)
            )
            assert abs(normal_quantile(q) - exact) <= 1e-10

    def test_quantile_inverts_cdf(self):
        for x in (-3.7, -1.0, 0.0, 0.5, 4.2):
            assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-12)

    def test_upper_quantile_at_five_percent(self):
        assert upper_quantile(0.05) == pytest.approx(1.959963984540054, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DataFormatError):
            normal_quantile(0.0)
        with pytest.raises(DataFormatError):
            normal_quantile(1.0)


class TestTailPValues:
    @pytest.mark.parametrize("z", [8.5, 10.0, 30.0])
    def test_p_value_positive_and_accurate_far_in_the_tail(self, z):
        # estimate = I and n = 1 give a unit standard error, so the
        # statistic equals the debiased off-diagonal entry.
        est, covs = _sets([np.eye(2)], [np.eye(2)], [1])
        deb = PrecisionSet([np.array([[1.0, z], [z, 1.0]])])
        result = linear_combo_test(deb, est, covs, LinearCombo([1.0], (0, 1)))
        assert result.z_stat == z
        mpmath.mp.dps = 40
        exact = float(mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)))
        assert result.p_value > 0.0
        assert result.p_value == pytest.approx(exact, rel=1e-10)


class TestEntryVariances:
    def test_matches_variance_estimate_at_every_entry(self):
        rng = np.random.default_rng(21)
        m = random_covariance_set(rng, 7, 1)[0]
        rows, cols = np.indices((7, 7))
        table = entry_variances(m, rows, cols)
        assert table.shape == (7, 7)
        for i in range(7):
            for j in range(7):
                assert table[i, j] == scalar_variance(m, i, j)
                assert table[i, j] == m[i, i] * m[j, j] + m[i, j] ** 2
