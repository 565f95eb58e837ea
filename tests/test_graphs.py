import math

import numpy as np
import pytest

from multiggm import ConfigError, chain_precision, star_precision
from multiggm.graphs import GraphSpec, two_population_chain_spec, two_population_star_spec


class TestChain:
    def test_zero_coupling_is_identity(self):
        assert np.array_equal(chain_precision(4, 0.0), np.eye(4))

    def test_small_chain_entries(self):
        m = chain_precision(4, 0.2)
        assert np.all(np.diag(m) == 1.0)
        for i, j in [(0, 1), (1, 2), (2, 3)]:
            assert m[i, j] == 0.2 and m[j, i] == 0.2
        assert m[0, 2] == 0.0 and m[0, 3] == 0.0

    def test_p50_smallest_eigenvalue(self):
        m = chain_precision(50, 0.35)
        expected = 1.0 - 0.7 * math.cos(math.pi / 51)
        assert np.min(np.linalg.eigvalsh(m)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.301, abs=5e-4)

    def test_non_pd_parameter_rejected(self):
        with pytest.raises(ConfigError):
            chain_precision(30, 0.51)


@pytest.mark.parametrize("build", [
    lambda bad: chain_precision(5, bad),
    lambda bad: star_precision(10, 3, bad, 0.3, hub_seed=0),
    lambda bad: star_precision(10, 3, 2.0, bad, hub_seed=0),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_parameters_rejected(build, bad):
    with pytest.raises(ConfigError, match="must be finite"):
        build(bad)


class TestStar:
    def test_population_one_values(self):
        m, hub, spokes = star_precision(20, 5, 2.0, 0.3, hub_seed=1)
        assert np.all(np.diag(m) == 2.0)
        assert len(spokes) == 5 and hub not in spokes
        for b in spokes:
            assert m[hub, b] == 0.3 and m[b, hub] == 0.3
        off = m - np.diag(np.diag(m))
        assert np.count_nonzero(off) == 2 * 5

    @pytest.mark.parametrize("d", [25, 30, 36])
    def test_degree_experiment_parameters_are_pd(self, d):
        m1, _, _ = star_precision(100, d, 2.0, 5.0 / d, hub_seed=4)
        m2, _, _ = star_precision(100, d, 2.5, 8.0 / d, hub_seed=4)
        assert np.min(np.linalg.eigvalsh(m1)) > 0
        assert np.min(np.linalg.eigvalsh(m2)) > 0

    def test_zero_degree_is_diagonal(self):
        m, _, spokes = star_precision(6, 0, 2.0, 0.3, hub_seed=0)
        assert np.array_equal(m, 2.0 * np.eye(6))
        assert spokes == ()

    def test_same_hub_seed_shares_support_across_parameters(self):
        m1, hub1, spokes1 = star_precision(40, 10, 2.0, 0.3, hub_seed=9)
        m2, hub2, spokes2 = star_precision(40, 10, 2.5, 0.45, hub_seed=9)
        assert hub1 == hub2 and spokes1 == spokes2
        assert np.array_equal(m1 != 0, m2 != 0)

    def test_non_pd_reports_ratio(self):
        with pytest.raises(ConfigError) as err:
            star_precision(30, 16, 1.0, 0.3, hub_seed=2)
        assert "sqrt(d)*|offdiag|/diag" in str(err.value)

    def test_degree_bounds(self):
        with pytest.raises(ConfigError):
            star_precision(5, 5, 2.0, 0.3, hub_seed=0)


class TestGraphSpec:
    def test_reference_specs_build(self):
        chain = two_population_chain_spec().build(10)
        assert chain.K == 2
        assert chain.matrices[1][0, 1] == 0.35
        star = two_population_star_spec(d=4, hub_seed=3).build(12)
        assert star.K == 2
        assert np.array_equal(star.matrices[0] != 0, star.matrices[1] != 0)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            GraphSpec(kind="lattice", chain_rho=(0.1,))
