import math

import numpy as np
import pytest

from abckit.errors import SimulatorError
from abckit.models import (BUILTIN_MODELS, SFS_STAT_NAMES, TOY_STAT_NAMES,
                           ToyParams, sfs_stats, simulate_toy, toy_stats,
                           toy_stats_matrix, uniform_bounds)

# downsampled synonymous spectrum for a sample of 24 sequences
TABLE8_COUNTS = (9906, 7, 5, 2, 0, 1, 1, 0, 0, 1, 0, 0, 0,
                 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 77)


def round_sig(x, n=3):
    if x == 0:
        return 0.0
    return round(x, -int(math.floor(math.log10(abs(x)))) + (n - 1))


class TestToyStats:
    def test_hand_computed_sample(self):
        # mean 3, unbiased var 10/4, type-7 quartiles 2 and 4
        s = toy_stats([1, 2, 3, 4, 5])
        np.testing.assert_allclose(s, [3, 2.5, 3, 1, 5, 4, 2, 4])

    def test_constant_sample(self):
        s = toy_stats([7.0] * 10)
        np.testing.assert_allclose(s, [7, 0, 7, 7, 7, 0, 7, 7])

    def test_names_order(self):
        assert TOY_STAT_NAMES == ("mean", "var", "median", "min", "max",
                                  "range", "Q1", "Q3")

    def test_matrix_matches_rowwise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 30))
        m = toy_stats_matrix(x)
        for i in range(0, 50, 7):
            np.testing.assert_allclose(m[i], toy_stats(x[i]))

    def test_bit_identical_to_numpy_reference(self):
        rng = np.random.default_rng(2)

        def reference(x):
            q1, q3 = np.quantile(x, [0.25, 0.75])
            return np.array([x.mean(), x.var(ddof=1), np.median(x), x.min(),
                             x.max(), x.max() - x.min(), q1, q3])

        for n in range(4, 202):
            scale = 10.0 ** rng.uniform(-3, 3)
            samples = [rng.normal(rng.normal(), scale, n),
                       np.round(rng.normal(0.0, 3.0, n)),      # many ties
                       rng.integers(1, 4, n).astype(float),   # few values
                       np.full(n, rng.normal())]
            for x in samples:
                assert np.array_equal(toy_stats(x), reference(x)), (n, x)
        x = np.array([1.0, np.nan, 2.0, 3.0, 4.0])
        assert np.array_equal(toy_stats(x), reference(x), equal_nan=True)

    def test_too_small_sample(self):
        with pytest.raises(ValueError):
            toy_stats([1, 2, 3])

    def test_standard_normal_magnitudes(self):
        rng = np.random.default_rng(1)
        s = toy_stats(rng.normal(size=100))
        assert abs(s[0]) < 0.5 and 0.5 < s[1] < 2.0 and 3.0 < s[5] < 8.0


class TestSimulateToy:
    def test_uniform_bounds_third(self):
        assert uniform_bounds(0.0, 1.0 / 3.0) == pytest.approx((-1.0, 1.0))

    def test_uniform_bounds_three(self):
        assert uniform_bounds(1.0, 3.0) == pytest.approx((-2.0, 4.0))

    def test_normal_pooled_mean(self):
        rng = np.random.default_rng(2)
        p = ToyParams(0.3, 1.0)
        means = [simulate_toy("normal", p, rng)[0] for _ in range(1000)]
        # 1e5 pooled draws: the pooled mean is within 0.01 of 0.3
        assert abs(np.mean(means) - 0.3) < 0.01

    def test_uniform_stays_in_bounds(self):
        rng = np.random.default_rng(3)
        p = ToyParams(1.0, 3.0)
        s = simulate_toy("uniform", p, rng)
        assert s[3] >= -2.0 and s[4] <= 4.0

    def test_bad_variance(self):
        with pytest.raises(SimulatorError, match="got 0.0"):
            ToyParams(0.0, 0.0)


class TestSfsStats:
    def test_published_values(self):
        vals = sfs_stats(TABLE8_COUNTS)
        assert [round_sig(v) for v in vals] == [7.0, 17.0, 3.06, 4.55, -1.17]

    def test_pi_by_direct_arithmetic(self):
        # pairwise sum over the polymorphic classes is 845
        n = 24
        s = 0
        for i, c in enumerate(TABLE8_COUNTS[1:n], start=1):
            s += i * (n - i) * c
        assert s == 845
        assert sfs_stats(TABLE8_COUNTS)[2] == pytest.approx(1690 / 552)

    def test_monomorphic_spectrum(self):
        vals = sfs_stats((100, 0, 0, 0, 0, 0, 0, 0, 0, 0, 50))
        np.testing.assert_allclose(vals, [0, 0, 0, 0, 0])

    def test_single_segregating_site_has_zero_d(self):
        counts = [0] * 25
        counts[3] = 1
        assert sfs_stats(counts)[4] == 0.0

    def test_monomorphic_classes_ignored(self):
        base = sfs_stats(TABLE8_COUNTS)
        bumped = list(TABLE8_COUNTS)
        bumped[0] += 1000
        bumped[-1] += 1000
        np.testing.assert_allclose(sfs_stats(bumped), base)

    def test_linear_scaling(self):
        base = sfs_stats(TABLE8_COUNTS)
        doubled = sfs_stats([2 * c for c in TABLE8_COUNTS])
        # singletons, S, pi and theta scale linearly; D does not
        np.testing.assert_allclose(doubled[:4], 2 * base[:4])

    def test_neutral_spectrum_d_near_zero(self):
        n = 30
        rng = np.random.default_rng(4)
        ds = []
        for _ in range(20):
            expected = 300.0 / np.arange(1, n)
            counts = np.zeros(n + 1)
            counts[1:n] = rng.poisson(expected)
            vals = sfs_stats(counts)
            if vals[1] >= 50:
                ds.append(vals[4])
        assert ds and max(abs(d) for d in ds) < 0.3

    def test_matrix_equals_row_by_row(self):
        rng = np.random.default_rng(7)
        counts = rng.poisson(3.0, size=(6, 25)).astype(float)
        counts[0, 1:24] = 0                          # monomorphic
        counts[1, 1:24] = 0
        counts[1, 5] = 1                             # one segregating site
        rows = sfs_stats(counts)
        assert rows.shape == (6, len(SFS_STAT_NAMES))
        for i in range(6):
            np.testing.assert_array_equal(rows[i], sfs_stats(counts[i]))

    def test_names(self):
        assert SFS_STAT_NAMES == ("sfs1", "S", "pi", "thita", "taj_D")


class TestBuiltinRegistry:
    def test_names_registered(self):
        assert {"toy-normal", "toy-uniform", "sfs-neutral-growth"} <= set(
            BUILTIN_MODELS)

    def test_toy_binding_by_position(self):
        rng = np.random.default_rng(5)
        names, vals = BUILTIN_MODELS["toy-normal"]({"A": 0.0, "B": 1.0}, rng)
        assert names == TOY_STAT_NAMES and len(vals) == 8

    def test_sfs_binding_responds_to_size(self):
        rng = np.random.default_rng(6)
        _, small = BUILTIN_MODELS["sfs-neutral-growth"](
            {"N_CUR": 1000.0, "OMEGA": 1.0, "TAU": 1.0}, rng)
        _, large = BUILTIN_MODELS["sfs-neutral-growth"](
            {"N_CUR": 100_000.0, "OMEGA": 1.0, "TAU": 1.0}, rng)
        assert large[1] > small[1]  # more segregating sites when N is larger
