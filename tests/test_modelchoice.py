import math

import numpy as np
import pytest
from scipy.stats import norm

from abckit import modelchoice
from abckit.errors import TableFormatError
from abckit.modelchoice import glm_model_choice, write_model_fit
from abckit.models import TOY_STAT_NAMES, toy_stats
from abckit.rejection import Standardizer
from abckit.tableio import ObservedStats, SimulationTable, read_table

from conftest import make_toy_table, take_rows, traced_peak


def make_table(rng, n, shift=0.0, noise=1.0, names=("s0", "s1")):
    theta = rng.uniform(0, 1, size=(n, 1))
    stats = shift + theta + noise * rng.normal(size=(n, len(names)))
    values = np.column_stack([theta, stats])
    return SimulationTable(("t",) + tuple(names), values, (0,),
                           tuple(range(1, len(names) + 1)))


class TestGlmPath:
    def test_same_table_twice_gives_unit_bayes_factor(self):
        rng = np.random.default_rng(64)
        t = make_table(rng, 400)
        obs = ObservedStats(t.stat_names, np.array([0.5, 0.5]))
        res = glm_model_choice([t, t], obs, count=100)
        assert res.bayes_factors[0, 1] == pytest.approx(1.0)
        np.testing.assert_allclose(res.probabilities, [0.5, 0.5])

    def test_statistic_mismatch_rejected(self):
        rng = np.random.default_rng(63)
        a = make_table(rng, 50)
        b = make_table(rng, 50, names=("s0", "other"))
        obs = ObservedStats(a.stat_names, np.array([0.5, 0.5]))
        with pytest.raises(TableFormatError, match="not in table: s1$"):
            glm_model_choice([a, b], obs, count=10)

    def test_analytic_evidence_ratio(self):
        # theta ~ N(0,1); model m: s = theta + e_m with different noise.
        # evidence_m(s0) = N(s0; 0, 1 + noise_m^2)
        rng = np.random.default_rng(65)
        n = 4000
        theta = rng.normal(size=(n, 1))
        noises = (0.5, 1.5)
        tables = []
        for nz in noises:
            stats = theta + nz * rng.normal(size=(n, 1))
            tables.append(SimulationTable(
                ("t", "s"), np.column_stack([theta, stats]), (0,), (1,)))
        s0 = 0.6
        obs = ObservedStats(("s",), np.array([s0]))
        res = glm_model_choice(tables, obs, count=n)
        want = (norm.pdf(s0, scale=np.sqrt(1 + noises[0] ** 2))
                / norm.pdf(s0, scale=np.sqrt(1 + noises[1] ** 2)))
        got = res.bayes_factors[0, 1]
        assert got == pytest.approx(want, rel=0.2)

    def test_relabeling_permutes_results(self):
        rng = np.random.default_rng(66)
        a = make_table(rng, 300)
        b = make_table(rng, 300, shift=1.0)
        obs = ObservedStats(a.stat_names, np.array([0.6, 0.6]))
        res_ab = glm_model_choice([a, b], obs, count=100)
        res_ba = glm_model_choice([b, a], obs, count=100)
        np.testing.assert_allclose(res_ab.probabilities,
                                   res_ba.probabilities[::-1], rtol=1e-9)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(67)
        a = make_table(rng, 300)
        b = make_table(rng, 300, shift=0.5)
        obs = ObservedStats(a.stat_names, np.array([0.6, 0.6]))
        base = glm_model_choice([a, b], obs, count=120)

        def rescale(t):
            v = t.values.copy()
            v[:, 1] = v[:, 1] * 10 + 3
            return SimulationTable(t.names, v, t.param_idx, t.stat_idx)

        obs2 = ObservedStats(obs.names, np.array([0.6 * 10 + 3, 0.6]))
        scaled = glm_model_choice([rescale(a), rescale(b)], obs2, count=120)
        np.testing.assert_allclose(base.probabilities, scaled.probabilities,
                                   atol=1e-6)


class TestModelFitFile:
    def test_file_layout(self, tmp_path):
        rng = np.random.default_rng(68)
        t = make_table(rng, 300)
        obs = ObservedStats(t.stat_names, np.array([0.5, 0.5]))
        res = glm_model_choice([t, t], obs, count=80)
        path = write_model_fit(res, "ABC_GLM", obs_index=0,
                               directory=tmp_path)
        assert path.name == "ABC_GLM_modelFit_Obs0.txt"
        back = read_table(path, "1")
        assert back.names == ("model", "marginalDensity",
                              "posteriorProbability", "BFvsModel0")
        assert back.n_rows == 2


class TestNormalVersusUniform:
    """The toolkit's canonical example on the simulated toy tables."""

    def test_normal_observation_picks_normal(self, norm_table, unif_table,
                                             toy_obs):
        res = glm_model_choice([norm_table, unif_table], toy_obs, 500)
        assert np.argmax(res.probabilities) == 0
        assert res.probabilities[0] > 0.99
        swapped = glm_model_choice([unif_table, norm_table], toy_obs, 500)
        np.testing.assert_allclose(swapped.probabilities,
                                   res.probabilities[::-1])

    def test_uniform_observation_picks_uniform(self, norm_table, unif_table):
        # statistics of the typical sample of the standard uniform model
        q = (np.arange(100) + 0.5) / 100
        obs = ObservedStats(TOY_STAT_NAMES, toy_stats(np.sqrt(3) * (2 * q - 1)))
        res = glm_model_choice([norm_table, unif_table], obs, 500)
        assert np.argmax(res.probabilities) == 1
        assert res.probabilities[1] > 0.99


class TestExactBayesFactor:
    """A per-query oracle of the model prior.  In the set-up of
    ``TestModelChoiceCalibration`` (``t ~ U(0, 2)``, statistics ``(t, c_m)
    + N(0, 0.5^2 I)``, ``c = (0, 1)``) the exact log Bayes factor of model
    0 against model 1 is ``2 - 4 s1``.  Leave-one-out queries retain all
    but one row of a table of ``ROWS``, and each query with ``s1`` in
    [0.2, 0.8] must err by at most half of ``log 2``, so that a model prior
    off by a factor of 2 either way fails.

    On 2:1 tables model 0 draws as many rows again from a second mode, at
    ``c = 1000``, that no query retains: its exact log Bayes factor is
    ``2 - 4 s1 - log 2``, and a model prior proportional to the table rows
    misses it by ``log 2``.  Were the extra rows near the queries, the
    retention would truncate model 0 to half its rows and not model 1,
    and that truncation bias, which no model prior removes, moves the
    queries by up to 0.8.  Distances are raw, so that the far rows leave
    the scale of the near ones alone."""

    ROWS, QUERIES, BOUND = 1000, 40, 0.5 * math.log(2.0)

    def errors(self, far_rows, standardize):
        rng = np.random.default_rng(20261022)
        tables = []
        for c in (0.0, 1.0):
            t = rng.uniform(0.0, 2.0, self.ROWS)
            s = np.column_stack([t, np.full(self.ROWS, c)])
            s += 0.5 * rng.normal(size=(self.ROWS, 2))
            tables.append(np.column_stack([t, s]))
        far = np.random.default_rng(20261023)
        t = far.uniform(0.0, 2.0, far_rows)
        s = np.column_stack([t, np.full(far_rows, 1000.0)])
        s += 0.5 * far.normal(size=(far_rows, 2))
        tables[0] = np.vstack([tables[0], np.column_stack([t, s])])
        tables = [SimulationTable(("t", "s0", "s1"), v, (0,), (1, 2))
                  for v in tables]
        prior = math.log(self.ROWS / tables[0].n_rows)
        out = []
        for m, table in enumerate(tables):
            for row in rng.choice(table.n_rows, self.QUERIES, replace=False):
                s1 = table.values[row, 2]
                if 0.2 <= s1 <= 0.8:
                    pseudo = ObservedStats(table.stat_names, table.stats[row])
                    ld = glm_model_choice(
                        tables, pseudo, self.ROWS - 1, exclude=(m, int(row)),
                        standardize=standardize).log_densities
                    out.append(ld[0] - ld[1] - (2.0 - 4.0 * s1 + prior))
        assert len(out) >= 10
        return np.array(out)

    def test_equal_tables(self):
        assert np.abs(self.errors(0, True)).max() <= self.BOUND

    def test_two_to_one_tables(self):
        assert np.abs(self.errors(self.ROWS, False)).max() <= self.BOUND


def without_row(table, i):
    return take_rows(table, np.delete(np.arange(table.n_rows), i))


class TestLeaveOneOut:
    """``exclude=(model, row)`` gives what model choice gives on a copy of
    that model's table without the row, to the last bit."""

    # the first and last row of each model, and two inner ones
    EXCLUDED = [(0, 0), (0, 1499), (0, 503), (1, 0), (1, 1199), (1, 17)]

    @pytest.fixture(scope="class")
    def tables(self, norm_table, unif_table):
        return [take_rows(norm_table, np.arange(1500)),
                take_rows(unif_table, np.arange(1200))]

    def pairs(self, tables):
        for m, i in self.EXCLUDED:
            pseudo = ObservedStats(tables[m].stat_names, tables[m].stats[i])
            trimmed = list(tables)
            trimmed[m] = without_row(tables[m], i)
            yield m, i, pseudo, trimmed

    def test_glm_matches_copy(self, tables):
        for m, i, pseudo, trimmed in self.pairs(tables):
            got = glm_model_choice(tables, pseudo, 200, exclude=(m, i))
            want = glm_model_choice(trimmed, pseudo, 200)
            np.testing.assert_array_equal(got.log_densities,
                                          want.log_densities)
            np.testing.assert_array_equal(got.probabilities,
                                          want.probabilities)
            for k, (r, w) in enumerate(zip(got.retained, want.retained)):
                rows = np.arange(tables[k].n_rows)
                if k == m:
                    rows = np.delete(rows, i)
                np.testing.assert_array_equal(r.indices, rows[w.indices])
                np.testing.assert_array_equal(r.distances, w.distances)
                np.testing.assert_array_equal(r.standardizer.center,
                                              w.standardizer.center)
                np.testing.assert_array_equal(r.standardizer.scale,
                                              w.standardizer.scale)

    def test_excluded_row_out_of_range(self, tables):
        pseudo = ObservedStats(tables[0].stat_names, tables[0].stats[0])
        with pytest.raises(ValueError, match="outside model 1"):
            glm_model_choice(tables, pseudo, 50, exclude=(1, 1200))


class TestColumnSelection:
    """An observation of some statistics gives what model choice gives on
    copies of the tables with those statistics alone, to the last bit."""

    # selections in an order other than the tables'
    SELECTIONS = [("Q3",), ("range", "mean"), ("max", "var", "Q1")]

    @pytest.fixture(scope="class")
    def tables(self, norm_table, unif_table):
        return [take_rows(norm_table, np.arange(900)),
                take_rows(unif_table, np.arange(700))]

    @pytest.mark.parametrize("standardize", [True, False],
                             ids=["standardized", "raw"])
    @pytest.mark.parametrize("exclude", [None, (0, 311), (1, 0)],
                             ids=["all-rows", "exclude-0-311", "exclude-1-0"])
    @pytest.mark.parametrize("names", SELECTIONS,
                             ids=lambda names: f"{len(names)}-stats")
    def test_selection_equals_copies(self, tables, toy_obs, names, exclude,
                                     standardize):
        obs = toy_obs
        if exclude is not None:
            m, i = exclude
            obs = ObservedStats(tables[m].stat_names, tables[m].stats[i])
        obs = ObservedStats(names, obs.vector(names))
        got = glm_model_choice(tables, obs, 150, 0.01, exclude, standardize)
        want = glm_model_choice([t.with_stats(names) for t in tables], obs,
                                150, 0.01, exclude, standardize)
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert got.log_densities.tobytes() == want.log_densities.tobytes()
        for r, w in zip(got.retained, want.retained, strict=True):
            assert r.stat_names == w.stat_names == names
            np.testing.assert_array_equal(r.indices, w.indices)
            assert r.distances.tobytes() == w.distances.tobytes()

    def test_statistic_missing_from_the_tables(self, tables):
        obs = ObservedStats(("mean", "nope"), np.array([0.1, 0.2]))
        with pytest.raises(TableFormatError, match="not in table: nope$"):
            glm_model_choice(tables, obs, 50)


def assert_same_choice(got, want):
    assert got.log_densities.tobytes() == want.log_densities.tobytes()
    assert got.probabilities.tobytes() == want.probabilities.tobytes()
    for r, w in zip(got.retained, want.retained):
        assert r.indices.tobytes() == w.indices.tobytes()
        assert r.distances.tobytes() == w.distances.tobytes()
        assert r.stats_std.tobytes() == w.stats_std.tobytes()


class TestPooledScaleMemo:
    """The pooled scale is fitted once for each table set and statistic
    names, and never serves another set or a leave-one-out query."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(modelchoice, "_last_scale", (None, None))

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []
        original = Standardizer.fit

        def fit(tables, names, exclude=None):
            calls.append(tuple(names))
            return original(tables, names, exclude)
        monkeypatch.setattr(Standardizer, "fit", staticmethod(fit))
        return calls

    def test_table_sets_built_and_dropped_in_turn(self, norm_table,
                                                  unif_table, toy_obs,
                                                  monkeypatch):
        # each set's first table is freed before the next is built, so a
        # key on id() would find the previous set's scale
        rng = np.random.default_rng(4)
        for _ in range(8):
            rows = np.sort(rng.choice(1200, size=400, replace=False))
            tables = [take_rows(norm_table, rows), unif_table]
            got = glm_model_choice(tables, toy_obs, 60)
            monkeypatch.setattr(modelchoice, "_last_scale", (None, None))
            assert_same_choice(got, glm_model_choice(tables, toy_obs, 60))
            del tables, got

    def test_second_observation_reuses_the_fit(self, norm_table, unif_table,
                                               toy_obs, fits):
        tables = [norm_table, unif_table]
        other = ObservedStats(toy_obs.names, norm_table.stats[7])
        glm_model_choice(tables, toy_obs, 200)
        got = glm_model_choice(tables, other, 200)
        assert fits == [toy_obs.names]
        modelchoice._last_scale = (None, None)
        assert_same_choice(got, glm_model_choice(tables, other, 200))
        assert fits == [toy_obs.names] * 2
        # other statistics, or another table set, are fitted anew
        sub = ObservedStats(("mean", "var"), toy_obs.values[:2])
        glm_model_choice(tables, sub, 200)
        glm_model_choice(tables[::-1], sub, 200)
        assert fits == [toy_obs.names] * 2 + [("mean", "var")] * 2

    @pytest.mark.parametrize("query", [{"exclude": (1, 5)},
                                       {"standardize": False}])
    def test_other_queries_never_read_the_memo(self, norm_table, unif_table,
                                               toy_obs, fits, query):
        tables = [norm_table, unif_table]
        want = glm_model_choice(tables, toy_obs, 200, **query)
        # a wrong scale stored under these tables and statistics
        key = (tuple(t.token for t in tables), toy_obs.names)
        planted = (key, Standardizer.identity(toy_obs.names))
        modelchoice._last_scale = planted
        assert_same_choice(glm_model_choice(tables, toy_obs, 200, **query),
                           want)
        assert modelchoice._last_scale is planted
        assert len(fits) == 2 * ("exclude" in query)

    def test_the_slot_is_read_once(self, norm_table, unif_table, toy_obs):
        # another thread rebinds the slot between its key test and its read
        mine = Standardizer.identity(toy_obs.names)
        theirs = Standardizer.identity(toy_obs.names)

        class Rebinding:
            def __ne__(self, key):
                modelchoice._last_scale = (None, theirs)
                return False

        modelchoice._last_scale = (Rebinding(), mine)
        got = modelchoice._pooled_scale([norm_table, unif_table],
                                        toy_obs.names)
        assert got is mine


class TestMemory:
    @pytest.mark.parametrize("exclude", [None, (1, 123)])
    def test_pooled_fit_and_retention_hold_no_block(self, toy_obs, exclude,
                                                     monkeypatch):
        # two 20000 x 10 tables: a block of their pooled rows by the 8
        # statistics is 2.56 MB, and np.std's temporary as much again
        bound = 2_000_000                      # bytes, fixed before the first run
        tables = [make_toy_table(model, 20000, seed) for model, seed in
                  (("normal", 71), ("uniform", 72))]
        monkeypatch.setattr(modelchoice, "_last_scale", (None, None))
        got, peak = traced_peak(glm_model_choice, tables, toy_obs, 500,
                                exclude=exclude)
        assert [r.n for r in got.retained] == [500, 500]
        assert peak < bound
