import dataclasses

import numpy as np
import pytest

from abckit.errors import NumericalError, TableFormatError
from abckit.rejection import (RetainedSet, Standardizer,
                             prune_correlated, retain)
from abckit.tableio import ObservedStats, SimulationTable

from conftest import take_rows


def random_table(rng, n_rows=100, n_stats=5, n_params=2):
    names = tuple(f"p{i}" for i in range(n_params)) + tuple(
        f"s{i}" for i in range(n_stats))
    values = rng.normal(size=(n_rows, n_params + n_stats)) * rng.uniform(
        0.5, 5.0, n_params + n_stats)
    return SimulationTable(names, values, tuple(range(n_params)),
                           tuple(range(n_params, n_params + n_stats)))


def brute_force_order(table, obs):
    """Standardize by hand, sort by Euclidean distance, stable."""
    stats = table.stat_matrix(obs.names)
    mean = stats.mean(axis=0)
    sd = stats.std(axis=0)
    z = (stats - mean) / sd
    zo = (obs.values - mean) / sd
    d = np.sqrt(((z - zo) ** 2).sum(axis=1))
    order = sorted(range(len(d)), key=lambda i: (d[i], i))
    return np.array(order), d


class TestRetain:
    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(11)
        table = random_table(rng)
        obs = ObservedStats(table.stat_names, rng.normal(size=5))
        want_order, want_d = brute_force_order(table, obs)
        r = retain(table, obs, count=30)
        np.testing.assert_array_equal(r.indices, want_order[:30])
        np.testing.assert_allclose(r.distances, want_d[want_order[:30]])
        assert r.epsilon == pytest.approx(want_d[want_order[29]])

    def test_observation_equal_to_row(self):
        rng = np.random.default_rng(12)
        table = random_table(rng, n_rows=50)
        obs = ObservedStats(table.stat_names, table.stats[17])
        r = retain(table, obs, count=5)
        assert r.indices[0] == 17
        assert r.distances[0] == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(13)
        table = random_table(rng)
        obs = ObservedStats(table.stat_names, rng.normal(size=5))
        base = retain(table, obs, count=20)
        # scale one raw statistic column by 10: standardization absorbs it
        values = table.values.copy()
        values[:, 3] *= 10.0
        scaled = SimulationTable(table.names, values, table.param_idx,
                                 table.stat_idx)
        obs2 = ObservedStats(obs.names,
                             obs.values * np.array([1, 10, 1, 1, 1.0]))
        again = retain(scaled, obs2, count=20)
        np.testing.assert_array_equal(base.indices, again.indices)
        np.testing.assert_allclose(base.distances, again.distances)

    def test_retain_everything(self):
        rng = np.random.default_rng(14)
        table = random_table(rng, n_rows=40)
        obs = ObservedStats(table.stat_names, rng.normal(size=5))
        r = retain(table, obs, count=40)
        assert r.n == 40
        _, d = brute_force_order(table, obs)
        assert r.epsilon == pytest.approx(d.max())

    def test_prefix_monotonicity(self):
        rng = np.random.default_rng(15)
        table = random_table(rng)
        obs = ObservedStats(table.stat_names, rng.normal(size=5))
        small = retain(table, obs, count=10)
        large = retain(table, obs, count=25)
        np.testing.assert_array_equal(large.indices[:10], small.indices)

    def test_stable_ties(self):
        values = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 1.0], [0.0, 0.0]])
        table = SimulationTable(("p", "s"), values, (0,), (1,))
        obs = ObservedStats(("s",), np.array([0.0]))
        r = retain(table, obs, count=2)
        # rows 0 and 1 tie at the cutoff; row order wins
        assert r.indices.tolist() == [3, 0]

    def test_no_shared_names(self):
        rng = np.random.default_rng(16)
        table = random_table(rng)
        obs = ObservedStats(("other",), np.array([1.0]))
        with pytest.raises(TableFormatError,
                           match="statistics not in table: other$"):
            retain(table, obs, count=5)

    def test_missing_observed_statistic(self):
        rng = np.random.default_rng(17)
        table = random_table(rng)
        obs = ObservedStats(("s0", "nope"), np.array([0.0, 1.0]))
        with pytest.raises(TableFormatError, match="nope"):
            retain(table, obs, count=5)

    def test_zero_count(self):
        rng = np.random.default_rng(18)
        table = random_table(rng)
        obs = ObservedStats(table.stat_names, np.zeros(5))
        with pytest.raises(ValueError):
            retain(table, obs, count=0)
        with pytest.raises(ValueError):
            retain(table, obs, count=101)

    def test_needs_count_or_tol(self):
        rng = np.random.default_rng(19)
        table = random_table(rng)
        obs = ObservedStats(table.stat_names, np.zeros(5))
        with pytest.raises(TypeError):
            retain(table, obs)

    def test_constant_stat_matching_obs_excluded(self, caplog):
        values = np.column_stack([np.arange(10.0), np.full(10, 3.0),
                                  np.arange(10.0)])
        table = SimulationTable(("p", "c", "s"), values, (0,), (1, 2))
        obs = ObservedStats(("c", "s"), np.array([3.0, 0.0]))
        r = retain(table, obs, count=3)
        assert r.stat_names == ("s",)

    def test_constant_stat_contradicting_obs_is_error(self):
        values = np.column_stack([np.arange(10.0), np.full(10, 3.0),
                                  np.arange(10.0)])
        table = SimulationTable(("p", "c", "s"), values, (0,), (1, 2))
        obs = ObservedStats(("c", "s"), np.array([4.0, 0.0]))
        with pytest.raises(NumericalError, match="cannot reproduce"):
            retain(table, obs, count=3)

    def test_unstandardized_distances(self):
        values = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 5.0]])
        table = SimulationTable(("p", "s"), values, (0,), (1,))
        obs = ObservedStats(("s",), np.array([0.0]))
        r = retain(table, obs, count=3,
                   standardizer=Standardizer.identity(("s",)))
        np.testing.assert_allclose(r.distances, [0.0, 2.0, 5.0])

    def test_external_standardizer(self):
        rng = np.random.default_rng(20)
        table = random_table(rng)
        obs = ObservedStats(table.stat_names, rng.normal(size=5))
        std = Standardizer(table.stat_names, np.zeros(5), np.ones(5))
        r = retain(table, obs, count=10, standardizer=std)
        raw = np.linalg.norm(table.stats - obs.values, axis=1)
        np.testing.assert_array_equal(r.indices,
                                      np.argsort(raw, kind="stable")[:10])
        np.testing.assert_array_equal(
            r.indices, retain(table, obs, 10, Standardizer.identity(
                table.stat_names)).indices)


def formula_fit(block, names):
    """The scale of the statistics ``names`` by numpy's formula over the
    rows by statistics ``block``."""
    block = np.asfortranarray(block)
    return Standardizer(tuple(names), block.mean(axis=0),
                        block.std(axis=0, ddof=0))


def reference_retain(table, obs, count, exclude=None, standardizer=None):
    """Retention from a copy of the table without row ``exclude``, by a
    full stable sort; indices refer to the full table."""
    rows = np.arange(table.n_rows)
    sims = table.stat_matrix(obs.names)
    if exclude is not None:
        rows = np.delete(rows, exclude)
        sims = np.delete(sims, exclude, axis=0)
    std = (formula_fit(sims, obs.names) if standardizer is None
           else standardizer.subset(obs.names))
    diff = std.transform(sims) - std.transform(obs.values)
    dist = np.sqrt((diff ** 2).sum(axis=1))
    order = np.argsort(dist, kind="stable")[:count]
    return rows[order], dist[order]


def assert_same_retention(r, want):
    indices, distances = want
    np.testing.assert_array_equal(r.indices, indices)
    np.testing.assert_array_equal(r.distances, distances)


def rounded_table(table, decimals):
    """The table with statistics rounded, so distances tie exactly."""
    values = table.values.copy()
    idx = list(table.stat_idx)
    values[:, idx] = np.round(values[:, idx], decimals)
    return SimulationTable(table.names, values, table.param_idx,
                           table.stat_idx)


class TestRetentionEngine:
    """``retain`` against a full stable sort of a copied table."""

    def queries(self, table, rng, n):
        for _ in range(n):
            i = int(rng.integers(table.n_rows))
            count = int(rng.integers(1, table.n_rows))
            yield i, count, ObservedStats(table.stat_names, table.stats[i])

    @pytest.mark.parametrize("which", ["norm_table", "unif_table"])
    def test_toy_tables_match_reference(self, request, which):
        table = request.getfixturevalue(which)
        rng = np.random.default_rng(31)
        for i, count, pseudo in self.queries(table, rng, 150):
            count = min(count, 2000)
            assert_same_retention(
                retain(table, pseudo, count=count, exclude=i),
                reference_retain(table, pseudo, count=count, exclude=i))
            assert_same_retention(
                retain(table, pseudo, count=count),
                reference_retain(table, pseudo, count=count))

    @pytest.mark.parametrize("decimals", [0, 1])
    def test_exact_ties_match_reference(self, norm_table, decimals):
        # two statistics on a coarse grid: many rows share their vector
        table = rounded_table(take_rows(norm_table, range(3000)).with_stats(
            norm_table.stat_names[:2]), decimals)
        rng = np.random.default_rng(32 + decimals)
        straddling = 0
        for i, count, pseudo in self.queries(table, rng, 100):
            r = retain(table, pseudo, count=count, exclude=i)
            assert_same_retention(
                r, reference_retain(table, pseudo, count=count, exclude=i))
            _, every = reference_retain(table, pseudo,
                                        count=table.n_rows - 1, exclude=i)
            straddling += (np.count_nonzero(every == r.epsilon)
                           > np.count_nonzero(r.distances == r.epsilon))
        # most queries cut through a group of tied rows
        assert straddling > 50

    def test_tie_at_cutoff_broken_by_row_order(self):
        values = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0],
                           [4.0, -1.0], [5.0, 1.0]])
        table = SimulationTable(("p", "s"), values, (0,), (1,))
        obs = ObservedStats(("s",), np.array([0.0]))
        raw = Standardizer.identity(("s",))
        r = retain(table, obs, count=3, standardizer=raw)
        assert r.indices.tolist() == [2, 1, 3]
        r = retain(table, obs, count=3, standardizer=raw, exclude=1)
        assert r.indices.tolist() == [2, 3, 4]

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_exclude_end_rows_keeping_all_others(self, unif_table, where):
        table = take_rows(unif_table, np.arange(500))
        i = 0 if where == "first" else table.n_rows - 1
        pseudo = ObservedStats(table.stat_names, table.stats[i])
        r = retain(table, pseudo, count=table.n_rows - 1, exclude=i)
        assert i not in r.indices
        assert sorted(r.indices.tolist()) == sorted(set(range(500)) - {i})
        assert_same_retention(r, reference_retain(
            table, pseudo, count=table.n_rows - 1, exclude=i))
        with pytest.raises(ValueError, match="cannot retain 500 of 499"):
            retain(table, pseudo, count=table.n_rows, exclude=i)

    def test_tolerance_counts_the_remaining_rows(self, norm_table):
        table = take_rows(norm_table, np.arange(1001))
        rng = np.random.default_rng(34)
        for i, _, pseudo in self.queries(table, rng, 20):
            r = retain(table, pseudo, 50, exclude=i)
            assert_same_retention(r, reference_retain(table, pseudo, count=50,
                                                      exclude=i))

    def test_supplied_standardizer(self, norm_table, unif_table):
        std = Standardizer.fit([norm_table, unif_table], norm_table.stat_names)
        rng = np.random.default_rng(35)
        for i, count, pseudo in self.queries(norm_table, rng, 30):
            assert_same_retention(
                retain(norm_table, pseudo, count=count, standardizer=std,
                       exclude=i),
                reference_retain(norm_table, pseudo, count=count,
                                 exclude=i, standardizer=std))

    def test_retained_rows_gathered_from_full_table(self, norm_table):
        pseudo = ObservedStats(norm_table.stat_names, norm_table.stats[7])
        r = retain(norm_table, pseudo, count=300, exclude=7)
        np.testing.assert_array_equal(r.params, norm_table.params[r.indices])
        np.testing.assert_array_equal(r.stats, norm_table.stats[r.indices])

    @pytest.mark.parametrize("exclude", [None, 7])
    def test_fields_equal_gathering_anew(self, exclude):
        # statistic c is constant and matches the observation, so it is
        # left out of the distance and of the retained columns
        rng = np.random.default_rng(36)
        values = np.column_stack([rng.normal(size=(300, 2)),
                                  rng.normal(size=300), np.ones(300),
                                  rng.gamma(2.0, size=300)])
        table = SimulationTable(("p", "q", "a", "c", "b"), values, (0, 1),
                                (2, 3, 4))
        pseudo = ObservedStats(("b", "c", "a"), [1.5, 1.0, 0.2])
        r = retain(table, pseudo, count=40, exclude=exclude)
        assert r.stat_names == ("b", "a") and r.param_names == ("p", "q")
        gathered = table.stat_matrix(r.stat_names)[r.indices]
        np.testing.assert_array_equal(r.params, table.params[r.indices])
        np.testing.assert_array_equal(r.stats, gathered)
        np.testing.assert_array_equal(r.stats_std,
                                      r.standardizer.transform(gathered))
        np.testing.assert_array_equal(r.obs_std,
                                      r.standardizer.transform(r.obs))
        np.testing.assert_array_equal(r.obs, [1.5, 0.2])

    def test_excluded_row_out_of_range(self, norm_table, toy_obs):
        with pytest.raises(ValueError, match="outside"):
            retain(norm_table, toy_obs, count=5, exclude=norm_table.n_rows)
        with pytest.raises(ValueError, match="outside"):
            retain(norm_table, toy_obs, count=5, exclude=-1)

    def test_constant_over_remaining_rows(self):
        # statistic c varies only through row 0: without it, c is constant
        values = np.column_stack([np.arange(10.0),
                                  np.r_[9.0, np.full(9, 3.0)],
                                  np.arange(10.0)])
        table = SimulationTable(("p", "c", "s"), values, (0,), (1, 2))
        obs = ObservedStats(("c", "s"), np.array([3.0, 0.0]))
        r = retain(table, obs, count=3, exclude=0)
        assert r.stat_names == ("s",)
        assert r.indices.tolist() == [1, 2, 3]


def split_tables(rng, n_rows, n_tables, k):
    """``n_tables`` tables of ``n_rows`` rows in all, each with a
    parameter and ``k`` statistics on their own scales; with ``k > 1`` the
    last statistic is constant, and every table after the first holds
    its statistics in reverse column order."""
    names = tuple(f"s{j}" for j in range(k))
    tables = []
    for m, rows in enumerate(np.array_split(np.arange(n_rows), n_tables)):
        stats = 1e3 * m + rng.normal(size=(len(rows), k)) * np.geomspace(
            1e-3, 1e3, k)
        if k > 1:
            stats[:, -1] = 2.5
        order, stats = (names[::-1], stats[:, ::-1]) if m else (names, stats)
        tables.append(SimulationTable(("p",) + order, np.column_stack(
            [rng.uniform(size=len(rows)), stats]), (0,),
            tuple(range(1, k + 1))))
    return tables, names


def assert_same_scale(got, want):
    assert got.names == want.names
    assert got.center.tobytes() == want.center.tobytes()
    assert got.scale.tobytes() == want.scale.tobytes()


class TestColumnFit:
    """``Standardizer.fit`` against numpy's formula over the stacked
    column-major block of the pooled rows."""

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("n_rows", [127, 128, 129, 8191, 8193, 160001])
    @pytest.mark.parametrize("n_tables", [1, 2, 3])
    def test_bits_of_the_block_formula(self, n_tables, n_rows, k):
        rng = np.random.default_rng(n_rows + 10 * k + n_tables)
        tables, names = split_tables(rng, n_rows, n_tables, k)
        blocks = [t.stat_matrix(names) for t in tables]
        assert_same_scale(Standardizer.fit(tables, names),
                          formula_fit(np.concatenate(blocks), names))
        # the first, a middle and the last row of each model
        for m, t in enumerate(tables):
            for row in (0, t.n_rows // 2, t.n_rows - 1):
                less = list(blocks)
                less[m] = np.delete(blocks[m], row, axis=0)
                assert_same_scale(
                    Standardizer.fit(tables, names, (m, row)),
                    formula_fit(np.concatenate(less), names))

    def test_constant_statistic_has_zero_scale(self):
        tables, names = split_tables(np.random.default_rng(41), 300, 2, 3)
        std = Standardizer.fit(tables, names, (1, 4))
        assert std.center[-1] == 2.5 and std.scale[-1] == 0.0
        assert np.all(std.scale[:-1] > 0)

    def test_excluded_row_outside_its_model(self):
        tables, names = split_tables(np.random.default_rng(42), 300, 2, 3)
        with pytest.raises(ValueError, match="excluded row 150 outside "
                                             "model 1's 150 rows"):
            Standardizer.fit(tables, names, (1, 150))
        with pytest.raises(ValueError, match="excluded row -1"):
            Standardizer.fit(tables, names, (0, -1))


def block_retain(table, obs, count, standardizer=None, exclude=None):
    """Retention on one column-major block of the candidate rows by the
    matched statistics, standardized and measured as a whole: the
    pipeline ``retain`` ran before it gathered one column at a time.
    Ranks by a full stable sort."""
    matched = list(obs.names)
    cols = table.stat_columns(matched)
    obs_vec = obs.values
    rows = np.arange(table.n_rows)
    if exclude is not None:
        rows = np.delete(rows, exclude)
    sims = table.values[rows][:, cols]
    assert sims.flags.f_contiguous
    std = (formula_fit(sims, matched) if standardizer is None
           else standardizer.subset(matched))
    keep = []
    for j, name in enumerate(matched):
        if std.scale[j] > 0:
            keep.append(j)
        elif not np.isclose(sims[0, j], obs_vec[j]):
            raise NumericalError(
                f"statistic {name} is constant at {sims[0, j]} but "
                f"observed {obs_vec[j]}; the model cannot reproduce the data")
    if not keep:
        raise NumericalError("no usable statistics left for the distance")
    if len(keep) < len(matched):
        matched = [matched[j] for j in keep]
        cols = [cols[j] for j in keep]
        std = std.subset(matched)
        sims = sims[:, keep]
    obs_std = std.transform(obs_vec[keep])
    sims -= std.center
    sims /= std.scale
    sims -= obs_std
    dist = np.sqrt(np.square(sims, out=sims).sum(axis=1))
    order = np.argsort(dist, kind="stable")[:count]
    indices = rows[order]
    stats = table.values[np.ix_(indices, cols)]
    return RetainedSet(indices, dist[order], tuple(matched), std,
                       obs_vec[keep], obs_std, table.param_names,
                       table.values[np.ix_(indices, table.param_idx)],
                       stats, std.transform(stats))


def assert_same_retained(got, want):
    for field in dataclasses.fields(RetainedSet):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "standardizer":
            assert_same_scale(a, b)
        elif isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


class TestColumnRetention:
    """``retain`` against the block pipeline it replaced, field by field
    and bit for bit."""

    @staticmethod
    def outcome(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NumericalError as e:
            return str(e)

    @pytest.mark.parametrize("k", [1, 8])
    @pytest.mark.parametrize("constant", [None, "match", "contradict"])
    @pytest.mark.parametrize("exclude", [None, 0, "middle", "last"])
    @pytest.mark.parametrize("scale", [None, "pooled", "identity"])
    def test_every_field_equals_the_block_pipeline(self, scale, exclude,
                                                   constant, k):
        rng = np.random.default_rng(51)
        tables, names = split_tables(rng, 4001, 2, k + 1)
        if constant is None:
            # no constant statistic: drop it
            names = names[:-1]
        else:
            # the constant statistic first, the others after it
            names = names[-1:] + names[:k - 1]
        table = tables[0]
        row = {"middle": 1000, "last": table.n_rows - 1}.get(exclude, exclude)
        values = table.stats[17] if row is None else table.stats[row]
        obs = dict(zip(table.stat_names, values + 0.1 * rng.normal(
            size=len(values))))
        if constant is not None:
            obs[names[0]] = 2.5 if constant == "match" else 3.0
        obs = ObservedStats(names, np.array([obs[n] for n in names]))
        std = {None: None, "identity": Standardizer.identity(names),
               "pooled": Standardizer.fit(tables, names)}[scale]
        for count in (1, 300, table.n_rows - (row is not None)):
            got = self.outcome(retain, table, obs, count, std, row)
            want = self.outcome(block_retain, table, obs, count, std, row)
            if isinstance(want, str):
                assert got == want
            else:
                assert_same_retained(got, want)
        # the constant statistic is left out, or contradicts, on every
        # scale but the identity
        dropped = constant is not None and scale != "identity"
        if dropped and constant == "contradict":
            assert "constant at 2.5 but observed 3.0" in got
        elif dropped and k == 1:
            assert got == "no usable statistics left for the distance"
        else:
            assert got.stat_names == (names[1:] if dropped else names)


class TestNonFiniteObservation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_named_in_a_table_format_error(self, norm_table, toy_obs, bad):
        values = toy_obs.values.copy()
        values[3] = bad
        obs = ObservedStats(toy_obs.names, values)
        with pytest.raises(TableFormatError,
                           match=f"not finite: {toy_obs.names[3]}$"):
            retain(norm_table, obs, count=10)


class TestPruneCorrelated:
    def test_keep_all_at_one(self):
        rng = np.random.default_rng(21)
        table = random_table(rng)
        kept, dropped = prune_correlated(table, 1.0)
        assert dropped == []
        assert kept == table.stat_names

    def test_keep_exact_duplicates_at_one(self):
        # |r| of a column with itself must not round past 1
        for seed in range(200):
            rng = np.random.default_rng(seed)
            table = random_table(rng, n_rows=int(rng.integers(5, 200)),
                                 n_stats=3)
            values = np.column_stack([table.values, table.stats[:, 1]])
            dup = SimulationTable(table.names + ("dup",), values,
                                  table.param_idx, table.stat_idx + (5,))
            _, dropped = prune_correlated(dup, 1.0)
            assert dropped == [], seed

    def test_duplicate_column_dropped(self):
        rng = np.random.default_rng(22)
        base = rng.normal(size=20)
        values = np.column_stack([np.arange(20.0), base, base,
                                  rng.normal(size=20)])
        table = SimulationTable(("p", "a", "b", "c"), values, (0,), (1, 2, 3))
        kept, dropped = prune_correlated(table, 0.99)
        assert dropped == ["b"]
        assert kept == ("a", "c")

    def test_matches_brute_force_scan(self, norm_table):
        threshold = 0.95
        stats = norm_table.stats
        names = norm_table.stat_names
        corr = np.abs(np.corrcoef(stats, rowvar=False))
        kept = []
        for j in range(len(names)):
            if all(corr[j, k] <= threshold for k in kept):
                kept.append(j)
        pruned, _ = prune_correlated(norm_table, threshold)
        assert pruned == tuple(names[j] for j in kept)
        # the toy statistics contain near-duplicates, so something must go
        assert len(pruned) < len(names)

    def test_bad_threshold(self):
        rng = np.random.default_rng(23)
        with pytest.raises(ValueError):
            prune_correlated(random_table(rng), 0.0)

    def test_needs_rows(self):
        table = SimulationTable(("p", "s"), np.zeros((1, 2)), (0,), (1,))
        with pytest.raises(TableFormatError):
            prune_correlated(table, 0.9)


class TestStandardizedObservation:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.table = random_table(rng)
        self.obs = ObservedStats(self.table.stat_names, rng.normal(size=5))
        self.r = retain(self.table, self.obs, count=20)

    def test_none_is_own_observation(self):
        # the retained set carries its own observation, raw and standardized
        np.testing.assert_array_equal(
            self.r.standardizer.transform(self.r.obs), self.r.obs_std)
        np.testing.assert_array_equal(self.r.obs, self.obs.values)

    def test_observed_stats_matched_by_name(self):
        # retain matches the observation to the table by name
        shuffled = ObservedStats(self.obs.names[::-1], self.obs.values[::-1])
        r = retain(self.table, shuffled, count=20)
        assert r.stat_names == self.r.stat_names[::-1]
        np.testing.assert_array_equal(r.obs_std[::-1], self.r.obs_std)
