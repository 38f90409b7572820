"""Every step that reads a simulation table gives the same bits on the
column-major values that ``read_table`` returns as on a row-major copy of
them."""

import dataclasses

import numpy as np
import pytest

from abckit import orchestrate
from abckit.modelchoice import glm_model_choice
from abckit.orchestrate import McmcConfig, SimulatorBinding, calibrate
from abckit.priors import parse_est
from abckit.rejection import Standardizer, abs_correlations, retain
from abckit.statselect import boost, fit_boxcox, fit_pls, transform
from abckit.tableio import (ObservedStats, SimulationTable, read_table,
                            write_table)

from conftest import make_toy_table


def row_major(table):
    values = np.ascontiguousarray(table.values)
    assert values.flags.c_contiguous and not values.flags.f_contiguous
    return SimulationTable(table.names, values, table.param_idx,
                           table.stat_idx)


def assert_same_bits(a, b):
    """``a`` and ``b`` hold the same values, to the bit, field by field."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            if f.compare:
                assert_same_bits(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bits(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            assert_same_bits(a[k], b[k])
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes()
    else:
        assert a == b


@pytest.fixture(scope="module")
def read_tables(tmp_path_factory):
    """The two toy tables written and read back: column-major tables."""
    tmp = tmp_path_factory.mktemp("layout")
    tables = []
    for model, seed in (("normal", 91), ("uniform", 92)):
        path = write_table(tmp / f"{model}.txt",
                           make_toy_table(model, 3000, seed))
        table = read_table(path, "1-2")
        assert table.values.flags.f_contiguous
        assert not table.values.flags.c_contiguous
        tables.append(table)
    return tables


@pytest.fixture(scope="module")
def obs(read_tables):
    # a row of the uniform table, moved a little
    table = read_tables[1]
    return ObservedStats(table.stat_names, table.stats[17] * 1.01)


def both(read_tables):
    return read_tables, [row_major(t) for t in read_tables]


def test_the_accessors_copy_the_same_blocks(read_tables):
    cols, rows = both(read_tables)
    for a, b in zip(cols, rows):
        names = a.stat_names[::-1]
        for got, want in ((a.params, b.params), (a.stats, b.stats),
                          (a.stat_matrix(names), b.stat_matrix(names))):
            assert_same_bits(got, want)
            assert got.flags.f_contiguous == want.flags.f_contiguous
        assert_same_bits(a.with_stats(names).values,
                         b.with_stats(names).values)


def test_transform_and_boost(read_tables):
    cols, rows = both(read_tables)
    comb = fit_pls(cols[0], 3, 5, rng=1).definition
    for a, b in zip(cols, rows):
        for k in (1, 3):
            assert_same_bits(transform(a, comb, k), transform(b, comb, k))
        assert_same_bits(transform(a, comb, apply_boxcox=False),
                         transform(b, comb, apply_boxcox=False))
        assert_same_bits(boost(a), boost(b))


def test_fit_pls_and_fit_boxcox(read_tables):
    cols, rows = both(read_tables)
    for a, b in zip(cols, rows):
        assert_same_bits(fit_pls(a, 4, 5, rng=2), fit_pls(b, 4, 5, rng=2))
        for j, name in zip(a.stat_idx, a.stat_names):
            # a contiguous column against a strided one
            assert_same_bits(fit_boxcox(a.values[:, j], name),
                             fit_boxcox(b.values[:, j], name))


def test_abs_correlations(read_tables):
    cols, rows = both(read_tables)
    names = cols[0].stat_names
    assert_same_bits(abs_correlations(cols, names),
                     abs_correlations(rows, names))
    assert_same_bits(abs_correlations(cols[:1], names[3:]),
                     abs_correlations(rows[:1], names[3:]))


@pytest.mark.parametrize("exclude", [None, (0, 0), (1, 17), (1, 2999)])
def test_standardizer_fit(read_tables, exclude):
    cols, rows = both(read_tables)
    names = cols[0].stat_names[::-1]
    assert_same_bits(Standardizer.fit(cols, names, exclude),
                     Standardizer.fit(rows, names, exclude))


@pytest.mark.parametrize("exclude", [None, 0, 17, 2999])
@pytest.mark.parametrize("pooled", [False, True])
def test_retain(read_tables, obs, exclude, pooled):
    cols, rows = both(read_tables)
    scale = Standardizer.fit(rows, obs.names) if pooled else None
    for a, b in zip(cols, rows):
        assert_same_bits(retain(a, obs, 200, scale, exclude),
                         retain(b, obs, 200, scale, exclude))


@pytest.mark.parametrize("exclude", [None, (0, 5), (1, 17)])
def test_glm_model_choice(read_tables, obs, exclude):
    cols, rows = both(read_tables)
    for standardize in (True, False):
        assert_same_bits(
            glm_model_choice(cols, obs, 150, exclude=exclude,
                             standardize=standardize),
            glm_model_choice(rows, obs, 150, exclude=exclude,
                             standardize=standardize))


@pytest.mark.parametrize("boosting", [False, True])
def test_calibration_start(monkeypatch, read_tables, obs, boosting):
    # the calibration simulations handed over column-major and row-major
    est = parse_est("[PARAMETERS]\n0 mu unif -1 1 output\n"
                    "0 sigma2 unif 0.1 4 output\n")
    binding = SimulatorBinding.builtin("toy-normal")
    cfg = McmcConfig(n_calibration=400, threshold_prop=0.05,
                     starting_point="random", do_boosting=boosting)
    real = orchestrate.run_standard
    cals = []
    for layout in (np.asfortranarray, np.ascontiguousarray):
        def run_standard(*args, layout=layout, **kwargs):
            run = real(*args, **kwargs)
            t = run.table
            table = SimulationTable(t.names, layout(t.values), t.param_idx,
                                    t.stat_idx)
            assert table.values.flags.f_contiguous == (
                layout is np.asfortranarray)
            return dataclasses.replace(run, table=table)
        monkeypatch.setattr(orchestrate, "run_standard", run_standard)
        cals.append(calibrate(est, binding, obs, cfg,
                              np.random.default_rng(3)))
    got, want = cals
    for name in ("epsilon", "widths", "start_raw", "start_stats",
                 "start_distance", "retained"):
        assert_same_bits(getattr(got, name), getattr(want, name))
