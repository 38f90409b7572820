import numpy as np
import pytest

from abckit.errors import TableFormatError
from abckit.tableio import (ObservedStats, OutputTag, SimulationTable,
                            format_value, parse_param_spec, read_observed,
                            read_table, tagged_filename, write_observed,
                            write_tagged, write_table)

from conftest import traced_peak

SIM_TEXT = """mu sigma2 mean var median min max range Q1 Q3
0.5 1.0 0.48 0.97 0.51 -2.1 2.9 5.0 -0.2 1.1
-0.1 2.0 -0.12 2.05 -0.15 -3.5 3.1 6.6 -1.0 0.9
0.0 0.5 0.02 0.49 0.01 -1.6 1.7 3.3 -0.4 0.5
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParamSpec:
    def test_range(self):
        assert parse_param_spec("1-2") == (0, 1)

    def test_mixed(self):
        assert parse_param_spec("1,3-4") == (0, 2, 3)

    def test_empty_is_error(self):
        with pytest.raises(TableFormatError):
            parse_param_spec("")

    def test_reversed_range_is_error(self):
        with pytest.raises(TableFormatError):
            parse_param_spec("4-2")


class TestReadTable:
    def test_layout(self, tmp_path):
        t = read_table(write(tmp_path, "sim.txt", SIM_TEXT), "1-2")
        assert t.param_idx == (0, 1)
        assert len(t.stat_names) == 8
        assert t.n_rows == 3
        assert t.param_names == ("mu", "sigma2")

    def test_empty_body_is_valid(self, tmp_path):
        t = read_table(write(tmp_path, "e.txt", "a b c\n"), "1")
        assert t.n_rows == 0

    def test_max_rows(self, tmp_path):
        t = read_table(write(tmp_path, "sim.txt", SIM_TEXT), "1-2", max_rows=2)
        assert t.n_rows == 2

    def test_ragged_row_reports_line(self, tmp_path):
        p = write(tmp_path, "bad.txt", "a b\n1 2\n1 2 3\n")
        with pytest.raises(TableFormatError, match="3"):
            read_table(p, "1")

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path, "bad.txt", "a b\n1 x\n")
        with pytest.raises(TableFormatError, match="non-numeric"):
            read_table(p, "1")

    def test_nonfinite_rows_dropped_with_count(self, tmp_path):
        p = write(tmp_path, "nan.txt", "a b\n1 2\nnan 3\n4 inf\n5 6\n")
        t = read_table(p, "1")
        assert t.n_rows == 2
        assert t.dropped_rows == 2

    def test_out_of_range_param_column(self, tmp_path):
        p = write(tmp_path, "sim.txt", SIM_TEXT)
        with pytest.raises(TableFormatError):
            read_table(p, "11")

    def test_two_models_same_arity(self, tmp_path):
        p = write(tmp_path, "sim.txt", SIM_TEXT)
        a = read_table(p, "1-2")
        b = read_table(p, "1-2")
        assert a.param_names == b.param_names


class TestReadObserved:
    def test_single(self, tmp_path):
        p = write(tmp_path, "normal.obs",
                  "mean var median min max range Q1 Q3\n"
                  "0.102 1.14 0.0788 -2.02 3.16 5.18 -0.598 0.799\n")
        obs = read_observed(p)
        assert len(obs) == 1
        np.testing.assert_allclose(
            obs[0].values,
            [0.102, 1.14, 0.0788, -2.02, 3.16, 5.18, -0.598, 0.799])

    def test_two_value_lines(self, tmp_path):
        p = write(tmp_path, "o.obs", "a b\n1 2\n3 4\n")
        assert len(read_observed(p)) == 2

    def test_header_only_is_error(self, tmp_path):
        p = write(tmp_path, "o.obs", "a b\n")
        with pytest.raises(TableFormatError):
            read_observed(p)

    def test_arity_mismatch(self, tmp_path):
        p = write(tmp_path, "o.obs", "a b\n1 2 3\n")
        with pytest.raises(TableFormatError):
            read_observed(p)


class TestFormat:
    def test_six_significant_digits(self):
        assert format_value(1.2345678) == "1.23457"

    def test_scientific_small(self):
        assert format_value(9.79e-13) == "9.79000e-13"

    def test_scientific_large(self):
        assert "e+06" in format_value(1.5e6)

    def test_plain_in_window(self):
        assert format_value(0.000123456) == "0.000123456"
        assert format_value(123456.7) == "123457"

    def test_zero(self):
        assert format_value(0.0) == "0"


class TestTaggedFiles:
    def test_best_sims_name(self):
        assert (tagged_filename("ABC_GLM", OutputTag.BEST_SIMS, 0, 0)
                == "ABC_GLM_model0_BestSimsParamStats_Obs0.txt")

    def test_random_validation_drops_obs(self):
        assert (tagged_filename("ABC_GLM", OutputTag.RANDOM_VALIDATION, 0, 0)
                == "ABC_GLM_model0_RandomValidation.txt")

    def test_retained_validation_keeps_obs(self):
        assert (tagged_filename("ABC_GLM", OutputTag.RETAINED_VALIDATION, 0, 1)
                == "ABC_GLM_model0_RetainedValidation_Obs1.txt")

    def test_joint_posterior_indices(self):
        assert (tagged_filename("ABC_GLM", OutputTag.JOINT_POSTERIOR, 0, 0,
                                joint_params=(1, 2))
                == "ABC_GLM_model0_jointPosterior_1_2_Obs0.txt")

    def test_model_fit_spans_models(self):
        assert (tagged_filename("ABC_GLM", OutputTag.MODEL_FIT, 0, 0)
                == "ABC_GLM_modelFit_Obs0.txt")

    def test_tag_verbatim(self):
        for tag in OutputTag:
            assert tag.value in tagged_filename("p", tag, 0, 0)

    def test_empty_payload_rejected(self, tmp_path):
        with pytest.raises(TableFormatError):
            write_tagged("p", OutputTag.MODEL_FIT, (["a"], []),
                         directory=tmp_path)


class TestRoundTrip:
    def test_write_then_read_six_digits(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(20, 4)) * 10.0 ** rng.integers(-8, 8, (20, 4))
        t = SimulationTable(("p1", "s1", "s2", "s3"), values, (0,), (1, 2, 3))
        path = write_tagged("roundtrip", OutputTag.BEST_SIMS,
                            (t.names, t.values),
                            model_index=0, obs_index=0, directory=tmp_path)
        back = read_table(path, "1")
        assert back.names == t.names
        np.testing.assert_allclose(back.values, t.values, rtol=1e-5)

    def test_permuted_observation_matches_by_name(self, tmp_path):
        obs = ObservedStats(("b", "a"), np.array([2.0, 1.0]))
        p = write_observed(tmp_path / "o.obs", obs)
        back = read_observed(p)[0]
        assert back.vector(["a", "b"]).tolist() == [1.0, 2.0]

    def test_write_table_plain(self, tmp_path):
        t = SimulationTable(("a", "b"), np.array([[1.0, 2.0]]), (0,), (1,))
        path = write_table(tmp_path / "t.txt", t)
        assert read_table(path, "1").values.tolist() == [[1.0, 2.0]]


class TestInvariants:
    def test_duplicate_names_rejected(self):
        with pytest.raises(TableFormatError):
            SimulationTable(("a", "a"), np.zeros((1, 2)), (0,), (1,))

    def test_param_stat_overlap_rejected(self):
        with pytest.raises(TableFormatError):
            SimulationTable(("a", "b"), np.zeros((1, 2)), (0,), (0, 1))

    def test_values_locked(self):
        t = SimulationTable(("a", "b"), np.zeros((1, 2)), (0,), (1,))
        with pytest.raises(ValueError):
            t.values[0, 0] = 1.0

    def test_obs_name_value_mismatch(self):
        with pytest.raises(TableFormatError):
            ObservedStats(("a",), np.array([1.0, 2.0]))


def format_rows_reference(header, rows) -> bytes:
    """The written bytes, formatted one cell at a time with format_value."""
    lines = ["\t".join(header)]
    lines += ["\t".join(format_value(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


EDGE_ROWS = [
    [0.0, -0.0, 1.0, -1.0],
    [1e-4, 9.99995e-5, -1e-4, -9.99995e-5],
    [999999.5, 1e6, -999999.5, -1e6],
    [999999.4, 123456.7, 0.000123456, -2.5],
    [3.0, -7.0, 42.0, 1e5],
    [np.nan, np.inf, -np.inf, 0.5],
    [1e-300, 5e-324, 1e300, -0.0],
]


class TestWriterByteIdentity:
    @pytest.mark.parametrize("as_array", [True, False])
    def test_edge_values(self, tmp_path, as_array):
        header = ["a", "b", "c", "d"]
        rows = np.array(EDGE_ROWS) if as_array else [list(r) for r in EDGE_ROWS]
        path = write_tagged("p", OutputTag.MARGINAL_DENSITIES, (header, rows),
                            model_index=0, obs_index=0, directory=tmp_path)
        assert path.read_bytes() == format_rows_reference(header, EDGE_ROWS)

    def test_integer_and_bool_cells(self, tmp_path):
        header = ["model", "n", "flag"]
        rows = [[0, 1000000, True], [1, 12, False], [2, -3, True]]
        path = write_tagged("p", OutputTag.MODEL_FIT, (header, rows),
                            directory=tmp_path)
        assert path.read_bytes() == format_rows_reference(header, rows)

    def test_rows_mixing_labels_and_numbers(self, tmp_path):
        header = ["parameter", "mode", "mean"]
        rows = [["mu", 0.25, -0.0], ["sigma2", 1.5e-7, 2e6],
                ["1.50", 3.0, np.nan]]
        path = write_tagged("p", OutputTag.MARGINAL_CHARACTERISTICS,
                            (header, rows), model_index=0, obs_index=0,
                            directory=tmp_path)
        assert path.read_bytes() == format_rows_reference(header, rows)

    def test_float32_cells_judged_in_float64(self, tmp_path):
        rows = np.array([[1e-4, 0.1, 999999.5]], dtype=np.float32)
        path = write_tagged("p", OutputTag.MODEL_FIT, (["a", "b", "c"], rows),
                            directory=tmp_path)
        assert path.read_bytes() == format_rows_reference(["a", "b", "c"], rows)

    @pytest.mark.parametrize("as_array", [True, False])
    def test_table_longer_than_one_block(self, tmp_path, as_array):
        from abckit.tableio import _WRITE_BLOCK_ROWS
        rng = np.random.default_rng(11)
        n = 2 * _WRITE_BLOCK_ROWS + 17
        values = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-6, 8, (n, 3))
        values[5] = [0.0, -0.0, 1.0]
        values[_WRITE_BLOCK_ROWS + 3] = [np.inf, 1e-4, 999999.5]
        rows = values if as_array else values.tolist()
        path = write_tagged("p", OutputTag.BEST_SIMS, (["x", "y", "z"], rows),
                            model_index=0, obs_index=0, directory=tmp_path)
        assert path.read_bytes() == format_rows_reference(["x", "y", "z"], values)

    def test_write_table_and_write_observed(self, tmp_path):
        values = np.array(EDGE_ROWS[:5])
        t = SimulationTable(("a", "b", "c", "d"), values, (0,), (1, 2, 3))
        path = write_table(tmp_path / "t.txt", t)
        assert path.read_bytes() == format_rows_reference(t.names, values)
        obs = ObservedStats(("a", "b", "c", "d"), np.array(EDGE_ROWS[2]))
        path = write_observed(tmp_path / "o.obs", obs)
        assert path.read_bytes() == format_rows_reference(obs.names, [EDGE_ROWS[2]])

    def test_empty_ndarray_payload_rejected(self, tmp_path):
        with pytest.raises(TableFormatError):
            write_tagged("p", OutputTag.MODEL_FIT, (["a"], np.empty((0, 1))),
                         directory=tmp_path)

    def test_layout_of_the_payload_does_not_matter(self, tmp_path):
        # a row-major, a column-major and a column-strided payload of the
        # same cells, the edge cells among them, over more than one block
        from abckit.tableio import _WRITE_BLOCK_ROWS
        rng = np.random.default_rng(12)
        n = _WRITE_BLOCK_ROWS + 9
        wide = rng.normal(size=(n, 8)) * 10.0 ** rng.integers(-6, 8, (n, 8))
        wide[:len(EDGE_ROWS), ::2] = EDGE_ROWS
        header = ["a", "b", "c", "d"]
        strided = wide[:, ::2]
        want = format_rows_reference(header, strided)
        for rows in (np.ascontiguousarray(strided), np.asfortranarray(strided),
                     strided):
            path = write_tagged("p", OutputTag.BEST_SIMS, (header, rows),
                                model_index=0, obs_index=0,
                                directory=tmp_path)
            assert path.read_bytes() == want

    def test_a_table_read_is_written_back(self, tmp_path):
        t = read_table(write(tmp_path, "t.txt", SIM_TEXT), "1-2")
        assert t.values.flags.f_contiguous
        path = write_table(tmp_path / "again.txt", t)
        assert path.read_bytes() == format_rows_reference(t.names, t.values)
        assert read_table(path, "1-2").values.tobytes() == t.values.tobytes()


def format_block_reference(rows) -> str:
    return "".join("\t".join(format_value(v) for v in row) + "\n"
                   for row in rows)


EDGE_CELLS = [0.0, -0.0, 1.5, -2.25, 123456.7, 1e-4, -1e-4,
              np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e6, -1e6,
              np.nextafter(1e6, 0), np.nextafter(1e6, 2e6), 999999.5,
              9.99995e-5, 1.5e-7, 3e8, 5e-324, -5e-324, 2.2e-308, 1e-310,
              1.7976931348623157e308, np.nan, np.inf, -np.inf, 42.0]


class TestFormatBlock:
    """The pattern-keyed block formatter against format_value cell by
    cell."""

    def random_edge_rows(self, n, ncol, seed):
        rng = np.random.default_rng(seed)
        cells = np.array(EDGE_CELLS)
        values = rng.normal(size=(n, ncol)) * 10.0 ** rng.integers(-8, 9,
                                                                   (n, ncol))
        pick = rng.uniform(size=(n, ncol)) < 0.3
        values[pick] = rng.choice(cells, size=int(pick.sum()))
        return values

    @pytest.mark.parametrize("ncol", [1, 4, 9])
    def test_mixed_rows(self, ncol):
        from abckit.tableio import _format_block
        values = self.random_edge_rows(500, ncol, ncol)
        for rows in (values, values.tolist()):
            assert _format_block(rows) == format_block_reference(values)

    def test_every_edge_cell_in_one_row(self):
        from abckit.tableio import _format_block
        rows = [EDGE_CELLS, EDGE_CELLS[::-1]]
        assert _format_block(rows) == format_block_reference(rows)

    def test_float32_and_int_columns(self):
        from abckit.tableio import _format_block
        f32 = np.array([[1e-4, 0.1, 999999.5, 1e6, 3e-9, -0.0, np.nan,
                         np.inf]], dtype=np.float32)
        assert _format_block(f32) == format_block_reference(f32)
        ints = np.array([[0, 1, -7, 999999, 1000000, -123456789],
                         [2**53 + 1, 5, 0, -1, 10**6, 12]], dtype=np.int64)
        assert _format_block(ints) == format_block_reference(ints)
        mixed = [[0, 1.5e-7, True], [3, 2.5, False], [1000000, -0.0, True]]
        assert _format_block(mixed) == format_block_reference(mixed)

    def test_label_rows(self):
        from abckit.tableio import _format_block
        rows = [["mu", 0.25, 1e-9], ["sigma2", np.inf, -0.0],
                ["1e-05", 5e-324, 1e6]]
        assert _format_block(rows) == format_block_reference(rows)
        ragged = [[1.0, 2e-7], [3.0]]
        assert _format_block(ragged) == format_block_reference(ragged)

    @pytest.mark.parametrize("as_array", [True, False])
    def test_more_than_one_block(self, tmp_path, as_array):
        from abckit.tableio import _WRITE_BLOCK_ROWS
        values = self.random_edge_rows(2 * _WRITE_BLOCK_ROWS + 5, 4, 12)
        rows = values if as_array else values.tolist()
        path = write_tagged("p", OutputTag.JOINT_POSTERIOR,
                            (["a", "b", "density", "HDI"], rows),
                            model_index=0, obs_index=0, directory=tmp_path)
        assert path.read_bytes() == format_rows_reference(
            ["a", "b", "density", "HDI"], values)


def parse_both(path, max_rows=None):
    """The body of the table at ``path`` through the bulk path and through
    the line parser, each from the open file positioned after the header,
    as ``read_table`` runs them."""
    from abckit.tableio import _header, _parse_bulk, _parse_lines
    with open(path) as fh:
        start, header = _header(fh)
        body = fh.tell()
        bulk = _parse_bulk(path, fh, start + 1, len(header), max_rows)
        fh.seek(body)
        exact = _parse_lines(path, fh, start + 1, len(header), max_rows)
    return bulk, exact


def assert_bulk_equals(bulk, exact):
    """The bulk parser's column-major rows and dropped count are the
    finite rows of the line parser's and the count of the others."""
    assert bulk is not None
    values, dropped = bulk
    finite = np.isfinite(exact).all(axis=1)
    assert values.tobytes() == exact[finite].tobytes()
    assert values.shape == exact[finite].shape
    assert values.flags.f_contiguous
    assert dropped == int((~finite).sum())


def write_bytes(tmp_path, name, text):
    p = tmp_path / name
    p.write_bytes(text.encode())
    return p


class TestReaderEquivalence:
    CASES = {
        "crlf": "a\tb\r\n1 2\r\n3 4\r\n",
        "cr": "a\tb\r1 2\r3 4\r",
        "mixed_line_ends": "a b\r\n1 2\r3 4\n\r\n5 6",
        "mixed_whitespace": "a b\n1\t 2\n 3  \t4 \t\n\t5 6\n",
        "blank_lines": "a b\n\n1 2\n   \n\t\n3 4\n\n",
        "no_final_newline": "a b\n\n1 2\n  \n3 4",
        "field_whitespace": "a\fb\n1\f2\n3\v4\n5\x1c6\n7\x1d8\n9\x1e10\n"
                            "11\x8512\n13\u202814\n15\u202916\n",
        "nonfinite_tokens": "a b\n1 nan\nNaN 2\n3 inf\n-Infinity 4\n5 6\n",
        "header_only": "a b c\n",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bulk_matches_line_parser(self, tmp_path, name):
        p = write_bytes(tmp_path, "t.txt", self.CASES[name])
        bulk, exact = parse_both(p)
        assert_bulk_equals(bulk, exact)
        t = read_table(p, "1")
        finite = np.isfinite(exact).all(axis=1)
        assert t.values.tobytes() == exact[finite].tobytes()
        assert t.dropped_rows == int((~finite).sum())

    def test_line_ends_and_field_whitespace(self, tmp_path):
        """A line ends at \\n, \\r\\n or \\r; every other whitespace
        character separates fields, in the header, the rows and the
        observed-statistics file alike."""
        rows = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [9.0, 10.0],
                [11.0, 12.0], [13.0, 14.0], [15.0, 16.0]]
        for name in ("crlf", "cr", "field_whitespace"):
            t = read_table(write_bytes(tmp_path, "t.txt", self.CASES[name]))
            assert t.names == ("a", "b")
            assert t.values.tolist() == rows[:t.n_rows]
        assert t.n_rows == 8
        obs = read_observed(write_bytes(tmp_path, "o.obs", "a\fb\r\n1\f2\r3 4"))
        assert [o.values.tolist() for o in obs] == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("max_rows", [1, 2, 3, 4])
    def test_max_rows_after_dropped_rows(self, tmp_path, max_rows):
        text = "a b\nnan 1\n1 2\ninf 3\n-inf 4\n2 3\n3 4\nnan 5\n4 5\n"
        p = write(tmp_path, "t.txt", text)
        bulk, exact = parse_both(p, max_rows=max_rows)
        assert_bulk_equals(bulk, exact)
        t = read_table(p, "1", max_rows=max_rows)
        expected_dropped = {1: 1, 2: 3, 3: 3, 4: 4}[max_rows]
        assert t.n_rows == max_rows
        assert t.dropped_rows == expected_dropped
        assert t.values[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0][:max_rows]

    @staticmethod
    def long_text(n_rows, line_end="\n"):
        """A header and ``n_rows`` rows of three distinct finite values."""
        rows = np.arange(3 * n_rows, dtype=float).reshape(n_rows, 3) / 8
        return line_end.join(["a b c"] + [" ".join(map(repr, r))
                                          for r in rows.tolist()]) + line_end

    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
    def test_bad_line_far_into_the_file(self, tmp_path, line_end):
        lines = self.long_text(70000, line_end).split(line_end)
        lines[59999] = "1 2 x"                 # line 60000 of the file
        p = write_bytes(tmp_path, "t.txt", line_end.join(lines))
        with pytest.raises(TableFormatError) as exact:
            parse_both(p)
        with pytest.raises(TableFormatError) as info:
            read_table(p, "1")
        assert info.value.line == exact.value.line == 60000
        # a cut before the bad line never reads it
        assert read_table(p, "1", max_rows=59998).n_rows == 59998

    @pytest.mark.parametrize("max_rows", [49999, 50000, 50001, 50004])
    def test_nonfinite_rows_around_a_far_cut(self, tmp_path, max_rows):
        lines = self.long_text(60000).split("\n")
        for row in (10, 49998, 50000, 50001, 50003, 50010):
            lines[1 + row] = "nan 1 2" if row % 2 else "1 inf 2"
        p = write(tmp_path, "t.txt", "\n".join(lines))
        bulk, exact = parse_both(p, max_rows=max_rows)
        assert_bulk_equals(bulk, exact)
        t = read_table(p, "1", max_rows=max_rows)
        finite = np.isfinite(exact).all(axis=1)
        assert t.n_rows == max_rows
        assert t.values.tobytes() == exact[finite].tobytes()
        assert t.dropped_rows == int((~finite).sum())

    def test_max_rows_reads_in_proportion_to_the_rows_kept(self, tmp_path):
        bound = 1_000_000                      # bytes, fixed before the first run
        rng = np.random.default_rng(3)
        block = "".join(" ".join(map(repr, row)) + "\n"
                        for row in rng.normal(size=(1000, 4)).tolist())
        p = write(tmp_path, "t.txt", "a b c d\n" + block * 200)
        assert p.stat().st_size > 10 * bound
        t, peak = traced_peak(read_table, p, "1", max_rows=1000)
        assert t.n_rows == 1000
        assert t.values.tolist() == read_table(p, "1").values[:1000].tolist()
        assert peak < bound

    @pytest.mark.parametrize("max_rows", [2**31, 2**63], ids=["2^31", "2^63"])
    def test_huge_max_rows_reads_the_whole_table(self, tmp_path, max_rows):
        # np.loadtxt allocates room for the rows it is asked for: 160 GiB
        # for 2^31 rows of 10 columns, an OverflowError for 2^63
        bound = 1_000_000                      # bytes, fixed before the first run
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(50, 10))
        rows[[3, 17], [0, 5]] = [np.nan, np.inf]
        p = write(tmp_path, "t.txt", " ".join("abcdefghij") + "\n" + "".join(
            " ".join(map(repr, row)) + "\n" for row in rows.tolist()))
        whole = read_table(p, "1-2")
        t, peak = traced_peak(read_table, p, "1-2", max_rows=max_rows)
        assert t.values.tobytes() == whole.values.tobytes()
        assert t.n_rows == 48 and t.dropped_rows == whole.dropped_rows == 2
        assert peak < bound
        bulk, exact = parse_both(p, max_rows=max_rows)
        assert_bulk_equals(bulk, exact)

    def test_max_rows_stops_before_a_bad_line(self, tmp_path):
        p = write(tmp_path, "t.txt", "a b\nnan 1\n1 2\n2 3\nnot a row\n")
        t = read_table(p, "1", max_rows=2)
        assert t.values.tolist() == [[1.0, 2.0], [2.0, 3.0]]
        assert t.dropped_rows == 1

    def test_values_equal_float_parsing(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(300, 4)) * 10.0 ** rng.integers(-300, 300, (300, 4))
        text = "a b c d\n" + "".join(" ".join(repr(v) for v in row) + "\n"
                                     for row in values.tolist())
        t = read_table(write(tmp_path, "t.txt", text), "1")
        assert t.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("text, line", [
        ("a b\n1 2\n# comment\n3 4\n", 3),
        ("a b\n1 2\n#\n", 3),
        ("a b\n\n1 2\n1 2 3\n", 4),
        ("a b\n1 2\n3\n", 3),
        ("a b\n1 2\n\n1 x\n", 4),
        ("a b\n1_0 2\n1 2\n0x1 2\n", 4),
    ])
    def test_errors_name_the_line(self, tmp_path, text, line):
        p = write(tmp_path, "bad.txt", text)
        with pytest.raises(TableFormatError) as info:
            read_table(p, "1")
        assert info.value.line == line
        assert f"{p}:{line}:" in str(info.value)

    def test_observed_keeps_nonfinite_values(self, tmp_path):
        p = write(tmp_path, "o.obs", "a b\n1 nan\n\n3 4\n")
        obs = read_observed(p)
        assert np.isnan(obs[0].values[1])
        assert obs[1].values.tolist() == [3.0, 4.0]

    def test_values_are_column_major_and_read_only(self, tmp_path):
        p = write(tmp_path, "t.txt", SIM_TEXT)
        for max_rows in (None, 2):
            values = read_table(p, "1-2", max_rows=max_rows).values
            assert values.flags.f_contiguous and not values.flags.c_contiguous
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0, 0] = 1.0
        # so is a table the line parser decides, and one whose blank lines
        # leave it short of its line count
        for text in (SIM_TEXT.replace("0.5 1.0", "0.5 1_0"),
                     SIM_TEXT.replace("\n", "\n\n")):
            values = read_table(write(tmp_path, "u.txt", text), "1-2").values
            assert values.flags.f_contiguous and not values.flags.writeable
            assert values.shape == (3, 10)

    def test_a_read_holds_the_table_once(self, tmp_path):
        # 50000 x 10 values are 4 MB; np.asfortranarray of a whole
        # np.loadtxt result would hold them twice
        bound = 1.25 * 4_000_000       # bytes, fixed before the first run
        rng = np.random.default_rng(13)
        block = "".join(" ".join(map(repr, row)) + "\n"
                        for row in rng.normal(size=(5000, 10)).tolist())
        p = write(tmp_path, "t.txt",
                  " ".join("abcdefghij") + "\n" + block * 10)
        t, peak = traced_peak(read_table, p, "1-2")
        assert t.values.shape == (50000, 10)
        assert peak < bound

    def test_observed_error_names_the_line(self, tmp_path):
        p = write(tmp_path, "o.obs", "a b\n1 2\n3 y\n")
        with pytest.raises(TableFormatError) as info:
            read_observed(p)
        assert info.value.line == 3


class TestReaderBlocks(TestReaderEquivalence):
    """Every reader case again, with bulk blocks of 7 rows, so that blocks
    split the files: a cut inside a block, non-finite rows before the cut,
    blank lines, ``\r``, ``\r\n`` and no final newline among them."""

    @pytest.fixture(autouse=True)
    def seven_row_blocks(self, monkeypatch):
        from abckit import tableio
        monkeypatch.setattr(tableio, "_READ_BLOCK_ROWS", 7)
        monkeypatch.setattr(tableio, "_COUNT_BYTES", 61)

    @pytest.mark.parametrize("name", sorted(TestReaderEquivalence.CASES))
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_line_count_in_small_reads(self, tmp_path, monkeypatch, name,
                                       chunk):
        # reads of a few bytes split every \r\n somewhere
        from abckit import tableio
        monkeypatch.setattr(tableio, "_COUNT_BYTES", chunk)
        p = write_bytes(tmp_path, "t.txt", self.CASES[name])
        with open(p) as fh:
            lines = sum(1 for _ in fh)
        assert tableio._count_lines(p) == lines
        for limit in range(lines + 2):
            assert tableio._count_lines(p, limit) == min(limit, lines)
