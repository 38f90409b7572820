import math
import re

import numpy as np
import pytest
from scipy import stats as sps

from abckit import priors
from abckit.errors import EstParseError, EvalError
from abckit.priors import (EstModel, complete_draw, complete_rows, eval_expr,
                           log_prior_density, parse_est, parse_expression,
                           sample, sample_rows)

RULES_EST = """\
[PARAMETERS]
0 PARAM_A unif -1 1 output
0 PARAM_B norm -10 10 1 2 output
[RULES]
PARAM_A > PARAM_B
[COMPLEX PARAMETERS]
0 PARAM_B_SCALED = exp(PARAM_B) / PARAM_A
"""

POPGEN_EST = """\
[PARAMETERS]
0 LOG10_N_CUR    unif 2 6    output
0 LOG10_OMEGA    unif    -3    3    output
0 TAU    unif 0 1    output
0 MUTRATE fixed 2.5e-8 hide
[COMPLEX PARAMETERS]
1    N_CUR = pow10(LOG10_N_CUR)    hide
1    T1 = TAU * 2 * N_CUR    hide
0    OMEGA = pow10(LOG10_OMEGA)    hide
"""


class TestParsing:
    def test_three_sections(self):
        m = parse_est(RULES_EST)
        assert len(m.priors) == 2
        assert len(m.rules) == 1
        assert len(m.complex_params) == 1
        assert m.output_names == ("PARAM_A", "PARAM_B", "PARAM_B_SCALED")

    def test_popgen_file(self):
        m = parse_est(POPGEN_EST)
        kinds = [p.kind for p in m.priors]
        assert kinds == ["unif", "unif", "unif", "fixed"]
        assert m.priors[3].args == (2.5e-8,)
        assert not m.priors[3].output
        assert len(m.complex_params) == 3
        assert m.output_names == ("LOG10_N_CUR", "LOG10_OMEGA", "TAU")

    def test_parameters_only(self):
        m = parse_est("[PARAMETERS]\n0 A unif 0 1 output\n")
        assert m.rules == () and m.complex_params == ()

    def test_comments_ignored(self):
        m = parse_est("// c\n[PARAMETERS]\n# c\n0 A unif 0 1 output\n")
        assert len(m.priors) == 1

    def test_missing_parameters_section(self):
        with pytest.raises(EstParseError):
            parse_est("[RULES]\nA > B\n")

    def test_unknown_prior_kind(self):
        with pytest.raises(EstParseError, match="gamma"):
            parse_est("[PARAMETERS]\n0 A gamma 1 2 output\n")

    def test_duplicate_name(self):
        with pytest.raises(EstParseError, match="duplicate"):
            parse_est("[PARAMETERS]\n0 A unif 0 1 output\n0 A unif 0 1 output\n")

    def test_bad_arity(self):
        with pytest.raises(EstParseError):
            parse_est("[PARAMETERS]\n0 A unif 0 output\n")

    def test_rule_undeclared_name(self):
        with pytest.raises(EstParseError, match="undeclared"):
            parse_est("[PARAMETERS]\n0 A unif 0 1 output\n[RULES]\nA > B\n")

    def test_expression_undeclared_name(self):
        with pytest.raises(EstParseError, match="undeclared"):
            parse_est("[PARAMETERS]\n0 A unif 0 1 output\n"
                      "[COMPLEX PARAMETERS]\n0 C = A + B\n")

    def test_error_carries_line_number(self):
        with pytest.raises(EstParseError, match=":3"):
            parse_est("[PARAMETERS]\n0 A unif 0 1 output\n0 B bad 1 output\n")

    def test_min_not_below_max(self):
        with pytest.raises(EstParseError):
            parse_est("[PARAMETERS]\n0 A unif 1 1 output\n")

    @pytest.mark.parametrize("line", [
        "0 mu unif -1 inf", "0 mu logunif 1 inf", "0 mu fixed inf",
        "0 mu norm -1 1 0 inf", "0 mu norm -1 1 nan 1", "1 mu unif 0 inf",
        "1 mu norm -inf inf 0 1",
    ])
    def test_prior_arguments_are_finite(self, line):
        with pytest.raises(EstParseError,
                           match="^:2: mu: prior arguments must be finite"):
            parse_est(f"[PARAMETERS]\n{line} output\n")

    @pytest.mark.parametrize("line", [
        "0 mu unif -1e308 1e308", "1 mu unif -1e308 1e308",
        "0 mu unif -1.7e308 1e308",
    ])
    def test_uniform_width_is_finite(self, line):
        with pytest.raises(EstParseError, match="^:2: mu: prior width max - "
                                                "min must be finite, got "):
            parse_est(f"[PARAMETERS]\n{line} output\n")

    def test_widest_finite_uniform_draws_finite_values(self):
        m = parse_est("[PARAMETERS]\n0 mu unif -8e307 8e307 output\n")
        assert np.isfinite(sample_rows(m, np.random.default_rng(0), 100)).all()

    def test_continuous_normal_may_be_untruncated(self):
        m = parse_est("[PARAMETERS]\n0 mu norm -inf inf 0 1 output\n")
        draws = sample_rows(m, np.random.default_rng(0), 1000)
        assert np.isfinite(draws).all() and abs(draws.mean()) < 0.2

    def test_file_error_names_path_and_line(self, tmp_path):
        path = tmp_path / "t.est"
        path.write_text("[PARAMETERS]\n0 mu unif 1 1 output\n")
        with pytest.raises(EstParseError) as info:
            priors.parse_est_file(path)
        assert str(info.value).startswith(f"{path}:2: mu: need min < max")
        assert (info.value.path, info.value.line) == (path, 2)

    def test_default_complex_flag_is_output(self):
        m = parse_est("[PARAMETERS]\n0 A unif 0 1 output\n"
                      "[COMPLEX PARAMETERS]\n0 C = A * 2\n")
        assert m.complex_params[0].output


class TestExpressions:
    def test_pow10(self):
        assert eval_expr(parse_expression("pow10(2)"), {}) == 100.0

    def test_exp_half(self):
        assert eval_expr(parse_expression("exp(0)/2"), {}) == 0.5

    def test_e_matches_math(self):
        v = eval_expr(parse_expression("exp(1)/1"), {})
        assert v == pytest.approx(math.e, abs=1e-15)

    def test_precedence(self):
        assert eval_expr(parse_expression("2+3*4^2"), {}) == 50.0

    def test_power_right_associative(self):
        assert eval_expr(parse_expression("2^3^2"), {}) == 512.0

    def test_unary_minus(self):
        # a sign binds looser than ^ and tighter than * and /
        assert eval_expr(parse_expression("-2^2"), {}) == -4.0
        assert eval_expr(parse_expression("-X^2"), {"X": 3.0}) == -9.0
        assert eval_expr(parse_expression("2*-3^2"), {}) == -18.0
        assert eval_expr(parse_expression("2^-1"), {}) == 0.5
        assert eval_expr(parse_expression("-2*3"), {}) == -6.0
        assert eval_expr(parse_expression("3 - -2"), {}) == 5.0

    def test_functions(self):
        b = {"X": 4.0}
        assert eval_expr(parse_expression("sqrt(X)"), b) == 2.0
        assert eval_expr(parse_expression("min(X, 1)"), b) == 1.0
        assert eval_expr(parse_expression("max(X, 1)"), b) == 4.0
        assert eval_expr(parse_expression("abs(0 - X)"), b) == 4.0
        assert eval_expr(parse_expression("log10(X*25)"), b) == 2.0

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match=r"division by zero in '1/\(2-2\)'"):
            eval_expr(parse_expression("1/(2-2)"), {})

    def test_log_non_positive(self):
        with pytest.raises(EvalError, match="log"):
            eval_expr(parse_expression("log(0-1)"), {})

    @pytest.mark.parametrize("text, x, reason", [
        ("exp(X)", 750.0, "math range error"),
        ("pow10(X)", 400.0, "math range error"),
        ("X^0.5", -3.0, "math domain error"),
        ("abs(X^0.5)", -3.0, "math domain error"),
        ("X*1e308*10", 1.5, "is inf, not a finite real number"),
    ])
    def test_every_value_is_a_finite_real(self, text, x, reason):
        with pytest.raises(EvalError, match=re.escape(reason)) as info:
            eval_expr(parse_expression(text), {"X": x})
        assert repr(text) in str(info.value)

    def test_unbound_identifier_named(self):
        with pytest.raises(EvalError, match="FOO"):
            eval_expr(parse_expression("FOO + 1"), {})

    def test_whitespace_insensitive(self):
        a = eval_expr(parse_expression("1+2 * 3"), {})
        b = eval_expr(parse_expression("1 + 2*3"), {})
        assert a == b == 7.0

    def test_syntax_error_positions(self):
        with pytest.raises(EstParseError):
            parse_expression("1 + * 2")
        with pytest.raises(EstParseError):
            parse_expression("foo(1)")


class TestSampling:
    def test_fixed_is_constant(self):
        m = parse_est("[PARAMETERS]\n0 A fixed 2.5e-8 output\n")
        rng = np.random.default_rng(0)
        assert all(sample(m, rng)["A"] == 2.5e-8 for _ in range(10))

    def test_popgen_complex_values(self):
        m = parse_est(POPGEN_EST)
        # force the raw values and check the derived ones
        binds = {"LOG10_N_CUR": 4.0, "LOG10_OMEGA": 0.0, "TAU": 0.5,
                 "MUTRATE": 2.5e-8}
        n_cur = eval_expr(m.complex_params[0].expression, binds)
        assert n_cur == 10000.0
        binds["N_CUR"] = n_cur
        assert eval_expr(m.complex_params[1].expression, binds) == 10000.0

    def test_integer_prior_needs_an_integer_in_range(self):
        with pytest.raises(EstParseError, match="no integer in"):
            parse_est("[PARAMETERS]\n1 A unif 3.2 3.9 output\n")
        m = parse_est("[PARAMETERS]\n1 A unif 3.2 4.9 output\n")
        rng = np.random.default_rng(0)
        assert {sample(m, rng)["A"] for _ in range(20)} == {4.0}

    def test_uniform_mean(self):
        m = parse_est("[PARAMETERS]\n0 A unif -1 1 output\n")
        rng = np.random.default_rng(1)
        draws = np.array([sample(m, rng)["A"] for _ in range(100_000)])
        assert abs(draws.mean()) < 0.01

    def test_uniform_ks(self):
        m = parse_est("[PARAMETERS]\n0 A unif 2 5 output\n")
        rng = np.random.default_rng(2)
        draws = np.array([sample(m, rng)["A"] for _ in range(100_000)])
        p = sps.kstest(draws, sps.uniform(loc=2, scale=3).cdf).pvalue
        assert p > 0.01

    def test_rules_hold_on_every_draw(self):
        m = parse_est(RULES_EST)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            d = sample(m, rng)
            assert d["PARAM_A"] > d["PARAM_B"]

    def test_degenerate_rules_abort(self):
        m = parse_est("[PARAMETERS]\n0 A unif 0 1 output\n0 B fixed 5 hide\n"
                      "[RULES]\nA > B\n")
        rng = np.random.default_rng(4)
        with pytest.raises(EstParseError, match="degenerate"):
            sample(m, rng)

    def test_truncated_normal_bounds(self):
        m = parse_est("[PARAMETERS]\n0 A norm -10 10 1 2 output\n")
        rng = np.random.default_rng(5)
        draws = np.array([sample(m, rng)["A"] for _ in range(2000)])
        assert draws.min() >= -10 and draws.max() <= 10
        assert abs(draws.mean() - 1.0) < 0.2

    def test_truncated_normal_narrow_window(self):
        # acceptance is hopeless for rejection: the inverse CDF path kicks in
        m = parse_est("[PARAMETERS]\n0 A norm 10 10.001 0 1 output\n")
        rng = np.random.default_rng(6)
        draws = np.array([sample(m, rng)["A"] for _ in range(50)])
        assert np.all((draws >= 10) & (draws <= 10.001))

    def test_logunif_support(self):
        m = parse_est("[PARAMETERS]\n0 A logunif 0.01 100 output\n")
        rng = np.random.default_rng(7)
        draws = np.array([sample(m, rng)["A"] for _ in range(20_000)])
        assert draws.min() >= 0.01 and draws.max() <= 100
        # log of the draws is uniform
        p = sps.kstest(np.log(draws),
                       sps.uniform(loc=np.log(0.01),
                                   scale=np.log(100) - np.log(0.01)).cdf).pvalue
        assert p > 0.01

    def test_hidden_values_available(self):
        m = parse_est(POPGEN_EST)
        rng = np.random.default_rng(8)
        d = sample(m, rng)
        assert "N_CUR" in d and "N_CUR" not in m.output_names
        # N_CUR is integer-flagged, so it is truncated toward zero
        assert d["N_CUR"] == float(math.trunc(10 ** d["LOG10_N_CUR"]))

    def test_complete_draw_evaluates_complex_in_order(self):
        m = parse_est(POPGEN_EST)
        raw = {"LOG10_N_CUR": 4.5, "LOG10_OMEGA": 0.5, "TAU": 0.25,
               "MUTRATE": 2.5e-8}
        d = complete_draw(m, raw)
        assert d["N_CUR"] == float(math.trunc(10 ** 4.5))     # integer flag
        assert d["T1"] == float(math.trunc(0.25 * 2 * d["N_CUR"]))
        assert d["OMEGA"] == pytest.approx(10 ** 0.5)
        assert type(d) is dict and set(d) == set(m.all_names)
        assert "N_CUR" not in raw                # the input is not modified

    def test_sample_is_complete_draw_of_its_priors(self):
        m = parse_est(POPGEN_EST)
        d = sample(m, np.random.default_rng(9))
        raw = {name: d[name] for name in m.prior_names}
        assert complete_draw(m, raw) == d

    def test_log_prior_density_uniform(self):
        m = parse_est("[PARAMETERS]\n0 A unif 0 1 output\n")
        assert log_prior_density(m, {"A": 0.5}) == 0.0
        assert log_prior_density(m, {"A": 2.0}) == -math.inf


class TestIntegerPriors:
    """An integer prior draws the distribution the MCMC chain targets
    through log_prior_density: the density on the integers within the
    bounds, ends included."""

    @pytest.mark.parametrize("prior, lattice", [
        ("unif 0 10", range(0, 11)),
        ("unif -3 3", range(-3, 4)),
        ("norm 0 10 3 2.5", range(0, 11)),
        ("logunif 1 20", range(1, 21)),
    ])
    def test_draws_match_the_discrete_prior(self, prior, lattice):
        m = parse_est(f"[PARAMETERS]\n1 k {prior} output\n")
        k = sample_rows(m, np.random.default_rng(31), 20_000)[:, 0]
        lattice = np.array(lattice)
        counts = np.array([(k == v).sum() for v in lattice])
        assert counts.sum() == len(k)
        weights = np.exp([log_prior_density(m, {"k": v}) for v in lattice])
        expected = weights / weights.sum() * len(k)
        assert sps.chisquare(counts, expected).pvalue > 0.001

    @pytest.mark.parametrize("prior", ["unif 0 1e9", "logunif 1 1e8",
                                       "norm -1e9 1e9 5 1e6"])
    def test_wide_ranges_draw_integers_in_bounds(self, prior):
        m = parse_est(f"[PARAMETERS]\n1 k {prior} output\n")
        k = sample_rows(m, np.random.default_rng(32), 50_000)[:, 0]
        lo, hi = m.priors[0].bounds
        np.testing.assert_array_equal(k, np.round(k))
        assert k.min() >= lo and k.max() <= hi
        assert len(np.unique(k)) > 1000
        if prior.startswith("logunif"):
            # past the exact table as well, the masses stay 1/k: the
            # smallest integers have their exact share, ...
            small = np.arange(1, 9)
            counts = np.array([(k == v).sum() for v in small])
            expected = counts.sum() / small / (1 / small).sum()
            assert sps.chisquare(counts, expected).pvalue > 0.001
            # ... and so does the part past the table
            share = (k > priors.LATTICE_TABLE_MAX).mean()
            h = np.log(1e8) + np.euler_gamma
            want = 1 - (np.log(priors.LATTICE_TABLE_MAX) + np.euler_gamma) / h
            assert abs(share - want) < 4 * np.sqrt(want * (1 - want) / len(k))

    def test_narrow_normal_window_far_from_the_mean(self):
        # every mass underflows on its own; the table is relative
        m = parse_est("[PARAMETERS]\n1 k norm 100 103 0 1 output\n")
        k = sample_rows(m, np.random.default_rng(33), 5000)[:, 0]
        assert k.min() == 100 and k.max() <= 101
        assert (k == 100).mean() > 0.99


class TestSeedRule:
    """The k-th draw depends on the stream alone, not on how many draws
    are asked for at once."""

    @pytest.mark.parametrize("text", [RULES_EST, POPGEN_EST,
                                      "[PARAMETERS]\n1 A norm -5 5 0 2 output\n"
                                      "0 B logunif 1 10 output\n"
                                      "1 C unif 0 3 hide\n[RULES]\nC < B\n"],
                             ids=["rules", "popgen", "integers"])
    def test_blocks_and_single_draws_agree(self, text):
        m = parse_est(text)
        whole_rng = np.random.default_rng(40)
        whole = sample_rows(m, whole_rng, 300)
        parts_rng = np.random.default_rng(40)
        parts = np.concatenate([sample_rows(m, parts_rng, n)
                                for n in (1, 1, 37, 5, 256)])
        assert parts.shape[0] == 300
        assert whole.tobytes() == parts.tobytes()
        assert whole_rng.random() == parts_rng.random()
        one_rng = np.random.default_rng(40)
        draws = [sample(m, one_rng) for _ in range(300)]
        assert np.array([[d[n] for n in m.all_names] for d in draws]).tobytes() \
            == complete_rows(m, whole).tobytes()

    def test_each_value_is_one_uniform_of_its_row(self):
        m = parse_est(RULES_EST.split("[RULES]")[0])
        u = np.random.default_rng(41).random((50, 2))
        rows = sample_rows(m, np.random.default_rng(41), 50)
        np.testing.assert_array_equal(rows[:, 0], -1 + 2 * u[:, 0])
        b = sps.truncnorm((-10 - 1) / 2, (10 - 1) / 2, loc=1, scale=2)
        np.testing.assert_allclose(rows[:, 1], b.ppf(u[:, 1]), rtol=1e-9)

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_rule_rejections_are_counted_across_blocks(self, monkeypatch, n):
        # a run of MAX_RULE_TRIES rejections aborts whether the rows are
        # drawn one at a time or all at once
        monkeypatch.setattr(priors, "MAX_RULE_TRIES", 4)
        m = parse_est("[PARAMETERS]\n0 A unif 0 1 output\n[RULES]\nA > 0.6\n")
        for seed in range(30):
            outcomes = []
            for sizes in ([n], [1] * n):
                rng = np.random.default_rng(seed)
                try:
                    rows = np.concatenate([sample_rows(m, rng, k)
                                           for k in sizes])
                    outcomes.append(rows.tobytes())
                except EstParseError:
                    outcomes.append("degenerate")
            assert outcomes[0] == outcomes[1]
