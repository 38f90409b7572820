"""The fork-map: items in order at any number of CPUs, their log records
emitted in item order, and a child's failures raised here."""

import logging
import os
import re
import select
import signal
import threading

import numpy as np
import pytest

from abckit import forkmap, validation
from abckit.errors import NumericalError
from abckit.tableio import SimulationTable
from abckit.validation import (GlmSettings, cross_validate,
                               model_choice_validate)

from conftest import two_tables, uniform_prior_estimator


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def workers(request, monkeypatch):
    """The number of CPUs the fork-map sees; after the test, no child of
    this process is left."""
    monkeypatch.setattr(forkmap, "cpu_count", lambda: request.param)
    yield request.param
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Handshake:
    """Makes a child run items: the first item this process runs waits
    until a child has started one (30 s at most).  ``in_child()`` says
    where the item runs."""

    def __init__(self):
        self.parent = os.getpid()
        self.read_fd, self.write_fd = os.pipe()
        self.waited = False

    def in_child(self) -> bool:
        if os.getpid() != self.parent:
            os.write(self.write_fd, b"x")
            return True
        if not self.waited:
            self.waited = True
            ready, _, _ = select.select([self.read_fd], [], [], 30)
            assert ready, "no child started an item"
        return False


class TestForkMap:
    def make_table(self, n=300):
        # s1 is constant, so every retention warns that it is dropped
        rng = np.random.default_rng(100)
        p = rng.uniform(size=n)
        values = np.column_stack([p, p + 0.05 * rng.normal(size=n),
                                  np.zeros(n)])
        return SimulationTable(("p0", "s0", "s1"), values, (0,), (1, 2))

    def run_cross_validate(self, caplog, handshake=None):
        def estimator(table, pseudo, exclude):
            if handshake is not None:
                handshake.in_child()
            logging.getLogger("abckit.test").info("replicate of row %d",
                                                  exclude)
            if exclude % 4 == 0:
                raise NumericalError(f"planted failure at row {exclude}")
            return validation._glm_estimator(table, pseudo, exclude,
                                             GlmSettings(50, n_points=60))

        caplog.clear()
        with caplog.at_level(logging.INFO):
            rows = cross_validate(self.make_table(), "random", 15, rng=101,
                                  estimator=estimator)
        records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        return rows, records

    def test_items_come_back_in_order(self, workers):
        handshake = Handshake() if workers == 2 else None
        out = forkmap.fork_map(
            lambda i: (i, handshake is not None and handshake.in_child()),
            range(20))
        assert [i for i, _ in out] == list(range(20))
        assert any(child for _, child in out) == (workers == 2)
        # beyond _MAX_BLOCKS items they are handed out in blocks
        assert forkmap.fork_map(abs, range(-2500, 0)) == list(
            range(2500, 0, -1))

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_child_records_that_do_not_pickle_arrive_formatted(
            self, workers, caplog):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("cannot pickle")

            def __repr__(self):
                return "<unpicklable>"

        handshake = Handshake()

        def item(i):
            if handshake.in_child():
                try:
                    raise KeyError(i)
                except KeyError:
                    logging.getLogger("abckit.test").warning(
                        "item %d with %s", i, Unpicklable(), exc_info=True)
            return i

        with caplog.at_level(logging.WARNING):
            assert forkmap.fork_map(item, range(4)) == list(range(4))
        assert caplog.records
        for record in caplog.records:
            match = re.fullmatch(r"item (\d) with <unpicklable>",
                                 record.getMessage())
            assert match
            assert record.exc_text.endswith(f"KeyError: {match[1]}")

    def test_cross_validate_rows_and_log_do_not_depend_on_cpus(
            self, workers, monkeypatch, caplog):
        rows, records = self.run_cross_validate(
            caplog, Handshake() if workers == 2 else None)
        monkeypatch.setattr(forkmap, "cpu_count", lambda: 1)
        serial_rows, serial_records = self.run_cross_validate(caplog)
        assert rows == serial_rows
        assert records == serial_records
        failed = [r for r in rows if r.error is not None]
        assert 0 < len(failed) < len(rows)
        # each replicate logs its row, then its failure or the constant
        # statistic its retention drops
        assert [level for _, level, _ in records] == [
            logging.INFO, logging.WARNING] * len(rows)
        assert [m for _, _, m in records if m.startswith("validation")] == [
            f"validation replicate failed: {r.error}" for r in failed]

    def test_model_choice_probabilities_do_not_depend_on_cpus(
            self, workers, monkeypatch):
        tables = two_tables(np.random.default_rng(102), separation=0.5)
        settings = GlmSettings(num_retained=60)
        if workers == 2:
            handshake, choose = Handshake(), validation.glm_model_choice

            def glm_model_choice(*args):
                handshake.in_child()
                return choose(*args)

            monkeypatch.setattr(validation, "glm_model_choice",
                                glm_model_choice)
        cm, raw = model_choice_validate(tables, 9, settings, rng=103)
        monkeypatch.undo()     # the serial run below calls the original
        monkeypatch.setattr(forkmap, "cpu_count", lambda: 1)
        cm_want, raw_want = model_choice_validate(tables, 9, settings,
                                                  rng=103)
        np.testing.assert_array_equal(cm.counts, cm_want.counts)
        assert len(raw) == 18
        for (m, probs), (m_want, probs_want) in zip(raw, raw_want, strict=True):
            assert m == m_want
            assert probs.tobytes() == probs_want.tobytes()

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_other_exception_in_a_child_reaches_the_caller(self, workers):
        handshake = Handshake()

        def estimator(t, pseudo, exclude):
            if handshake.in_child():
                raise LookupError(f"row {exclude} in a child")
            return uniform_prior_estimator(t, pseudo, exclude)

        with pytest.raises(LookupError) as info:
            cross_validate(self.make_table(), "random", 6, rng=104,
                           estimator=estimator)
        assert type(info.value) is LookupError
        assert re.fullmatch(r"row \d+ in a child", str(info.value))
        assert "in a child" in str(info.value.__cause__)

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_killed_child_is_an_error(self, workers):
        handshake = Handshake()

        def item(i):
            if handshake.in_child():
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with pytest.raises(ChildProcessError, match="killed by signal 9"):
            forkmap.fork_map(item, range(4))

    def test_first_exception_in_item_order_is_raised(self, workers):
        def item(i):
            if i == 0:
                raise NumericalError("first item")
            if i == 3:
                raise ValueError("fourth item")
            return i

        with pytest.raises(NumericalError, match="^first item$"):
            forkmap.fork_map(item, range(6))

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_items_run_here_while_another_thread_is_alive(self, workers):
        # a child would inherit the locks the other thread holds
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            pids = forkmap.fork_map(lambda i: os.getpid(), range(8))
        finally:
            stop.set()
            thread.join()
        assert pids == [os.getpid()] * 8
