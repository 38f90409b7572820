"""Independent items on every CPU.

:func:`fork_map` runs independent items on every CPU this process may use
(``os.sched_getaffinity``; ``taskset`` or a cpuset limits them): the
process itself and one forked child per other CPU take the items in
order, each the next one whenever it is free, so a CPU that a busy machine
slows takes fewer.  The results and log records of every item are
gathered and emitted in item order, so if the random draws are made first,
the outputs and the log do not depend on the number of CPUs or on which
process ran which item.  What an item changes in a child's memory besides
its result and its log records (a counter, a cache) is lost with the child.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import sys
import threading
import traceback


def cpu_count() -> int:
    """The number of CPUs this process may run on; 1 on a platform
    without ``fork`` or ``sched_getaffinity``."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a child, as its cause."""

    def __str__(self):
        return self.args[0]


# blocks of items handed out through the claim pipe, each by a 4-byte
# index: at most one page, which a pipe holds without blocking the writer
_MAX_BLOCKS = 1024


def _portable(record: logging.LogRecord) -> logging.LogRecord:
    # a record crosses the pipe as it is when it pickles, and with its
    # message and traceback formatted when it does not
    try:
        pickle.dumps(record)
    except Exception:
        if record.exc_info:
            record.exc_text = logging.Formatter().formatException(
                record.exc_info)
        record.msg, record.args = record.getMessage(), None
        record.exc_info = None
    return record


def _run_claimed(fn, items, size: int, claims: int) -> list:
    """Run ``fn`` over the blocks of ``size`` items whose indices this
    process reads from the pipe ``claims``, until the pipe is empty.
    Returns one ``(index, records, value, error)`` per item run: the log
    records it made (kept, not emitted), its result, and the exception it
    raised.  An exception empties the pipe, since no later item is
    needed."""
    out, records = [], []
    handle = logging.Logger.handle
    logging.Logger.handle = lambda logger, record: records.append(record)
    try:
        while claim := os.read(claims, 4):
            start = int.from_bytes(claim, "little") * size
            for i in range(start, min(start + size, len(items))):
                value = error = None
                try:
                    value = fn(items[i])
                except Exception as exc:
                    error = exc
                out.append((i, records[:], value, error))
                records.clear()
                if error is not None:
                    while os.read(claims, 4096):
                        pass
                    return out
    finally:
        logging.Logger.handle = handle
    return out


def _serve(fn, items, size: int, claims: int, fd: int) -> None:
    """:func:`_run_claimed` in a forked child: writes its list, pickled,
    to ``fd``, each entry followed by the formatted traceback of its
    exception.  Never returns."""
    code = 1
    try:
        out = []
        for i, records, value, error in _run_claimed(fn, items, size, claims):
            text = None
            if error is not None:
                text = "".join(traceback.format_exception(error))
                try:
                    pickle.loads(pickle.dumps(error))
                except Exception:
                    error = RuntimeError(f"{type(error).__name__}: {error}")
            out.append((i, [_portable(r) for r in records], value, error,
                        text))
        data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]`` on every CPU: this process and a
    forked child per other CPU take the items in order, a block at a time
    (one item while there are at most :data:`_MAX_BLOCKS`), whenever they
    are free, so a CPU that runs slower takes fewer.  Here the results are
    gathered, and the log records emitted, in item order; the first
    exception in item order is raised here with its type and message (a
    child's traceback is its cause).  A child that ends without its
    results is a ``ChildProcessError``.  With one CPU (:func:`cpu_count`)
    or one item, or while another thread runs (a child would inherit the
    locks it holds), the items run here one by one."""
    items = list(items)
    n = min(cpu_count(), len(items))
    if n < 2 or threading.active_count() > 1:
        return [fn(item) for item in items]
    size = -(-len(items) // _MAX_BLOCKS)
    claims, queue = os.pipe()
    os.write(queue, b"".join(k.to_bytes(4, "little")
                             for k in range(-(-len(items) // size))))
    os.close(queue)
    sys.stdout.flush()
    sys.stderr.flush()
    children = []                   # (pid, read end of its result pipe)
    statuses = []
    try:
        for _ in range(n - 1):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _serve(fn, items, size, claims, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        done = {i: (records, value, error, None) for i, records, value, error
                in _run_claimed(fn, items, size, claims)}
        payloads = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims)
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for payload, status in zip(payloads, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code or not payload:
            how = (f"killed by signal {-code}" if code < 0
                   else f"exit status {code}")
            raise ChildProcessError(
                f"a fork-map worker ended without its results ({how})")
        for i, *entry in pickle.loads(payload):
            done[i] = entry
    results = []
    for i in range(len(items)):
        records, value, error, text = done[i]
        for record in records:
            logging.getLogger(record.name).handle(record)
        if text is not None:
            raise error from _ChildTraceback(text)
        if error is not None:
            raise error
        results.append(value)
    return results
