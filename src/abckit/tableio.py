r"""Reading and writing of the text tables exchanged by the pipeline.

Three kinds of files are handled:

* simulation tables: a whitespace-separated header naming every column,
  followed by one row of finite reals per simulation.  Parameter columns
  are selected by a 1-based range expression such as ``"1-2"``.
* observed-statistics files: a header line plus one or more value lines,
  one observed data set per value line.
* tagged output files: every result file is written as
  ``<prefix>_model<m>_<tag>_Obs<k>.txt`` with parts omitted where they do
  not apply (validation files that span observations drop the ``Obs``
  suffix, model-spanning files drop the ``model`` part).

Reading.  A line ends at ``\n``, ``\r\n`` or ``\r``, as :func:`open`
reads lines; every other whitespace character (``\f``, ``\v``,
``\x1c``-``\x1e``, ``\x85``, ``\u2028``, ``\u2029`` among them) only
separates fields, as it does for ``str.split`` and ``np.loadtxt``.  The
header is the first non-blank line.  Every later non-blank line is one row;
any run of whitespace separates fields, every field must parse as a Python
``float`` and each row must have one field per header name.  ``#`` is not a
comment.  A simulation-table row holding a non-finite value is dropped,
counted in ``dropped_rows`` and logged once; ``max_rows`` counts kept rows
and only rows dropped before the cut are counted.

Both readers parse from the open file, the header by ``readline``.  A
simulation table's body is parsed in bulk by ``np.loadtxt``, which rounds
as ``float`` does; on any error, or a row width other than the header's,
the line-by-line parser reads the body again from its start, decides the
result and names the offending line.  The bulk parser first counts the
body's line ends in the file's bytes, stopping once it has ``max_rows``,
and allocates the column-major result at that size.  It then parses
``np.loadtxt`` blocks of :data:`_READ_BLOCK_ROWS` rows, each call going on
where the last one stopped, and copies each block's finite rows into the
result; it never asks for more rows than remain to be kept.  So a read
holds the table once plus a block, and its time and memory grow with the
rows kept, not with the file or with ``max_rows``.  Only where blank lines
or dropped rows leave the file short of its line count is the result
copied once more, to its row count.  An observed-statistics file, a few
lines, is parsed by the line-by-line parser alone.

A table read from a file is column-major: each column is one contiguous
run of memory, so the steps that gather a statistic's column copy it in
one piece.  ``SimulationTable`` keeps a column-major array as it is given
(any other layout is made row-major).  Its ``params``, ``stats`` and
``stat_matrix`` are column blocks copied by numpy's fancy indexing, which
lays them out column-major from either layout, so their bits and layout do
not depend on the table's.

Writing.  Values are written with 6 significant digits, using scientific
notation outside ``[1e-4, 1e6)``, separated by single tabs: the bytes are
those of :func:`format_value` on every cell.  Rows are formatted in
bounded blocks, a block of numbers with one ``%`` format.
"""

from __future__ import annotations

import enum
import functools
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import TableFormatError

log = logging.getLogger(__name__)

__all__ = [
    "SimulationTable",
    "ObservedStats",
    "OutputTag",
    "read_table",
    "read_observed",
    "in_table_order",
    "write_observed",
    "write_tagged",
    "write_table",
    "parse_param_spec",
    "format_value",
]


def format_value(x) -> str:
    """Format a number with 6 significant digits.

    Scientific notation is used when ``|x| < 1e-4`` or ``|x| >= 1e6``
    (zero is printed as ``0``).
    """
    if isinstance(x, str):
        return x
    x = float(x)
    if x == 0:
        return "0"
    if not np.isfinite(x):
        return repr(x)
    ax = abs(x)
    if ax < 1e-4 or ax >= 1e6:
        return f"{x:.5e}"
    s = f"{x:.6g}"
    return s


def parse_param_spec(spec: str) -> tuple[int, ...]:
    """Parse a 1-based column-range expression like ``"1-2"`` or ``"1,3-4"``.

    Returns 0-based column indices.
    """
    spec = spec.strip()
    if not spec:
        raise TableFormatError("empty parameter column specification")
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        m = re.fullmatch(r"(\d+)\s*-\s*(\d+)", part)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo < 1 or hi < lo:
                raise TableFormatError(f"bad column range '{part}'")
            out.extend(range(lo - 1, hi))
            continue
        if not part.isdigit() or int(part) < 1:
            raise TableFormatError(f"bad column index '{part}'")
        out.append(int(part) - 1)
    seen = set()
    uniq = [i for i in out if not (i in seen or seen.add(i))]
    return tuple(uniq)


@dataclass
class SimulationTable:
    """A table of simulations: one row per run, named columns.

    ``param_idx`` and ``stat_idx`` partition the columns used by the
    pipeline; any remaining columns are carried along but ignored.
    The value matrix is locked read-only after construction, so tables can
    be shared freely.  A column-major (Fortran-ordered) matrix is kept as
    it is given; any other is made row-major.  ``token`` is an object made
    for each table built: a key to what is computed from the table, which
    unlike ``id(table)`` is never reused while the key is held.
    """

    names: tuple[str, ...]
    values: np.ndarray
    param_idx: tuple[int, ...]
    stat_idx: tuple[int, ...]
    dropped_rows: int = 0
    token: object = field(default_factory=object, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        self.names = tuple(self.names)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            vals = vals.reshape(-1, len(self.names))
        if vals.shape[1] != len(self.names):
            raise TableFormatError(
                f"{len(self.names)} column names but rows of arity {vals.shape[1]}"
            )
        if len(set(self.names)) != len(self.names):
            dup = sorted({n for n in self.names if self.names.count(n) > 1})
            raise TableFormatError(f"duplicate column names: {', '.join(dup)}")
        if vals.size and not np.isfinite(vals).all():
            raise TableFormatError("table contains non-finite values")
        self.param_idx = tuple(self.param_idx)
        self.stat_idx = tuple(self.stat_idx)
        if set(self.param_idx) & set(self.stat_idx):
            raise TableFormatError("a column cannot be both parameter and statistic")
        for i in self.param_idx + self.stat_idx:
            if not 0 <= i < len(self.names):
                raise TableFormatError(f"column index {i + 1} out of range")
        if not vals.flags.f_contiguous:
            vals = np.ascontiguousarray(vals)
        vals.flags.writeable = False
        self.values = vals

    # -- basic accessors -------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(self.names[i] for i in self.param_idx)

    @property
    def stat_names(self) -> tuple[str, ...]:
        return tuple(self.names[i] for i in self.stat_idx)

    @property
    def params(self) -> np.ndarray:
        return self.values[:, list(self.param_idx)]

    @property
    def stats(self) -> np.ndarray:
        return self.values[:, list(self.stat_idx)]

    def stat_columns(self, names: Sequence[str]) -> list[int]:
        """Column indices of the statistics ``names``, in their order
        (exact-name match)."""
        lookup = {self.names[i]: i for i in self.stat_idx}
        missing = [n for n in names if n not in lookup]
        if missing:
            raise TableFormatError(f"statistics not in table: {', '.join(missing)}")
        return [lookup[n] for n in names]

    def stat_matrix(self, names: Sequence[str]) -> np.ndarray:
        """Statistic columns in the order of ``names`` (exact-name match)."""
        return self.values[:, self.stat_columns(names)]

    # -- derived tables --------------------------------------------------

    def with_stats(self, names: Sequence[str]) -> "SimulationTable":
        """Restrict the statistic set to ``names`` (params kept as-is)."""
        names = tuple(names)
        cols = list(self.param_idx) + self.stat_columns(names)
        p = len(self.param_idx)
        return SimulationTable(self.param_names + names, self.values[:, cols],
                               tuple(range(p)), tuple(range(p, p + len(names))))


@dataclass
class ObservedStats:
    """Named vector of observed summary statistics."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self.names = tuple(self.names)
        self.values = np.asarray(self.values, dtype=float).ravel()
        if len(self.names) != self.values.size:
            raise TableFormatError(
                f"{len(self.names)} names but {self.values.size} values"
            )
        if len(set(self.names)) != len(self.names):
            raise TableFormatError("duplicate statistic names in observation")
        self.values.flags.writeable = False

    def vector(self, names: Sequence[str]) -> np.ndarray:
        lookup = dict(zip(self.names, self.values))
        missing = [n for n in names if n not in lookup]
        if missing:
            raise TableFormatError(f"observed statistics missing: {', '.join(missing)}")
        return np.array([lookup[n] for n in names])


def in_table_order(names: Sequence[str], table_names: Sequence[str]
                   ) -> tuple[str, ...]:
    """The observed statistics ``names`` in the simulations' column order,
    ``table_names``; those the simulations lack come last, in their own
    order, for the caller to name.  Every step of a run reads its
    statistics in this one order, whatever the observation file's."""
    rank = {n: i for i, n in enumerate(table_names)}
    return tuple(sorted(names, key=lambda n: rank.get(n, len(rank))))


class OutputTag(enum.Enum):
    """Tags naming each kind of result file; the tag string appears
    verbatim in the emitted filename."""

    BEST_SIMS = "BestSimsParamStats"
    MARGINAL_DENSITIES = "MarginalPosteriorDensities"
    MARGINAL_CHARACTERISTICS = "MarginalPosteriorCharacteristics"
    JOINT_POSTERIOR = "jointPosterior"
    MODEL_FIT = "modelFit"
    RANDOM_VALIDATION = "RandomValidation"
    RETAINED_VALIDATION = "RetainedValidation"
    MODEL_CHOICE_VALIDATION = "modelChoiceValidation"
    CONFUSION_MATRIX = "confusionMatrix"
    GREEDY_SEARCH = "searchStatsgreedySearch"
    REJECTION_DENSITIES = "rejectionDensities"


# tags whose files span observations (no Obs suffix)
_NO_OBS_TAGS = {
    OutputTag.RANDOM_VALIDATION,
    OutputTag.MODEL_CHOICE_VALIDATION,
    OutputTag.CONFUSION_MATRIX,
    OutputTag.GREEDY_SEARCH,
}
# tags whose files span models (no model part)
_NO_MODEL_TAGS = {
    OutputTag.MODEL_FIT,
    OutputTag.MODEL_CHOICE_VALIDATION,
    OutputTag.CONFUSION_MATRIX,
    OutputTag.GREEDY_SEARCH,
}


def tagged_filename(prefix: str, tag: OutputTag, model_index=None, obs_index=None,
                    joint_params: Sequence[int] | None = None) -> str:
    parts = [prefix]
    if tag not in _NO_MODEL_TAGS and model_index is not None:
        parts.append(f"model{model_index}")
    parts.append(tag.value)
    if joint_params:
        parts.extend(str(i) for i in joint_params)
    if tag not in _NO_OBS_TAGS and obs_index is not None:
        parts.append(f"Obs{obs_index}")
    return "_".join(parts) + ".txt"


_WRITE_BLOCK_ROWS = 4096
# rows formatted by one % operation within a block
_FORMAT_ROWS = 256


def _format_row(row) -> str:
    return "\t".join(format_value(v) for v in row) + "\n"


@functools.lru_cache(maxsize=1024)
def _row_format(scientific: bytes) -> str:
    """The ``%`` format of a row whose cells print in scientific notation
    where ``scientific`` holds a nonzero byte."""
    return "\t".join("%.5e" if sci else "%.6g" for sci in scientific) + "\n"


def _format_block(rows) -> str:
    """Format a block of rows byte for byte as :func:`format_value` does.

    Every cell of a block of numbers is classified once by the window of
    :func:`format_value`: ``%.5e`` outside it (``|x| < 1e-4`` but not zero,
    or ``|x| >= 1e6``), ``%.6g`` elsewhere, which also prints zero, NaN and
    the infinities as :func:`format_value` does.  Each row's pattern picks
    a cached format string, and every :data:`_FORMAT_ROWS` rows are
    formatted with one ``%``.  A block holding string labels is formatted
    cell by cell.
    """
    try:
        block = np.asarray(rows)
    except ValueError:                       # rows of unequal length
        block = None
    if (block is None or block.ndim != 2 or block.dtype.kind not in "biuf"
            or block.shape[1] == 0):
        return "".join(_format_row(row) for row in rows)
    # float64 before the window test (a float32 1e-4 is below 1e-4);
    # adding 0.0 turns -0.0 into 0.0, which format_value prints as "0"
    block = np.asarray(block, dtype=float) + 0.0
    mag = np.abs(block)
    sci = ((mag < 1e-4) & (block != 0)) | (mag >= 1e6)
    del mag
    # one opaque scalar per row, so that rows sort as fast as numbers; the
    # view needs each row's flags contiguous, which a column-major or
    # column-strided block does not give
    sci = np.ascontiguousarray(sci)
    keys = sci.view(np.dtype((np.void, sci.shape[1]))).ravel()
    patterns, inverse = np.unique(keys, return_inverse=True)
    formats = [_row_format(pattern.tobytes()) for pattern in patterns]
    lines = [formats[i] for i in inverse.ravel().tolist()]
    # a few hundred rows per %, so the cells of the whole block never
    # exist as Python floats at once
    return "".join(
        "".join(lines[i:i + _FORMAT_ROWS])
        % tuple(block[i:i + _FORMAT_ROWS].ravel().tolist())
        for i in range(0, len(block), _FORMAT_ROWS))


def _write_rows(path: Path, header: Sequence[str], rows) -> None:
    """Write a header and rows (a 2-D array or a sequence of rows) in
    blocks of :data:`_WRITE_BLOCK_ROWS`, so memory does not grow with the
    table."""
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for start in range(0, len(rows), _WRITE_BLOCK_ROWS):
            fh.write(_format_block(rows[start:start + _WRITE_BLOCK_ROWS]))


def write_tagged(prefix: str, tag: OutputTag, payload, model_index=None,
                 obs_index=None, joint_params=None, directory=".") -> Path:
    """Write a result table to its conventional filename and return the path.

    ``payload`` is a ``(header, rows)`` pair, where rows may mix strings
    (labels) and numbers.
    """
    path = Path(directory) / tagged_filename(prefix, tag, model_index,
                                             obs_index, joint_params)
    header, rows = payload
    if len(rows) == 0:
        raise TableFormatError("refusing to write an empty table", path=path)
    _write_rows(path, header, rows)
    return path


def write_table(path, table: SimulationTable) -> Path:
    """Write a simulation table (header + rows) to ``path``."""
    path = Path(path)
    _write_rows(path, table.names, table.values)
    return path


def _header(fh) -> tuple[int, list[str]]:
    """Index and fields of the first non-blank line of ``fh``, read with
    ``readline`` so that ``fh.tell()`` stays usable (``-1, []`` if none)."""
    for i, line in enumerate(iter(fh.readline, "")):
        fields = line.split()
        if fields:
            return i, fields
    return -1, []


def _parse_lines(path: Path, lines, first: int, ncol: int,
                 max_rows=None) -> np.ndarray:
    """Parse ``lines``, whose first is line ``first`` (0-based) of the
    file, one line at a time; the reference semantics.

    Blank lines are skipped, any run of whitespace separates fields, every
    field must parse with ``float``.  Rows are returned up to and including
    the one that brings the count of finite rows to ``max_rows``; lines
    after it are not read.  Errors name the offending line.
    """
    rows = []
    kept = 0
    for i, line in enumerate(lines, first):
        fields = line.split()
        if not fields:
            continue
        if max_rows is not None and kept >= max_rows:
            break
        if len(fields) != ncol:
            raise TableFormatError(
                f"row has {len(fields)} fields, expected {ncol}",
                path=path, line=i + 1)
        try:
            row = np.array([float(v) for v in fields])
        except ValueError as exc:
            raise TableFormatError(f"non-numeric value ({exc})",
                                   path=path, line=i + 1) from None
        rows.append(row)
        kept += bool(np.isfinite(row).all())
    return np.array(rows).reshape(len(rows), ncol)


# rows of one np.loadtxt call of the bulk parser (160 KiB at 10 columns,
# in cache from the parse to the copy; the read's time is the same from
# 1024 to 16384 rows)
_READ_BLOCK_ROWS = 2048
# bytes of one read of the line count
_COUNT_BYTES = 1 << 16


def _count_lines(path: Path, limit=None) -> int:
    """Lines of the file at ``path`` (a last line without a line end
    counted), as :func:`open` reads lines: a line ends at ``\n``, ``\r\n``
    or ``\r``.  Counted in the file's bytes, stopping at ``limit``; the
    ``\n`` by numpy, a few times faster than ``bytes.count``."""
    n, prev = 0, b"\n"
    with open(path, "rb") as raw:
        while limit is None or n < limit:
            chunk = raw.read(_COUNT_BYTES)
            if not chunk:
                return n + (prev not in b"\r\n")
            n += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10))
            n -= prev == b"\r" and chunk[:1] == b"\n"
            if b"\r" in chunk:
                n += chunk.count(b"\r") - chunk.count(b"\r\n")
            prev = chunk[-1:]
    return limit


def _parse_bulk(path: Path, fh, first: int, ncol: int, max_rows):
    """:func:`_parse_lines` of the rest of ``fh``, whose first line is line
    ``first`` of the file, through ``np.loadtxt``, which rounds as ``float``
    does.  Returns the finite rows as a column-major array and the count of
    non-finite rows dropped among them, or ``None`` where the line parser
    must decide: any error or warning, a row width other than ``ncol``,
    ``max_rows < 1``.

    The result is allocated once, at the count of the body's lines (at
    most ``max_rows``), and filled with blocks of at most
    :data:`_READ_BLOCK_ROWS` rows, each asking for no more rows than remain
    to be kept.  ``np.loadtxt`` allocates room for the rows it is asked for
    before it reads one, so no call asks for more than a block.
    """
    # imported here so that importing tableio costs what it did
    import warnings

    if max_rows is not None and max_rows < 1:
        return None
    rows = _count_lines(path, None if max_rows is None
                        else first + max_rows) - first
    values = np.empty((rows, ncol), order="F")
    kept = dropped = 0
    while kept < len(values):
        want = min(_READ_BLOCK_ROWS, len(values) - kept)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # blank lines: those np.loadtxt skips, and those that end the body
            warnings.filterwarnings("ignore", ".*contained no data",
                                    UserWarning)
            try:
                block = np.loadtxt(fh, dtype=float, comments=None, ndmin=2,
                                   max_rows=want)
            except (ValueError, Warning):
                return None
        if len(block) == 0:           # blank lines only: the body has ended
            break
        if block.shape[1] != ncol:
            return None
        parsed = len(block)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            dropped += parsed - int(np.count_nonzero(finite))
            block = block[finite]
        values[kept:kept + len(block)] = block
        kept += len(block)
        if parsed < want:                 # the body has ended
            break
    if kept < len(values):
        values = np.asfortranarray(values[:kept])
    return values, dropped


def read_table(path, param_spec: str | Sequence[int] = (), max_rows=None) -> SimulationTable:
    """Read a simulation table.

    ``param_spec`` is a 1-based column-range expression (or an iterable of
    0-based indices); all remaining columns are treated as statistics until
    matched against an observation.  Rows containing non-finite values are
    rejected with a counted warning.  ``max_rows`` caps the number of rows
    kept; rows after the cut are not read.
    """
    path = Path(path)
    with open(path) as fh:
        start, header = _header(fh)
        if not header:
            raise TableFormatError("empty file", path=path)
        ncol = len(header)
        if isinstance(param_spec, str):
            pidx = parse_param_spec(param_spec) if param_spec else ()
        else:
            pidx = tuple(param_spec)
        for i in pidx:
            if i >= ncol:
                raise TableFormatError(
                    f"parameter column {i + 1} beyond the {ncol} available",
                    path=path)
        body = fh.tell()
        parsed = _parse_bulk(path, fh, start + 1, ncol, max_rows)
        if parsed is None:
            fh.seek(body)
            values = _parse_lines(path, fh, start + 1, ncol, max_rows)
            finite = np.isfinite(values).all(axis=1)
            dropped = len(values) - int(np.count_nonzero(finite))
            values = np.asfortranarray(values[finite])
        else:
            values, dropped = parsed
    if dropped:
        log.warning("%s: dropped %d row(s) with non-finite statistics", path, dropped)
    sidx = tuple(i for i in range(ncol) if i not in pidx)
    return SimulationTable(tuple(header), values, pidx, sidx, dropped_rows=dropped)


def read_observed(path) -> list[ObservedStats]:
    """Read an observed-statistics file: header plus one or more value lines.

    Each value line becomes one observed data set (output files are then
    suffixed ``Obs0``, ``Obs1``, ...).
    """
    path = Path(path)
    with open(path) as fh:
        start, names = _header(fh)
        values = _parse_lines(path, fh, start + 1, len(names)) if names else []
    if len(values) == 0:
        raise TableFormatError("need a header line and at least one value line",
                               path=path)
    return [ObservedStats(tuple(names), row) for row in values]


def write_observed(path, obs: ObservedStats) -> Path:
    path = Path(path)
    _write_rows(path, obs.names, [obs.values])
    return path
