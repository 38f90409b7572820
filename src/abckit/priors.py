"""Prior definitions: the est-file language and sampling from it.

An est file has up to three sections::

    [PARAMETERS]
    0 PARAM_A unif -1 1 output
    0 PARAM_B norm -10 10 1 2 output
    0 RATE fixed 2.5e-8 hide
    [RULES]
    PARAM_A > PARAM_B
    [COMPLEX PARAMETERS]
    0 SCALED = exp(PARAM_B) / PARAM_A output

Only ``[PARAMETERS]`` is mandatory.  The leading 0/1 flags an integer
parameter, the trailing ``output``/``hide`` controls whether the value is
written to simulation tables (hidden values remain available as simulator
arguments).  Supported priors: ``unif``, ``logunif``, ``norm`` (truncated
to [min, max]) and ``fixed``.  An integer prior puts its density on the
integers within [min, max], ends included (the distribution the MCMC
chain targets through :func:`log_prior_density`); an integer complex
parameter or fixed value is truncated toward zero.  Rules constrain raw
parameters and are enforced by rejecting the whole draw.
Complex-parameter expressions use ``+ - * / ^`` and the functions ``exp,
log, log10, pow10, sqrt, abs, min, max``.  ``^`` binds tightest and is
right-associative (``2^3^2`` is 512); a sign binds looser than ``^`` and
tighter than ``* /`` (``-X^2`` is ``-(X^2)``, ``2^-1`` is 0.5).  Every
value is a finite real number: a step that fails (division by zero, an
overflow, the log of a negative value, a fractional power of a negative
value) or a value that is inf or nan raises :class:`EvalError`, which the
command line reports as a numerical failure (exit 3).  Lines starting with
``//`` or ``#`` are comments.  A draw is a plain ``dict``
binding every declared name, hidden ones included, to its value.

Seed rule of :func:`sample_rows` (and :func:`sample`, one row of it).
Every raw prior value is the inverse CDF of one uniform.  A candidate draw
is one row of uniforms, one per prior (fixed ones included), read
row-major from the generator it is given; a row that breaks a rule is
dropped and the accepted rows keep their order.  No more rows are read than
are still needed, so the k-th accepted draw depends on the stream alone:
n calls for one draw and one call for n draws give the same values and
leave the generator in the same state.  The samplers of
:mod:`abckit.orchestrate` give this generator a stream of its own.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import EstParseError, EvalError

log = logging.getLogger(__name__)

__all__ = [
    "PriorSpec", "Rule", "ComplexParam", "EstModel", "parse_est",
    "parse_expression", "eval_expr", "sample", "sample_rows",
    "complete_draw", "complete_rows",
]

MAX_RULE_TRIES = 10_000

# ---------------------------------------------------------------------------
# expression parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\*|/|\+|-|\^|\(|\)|,))"
)

# binding power, right-associative, and the function of each operator
_BINARY = {
    "+": (1, False, operator.add),
    "-": (1, False, operator.sub),
    "*": (2, False, operator.mul),
    "/": (2, False, operator.truediv),
    "^": (4, True, math.pow),
}
_SIGN = 3           # binding power of a sign: looser than ^, tighter than * /

_FUNCTIONS = {
    "exp": (1, math.exp),
    "log": (1, math.log),
    "log10": (1, math.log10),
    "pow10": (1, functools.partial(math.pow, 10.0)),
    "sqrt": (1, math.sqrt),
    "abs": (1, math.fabs),
    "min": (2, min),
    "max": (2, max),
}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise EstParseError(f"unexpected character {text[pos:].strip()[0]!r} "
                                    f"in expression {text!r}")
            break
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


@dataclass(frozen=True)
class Expression:
    """A parsed expression: its source text, the names it reads, and
    ``fn``, its value as a function of the bindings."""

    text: str
    names: frozenset[str]
    fn: Callable[..., float] = field(compare=False, repr=False)


def _binary(op, lhs, rhs):
    return lambda b: op(lhs(b), rhs(b))


def parse_expression(text: str) -> Expression:
    """Parse an infix expression for :func:`eval_expr`, by precedence
    climbing over ``_BINARY``."""
    tokens = _tokenize(text)[::-1]       # the next token is the last
    names = set()

    def expect(value):
        val = tokens.pop()[1]
        if val != value:
            raise EstParseError(f"expected {value!r} in expression {text!r}, "
                                f"got {val!r}")

    def operand():
        kind, val = tokens.pop()
        if val == "-":
            arg = climb(_SIGN)
            return lambda b: -arg(b)
        if kind == "num":
            x = float(val)
            return lambda b: x
        if kind == "name" and tokens[-1][1] != "(":
            names.add(val)
            return lambda b: float(b[val])
        if kind == "name":
            if val not in _FUNCTIONS:
                raise EstParseError(f"unknown function {val!r}")
            tokens.pop()
            nargs, fn = _FUNCTIONS[val]
            args = [climb(1)]
            while tokens[-1][1] == ",":
                tokens.pop()
                args.append(climb(1))
            expect(")")
            if len(args) != nargs:
                raise EstParseError(f"{val}() takes {nargs} argument(s), "
                                    f"got {len(args)}")
            return lambda b: fn(*[a(b) for a in args])
        if val == "(":
            node = climb(1)
            expect(")")
            return node
        raise EstParseError(f"unexpected {val!r} in expression {text!r}")

    def climb(min_bp):
        node = operand()
        while tokens[-1][1] in _BINARY and _BINARY[tokens[-1][1]][0] >= min_bp:
            bp, right, op = _BINARY[tokens.pop()[1]]
            node = _binary(op, node, climb(bp if right else bp + 1))
        return node

    fn = climb(1)
    if tokens[-1][0] != "end":
        raise EstParseError(f"trailing {tokens[-1][1]!r} in expression {text!r}")
    return Expression(text, frozenset(names), fn)


def eval_expr(expr: Expression, bindings: Mapping[str, float]) -> float:
    """The value of an expression under the given name bindings; an
    unbound name, an ``ArithmeticError`` or ``ValueError`` in any step, or a
    value that is not finite raises :class:`EvalError`."""
    try:
        x = expr.fn(bindings)
    except KeyError as exc:
        raise EvalError(f"unbound identifier {exc.args[0]!r}") from None
    except (ArithmeticError, ValueError) as exc:
        raise EvalError(f"{exc} in {expr.text!r}") from None
    if not math.isfinite(x):
        raise EvalError(f"{expr.text!r} is {x}, not a finite real number")
    return x


# ---------------------------------------------------------------------------
# model definition


_PRIOR_ARITY = {"unif": 2, "logunif": 2, "norm": 4, "fixed": 1}


@dataclass(frozen=True)
class PriorSpec:
    name: str
    integer: bool
    kind: str            # unif | logunif | norm | fixed
    args: tuple[float, ...]
    output: bool

    def __post_init__(self):
        if self.kind not in _PRIOR_ARITY:
            raise EstParseError(f"unknown prior kind {self.kind!r} for {self.name}")
        if len(self.args) != _PRIOR_ARITY[self.kind]:
            raise EstParseError(
                f"prior {self.kind!r} for {self.name} takes "
                f"{_PRIOR_ARITY[self.kind]} argument(s), got {len(self.args)}")
        # a continuous normal may be untruncated
        finite = (self.args[2:] if self.kind == "norm" and not self.integer
                  else self.args)
        if not all(map(math.isfinite, finite)):
            raise EstParseError(f"{self.name}: prior arguments must be "
                                f"finite, got {' '.join(map(str, self.args))}")
        if self.kind in ("unif", "logunif", "norm"):
            lo, hi = self.args[0], self.args[1]
            if not lo < hi:
                raise EstParseError(f"{self.name}: need min < max, got {lo} >= {hi}")
            # a uniform draw is min + (max - min) * u
            if self.kind == "unif" and not math.isfinite(hi - lo):
                raise EstParseError(f"{self.name}: prior width max - min "
                                    f"must be finite, got {hi} - {lo}")
            if self.kind == "logunif" and lo <= 0:
                raise EstParseError(f"{self.name}: logunif needs min > 0")
        if self.kind == "norm" and self.args[3] <= 0:
            raise EstParseError(f"{self.name}: normal prior needs sd > 0")
        if self.integer and self.kind != "fixed":
            lo, hi = self.args[0], self.args[1]
            if math.ceil(lo) > math.floor(hi):
                raise EstParseError(f"{self.name}: integer prior has no "
                                    f"integer in [{lo}, {hi}]")

    @property
    def bounds(self):
        if self.kind == "fixed":
            v = self.args[0]
            return (v, v)
        return (self.args[0], self.args[1])

    def log_density(self, x: float) -> float:
        """Unnormalized log prior density at x (−inf outside the support)."""
        lo, hi = self.bounds
        if self.kind == "fixed":
            return 0.0
        if not lo <= x <= hi:
            return -math.inf
        if self.kind == "unif":
            return 0.0
        if self.kind == "logunif":
            return -math.log(x)
        mean, sd = self.args[2], self.args[3]
        return -0.5 * ((x - mean) / sd) ** 2


_COMPARE = {"<": operator.lt, ">": operator.gt, "<=": operator.le,
            ">=": operator.ge}


@dataclass(frozen=True)
class Rule:
    lhs: str
    op: str              # < > <= >=
    rhs: str | float

    def holds(self, bindings: Mapping[str, float]):
        """Whether the rule holds; element-wise when the bindings are
        columns of values."""
        b = bindings[self.rhs] if isinstance(self.rhs, str) else self.rhs
        return _COMPARE[self.op](bindings[self.lhs], b)

    def __str__(self):
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True)
class ComplexParam:
    name: str
    integer: bool
    expression: Expression
    output: bool


@dataclass(frozen=True)
class EstModel:
    """Parsed prior model: priors, rules, and derived parameters, in
    declaration order."""

    priors: tuple[PriorSpec, ...]
    rules: tuple[Rule, ...] = ()
    complex_params: tuple[ComplexParam, ...] = ()

    @property
    def prior_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.priors)

    @property
    def all_names(self) -> tuple[str, ...]:
        return self.prior_names + tuple(c.name for c in self.complex_params)

    @property
    def output_names(self) -> tuple[str, ...]:
        out = [p.name for p in self.priors if p.output]
        out += [c.name for c in self.complex_params if c.output]
        return tuple(out)


# ---------------------------------------------------------------------------
# est file parsing


_SECTIONS = {"[PARAMETERS]": "params", "[RULES]": "rules",
             "[COMPLEX PARAMETERS]": "complex"}
_RULE_RE = re.compile(r"(<=|>=|<|>)")


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def parse_est(text: str, path=None) -> EstModel:
    """Parse est-file text into an :class:`EstModel`.

    Raises :class:`EstParseError` with a line number (after ``path``, when
    given) on any malformed or inconsistent input; there are no partial
    results.
    """
    section = None
    priors: list[PriorSpec] = []
    rules: list[tuple[int, str]] = []
    complex_params: list[ComplexParam] = []
    declared: set[str] = set()

    def err(lineno, msg):
        raise EstParseError(msg, path=path, line=lineno)

    def declare(lineno, flag, name, rest):
        """The integer flag and the name of a parameter or complex
        parameter line, checked, and the fields ``rest`` after them less a
        trailing ``output``/``hide``: ``(integer, rest, output)``."""
        if flag not in ("0", "1"):
            err(lineno, f"integer flag must be 0 or 1, got {flag!r}")
        if name in declared:
            err(lineno, f"duplicate name {name!r}")
        if rest and rest[-1] in ("output", "hide"):
            return flag == "1", rest[:-1], rest[-1] == "output"
        return flag == "1", rest, True

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//") or line.startswith("#"):
            continue
        upper = line.upper()
        if upper in _SECTIONS:
            section = _SECTIONS[upper]
            continue
        if section is None:
            err(lineno, f"content before any section header: {line!r}")
        if section == "params":
            fields = line.split()
            if len(fields) < 4:
                err(lineno, f"parameter line needs at least 4 fields: {line!r}")
            name, kind = fields[1], fields[2]
            integer, rest, out_flag = declare(lineno, fields[0], name,
                                              fields[3:])
            try:
                args = tuple(float(v) for v in rest)
            except ValueError:
                err(lineno, f"non-numeric prior argument in {line!r}")
            try:
                priors.append(PriorSpec(name, integer, kind, args, out_flag))
            except EstParseError as exc:
                err(lineno, str(exc))
            declared.add(name)
        elif section == "rules":
            parts = _RULE_RE.split(line)
            if len(parts) != 3:
                err(lineno, f"rule must be '<name> <op> <name-or-number>': {line!r}")
            lhs, op, rhs = (p.strip() for p in parts)
            prior_names = {p.name for p in priors}
            if lhs not in prior_names:
                err(lineno, f"rule references undeclared parameter {lhs!r}")
            if not _is_number(rhs) and rhs not in prior_names:
                err(lineno, f"rule references undeclared parameter {rhs!r}")
            rules.append(Rule(lhs, op, float(rhs) if _is_number(rhs) else rhs))
        else:
            fields = line.split()
            if len(fields) < 4 or fields[2] != "=":
                err(lineno, f"complex parameter line must look like "
                            f"'0 NAME = expression [output|hide]': {line!r}")
            name = fields[1]
            integer, expr_fields, out_flag = declare(lineno, fields[0], name,
                                                     fields[3:])
            try:
                expr = parse_expression(" ".join(expr_fields))
            except EstParseError as exc:
                err(lineno, str(exc))
            unknown = expr.names - declared
            if unknown:
                err(lineno, f"expression for {name} references undeclared "
                            f"name(s): {', '.join(sorted(unknown))}")
            complex_params.append(ComplexParam(name, integer, expr, out_flag))
            declared.add(name)

    if not priors:
        raise EstParseError("no [PARAMETERS] section (it is mandatory)",
                            path=path)
    return EstModel(tuple(priors), tuple(rules), tuple(complex_params))


def parse_est_file(path) -> EstModel:
    from pathlib import Path
    return parse_est(Path(path).read_text(), path)


# ---------------------------------------------------------------------------
# sampling (see the seed rule in the module docstring)

# integer priors with at most this many integers in range draw from an
# exact table of their masses
LATTICE_TABLE_MAX = 1 << 20
# a normal density this many sd from its largest lattice mass underflows
_NORM_WINDOW = 40


def _truncnorm_ppf(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """Standard normal truncated to [a, b] at the CDF levels ``u`` (1 - u
    when mirrored), computed on the side of 0 where ``ndtr`` keeps its
    relative precision.  ``scipy.special`` is imported here, on first use,
    so that only truncated-normal priors load it."""
    from scipy.special import ndtr, ndtri
    if a + b > 0:
        return -_truncnorm_ppf(-b, -a, u)
    pa, pb = ndtr(a), ndtr(b)
    return np.clip(ndtri(pa + u * (pb - pa)), a, b)


def _continuous_values(spec: PriorSpec, lo: float, hi: float,
                       u: np.ndarray) -> np.ndarray:
    if spec.kind == "unif":
        return lo + (hi - lo) * u
    if spec.kind == "logunif":
        a, b = math.log(lo), math.log(hi)
        return np.clip(np.exp(a + (b - a) * u), lo, hi)
    mean, sd = spec.args[2], spec.args[3]
    z = _truncnorm_ppf((lo - mean) / sd, (hi - mean) / sd, u)
    return np.clip(mean + sd * z, lo, hi)


@functools.lru_cache(maxsize=64)
def _lattice(spec: PriorSpec):
    """``(first, last, cdf)`` of an integer prior: the integers that carry
    mass and the normalized cumulative masses of the first
    ``LATTICE_TABLE_MAX`` of them (``None`` for ``unif``, whose inverse CDF
    is closed-form, and for a ``norm`` wider than the table).  A wider
    ``logunif`` leaves the mass of the integers past the table to its
    continuous density, rounded: there the masses 1/k and log((k + 1/2) /
    (k - 1/2)) agree to a relative 1e-13."""
    first, last = math.ceil(spec.args[0]), math.floor(spec.args[1])
    if spec.kind == "norm":
        mean, sd = spec.args[2], spec.args[3]
        centre = min(max(round(mean), first), last)
        reach = math.ceil(_NORM_WINDOW * sd)
        first, last = max(first, centre - reach), min(last, centre + reach)
    if spec.kind == "unif" or (spec.kind == "norm"
                               and last - first + 1 > LATTICE_TABLE_MAX):
        return first, last, None
    k = np.arange(first, min(last, first + LATTICE_TABLE_MAX - 1) + 1,
                  dtype=float)
    if spec.kind == "logunif":
        mass = first / k
        tail = first * math.log((last + 0.5) / (k[-1] + 0.5))
    else:
        log_mass = -0.5 * ((k - spec.args[2]) / spec.args[3]) ** 2
        mass = np.exp(log_mass - log_mass.max())
        tail = 0.0
    cdf = np.cumsum(mass)
    cdf /= cdf[-1] + tail
    cdf.setflags(write=False)        # shared by every caller of the cache
    return first, last, cdf


def _integer_values(spec: PriorSpec, u: np.ndarray) -> np.ndarray:
    """An integer prior at the CDF levels ``u``: the mass of each integer
    in range is proportional to the density there.  Beyond the table of
    :func:`_lattice`, the continuous density on [first - 1/2, last + 1/2]
    is rounded to the nearest integer: exact for ``unif``, and for a
    ``norm`` that wide (sd > 13000) within a relative 1e-8 for the integers
    within 5 sd of the mean."""
    first, last, cdf = _lattice(spec)
    if cdf is None:
        x = _continuous_values(spec, first - 0.5, last + 0.5, u)
        return np.clip(np.floor(x + 0.5), first, last)
    k = np.searchsorted(cdf, u, side="right")
    values = first + np.minimum(k, last - first).astype(float)
    past = k >= len(cdf)
    if past.any() and first + len(cdf) <= last:
        head = cdf[-1]
        x = _continuous_values(spec, first + len(cdf) - 0.5, last + 0.5,
                               (u[past] - head) / (1.0 - head))
        values[past] = np.clip(np.floor(x + 0.5), first + len(cdf), last)
    return values


def _prior_values(spec: PriorSpec, u: np.ndarray) -> np.ndarray:
    if spec.kind == "fixed":
        v = spec.args[0]
        return np.full(u.shape, _truncate_int(v) if spec.integer else v)
    if spec.integer:
        return _integer_values(spec, u)
    return _continuous_values(spec, spec.args[0], spec.args[1], u)


def _truncate_int(x: float) -> float:
    return float(math.trunc(x))


def sample_rows(model: EstModel, rng: np.random.Generator,
                n: int) -> np.ndarray:
    """``n`` raw draws from the model, one row each with a column per
    prior, under the seed rule of the module docstring.

    Aborts with a diagnostic if the rules reject ``MAX_RULE_TRIES``
    candidates in a row.
    """
    blocks = [np.empty((0, len(model.priors)))]
    have = 0
    run = 0                      # candidates rejected since the last accept
    while have < n:
        u = rng.random((n - have, len(model.priors)))
        rows = np.column_stack([_prior_values(spec, u[:, j])
                                for j, spec in enumerate(model.priors)])
        if model.rules:
            cols = dict(zip(model.prior_names, rows.T))
            ok = np.logical_and.reduce([rule.holds(cols)
                                        for rule in model.rules])
            kept = np.flatnonzero(ok)
            # rejections before each accepted row, and after the last one
            gaps = np.diff(kept, prepend=-1 - run) - 1
            run = len(rows) - 1 - int(kept[-1]) if kept.size else run + len(rows)
            if run >= MAX_RULE_TRIES or np.any(gaps >= MAX_RULE_TRIES):
                raise EstParseError(
                    f"rule system rejected {MAX_RULE_TRIES} consecutive draws "
                    f"(rejection rate > 0.999); rules appear degenerate: "
                    + "; ".join(str(r) for r in model.rules))
            rows = rows[kept]
        blocks.append(rows)
        have += len(rows)
    return np.concatenate(blocks)


def sample(model: EstModel, rng: np.random.Generator) -> dict:
    """Draw one parameter vector from the model: one row of
    :func:`sample_rows`, completed by :func:`complete_draw`."""
    raw = sample_rows(model, rng, 1)[0]
    return complete_draw(model, dict(zip(model.prior_names, raw.tolist())))


def complete_rows(model: EstModel, raw: np.ndarray) -> np.ndarray:
    """Rows of raw draws with the complex parameters appended, columns in
    ``model.all_names`` order (each row as :func:`complete_draw` binds
    it)."""
    if not model.complex_params:
        return raw
    names = model.all_names
    out = np.empty((len(raw), len(names)))
    for i, row in enumerate(raw.tolist()):
        values = complete_draw(model, dict(zip(model.prior_names, row)))
        out[i] = [values[n] for n in names]
    return out


def complete_draw(model: EstModel, raw: Mapping[str, float]) -> dict:
    """A new dict of the raw prior values and the complex parameters,
    evaluated in declaration order (integer ones truncated)."""
    values = dict(raw)
    for cp in model.complex_params:
        x = eval_expr(cp.expression, values)
        if cp.integer:
            x = _truncate_int(x)
        values[cp.name] = x
    return values


def log_prior_density(model: EstModel, values: Mapping[str, float]) -> float:
    """Unnormalized log density of the raw priors at the given values
    (rules are handled by rejection, not here)."""
    return sum(p.log_density(float(values[p.name])) for p in model.priors)
