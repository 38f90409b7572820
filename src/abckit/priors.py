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
parameters and are enforced by rejecting the whole draw.  Complex-parameter expressions use
``+ - * / ^`` (``^`` right-associative) and the functions ``exp, log,
log10, pow10, sqrt, abs, min, max``.  Lines starting with ``//`` or ``#``
are comments.

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
from typing import Mapping

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import EstParseError, EvalError

log = logging.getLogger(__name__)

__all__ = [
    "PriorSpec", "Rule", "ComplexParam", "EstModel", "ParamDraw",
    "parse_est", "parse_expression", "eval_expr", "sample", "sample_rows",
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

_FUNCTIONS = {
    "exp": (1, math.exp),
    "log": (1, None),     # domain-checked
    "log10": (1, None),
    "pow10": (1, lambda x: 10.0 ** x),
    "sqrt": (1, None),
    "abs": (1, abs),
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


class _ExprParser:
    """Recursive-descent parser producing a small tuple-based AST."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val = self.advance()
        if val != value:
            raise EstParseError(f"expected {value!r} in expression {self.text!r}, "
                                f"got {val!r}")

    def parse(self):
        node = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise EstParseError(f"trailing {val!r} in expression {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = ("bin", op, node, self.factor())
        return node

    def factor(self):
        node = self.unary()
        if self.peek()[1] == "^":
            self.advance()
            node = ("bin", "^", node, self.factor())  # right associative
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.advance()
            return ("neg", self.unary())
        return self.primary()

    def primary(self):
        kind, val = self.advance()
        if kind == "num":
            return ("num", float(val))
        if kind == "name":
            if self.peek()[1] == "(":
                if val not in _FUNCTIONS:
                    raise EstParseError(f"unknown function {val!r}")
                self.advance()
                nargs = _FUNCTIONS[val][0]
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != nargs:
                    raise EstParseError(f"{val}() takes {nargs} argument(s), "
                                        f"got {len(args)}")
                return ("call", val, tuple(args))
            return ("var", val)
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise EstParseError(f"unexpected {val!r} in expression {self.text!r}")


def parse_expression(text: str):
    """Parse an infix expression to an AST usable with :func:`eval_expr`."""
    return _ExprParser(text).parse()


def expr_names(node) -> set[str]:
    kind = node[0]
    if kind == "var":
        return {node[1]}
    if kind == "num":
        return set()
    if kind == "neg":
        return expr_names(node[1])
    if kind == "bin":
        return expr_names(node[2]) | expr_names(node[3])
    return set().union(*(expr_names(a) for a in node[2]))


def eval_expr(node, bindings: Mapping[str, float]) -> float:
    """Evaluate an expression tree under the given name bindings."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        try:
            return float(bindings[node[1]])
        except KeyError:
            raise EvalError(f"unbound identifier {node[1]!r}") from None
    if kind == "neg":
        return -eval_expr(node[1], bindings)
    if kind == "bin":
        op, a, b = node[1], eval_expr(node[2], bindings), eval_expr(node[3], bindings)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise EvalError(f"division by zero in {_unparse(node)}")
            return a / b
        try:
            return float(a) ** float(b)
        except (OverflowError, ValueError) as exc:
            raise EvalError(f"power failed in {_unparse(node)}: {exc}") from None
    # function call
    fname, args = node[1], [eval_expr(a, bindings) for a in node[2]]
    x = args[0]
    if fname == "log":
        if x <= 0:
            raise EvalError(f"log of non-positive value {x} in log({x})")
        return math.log(x)
    if fname == "log10":
        if x <= 0:
            raise EvalError(f"log10 of non-positive value {x} in log10({x})")
        return math.log10(x)
    if fname == "sqrt":
        if x < 0:
            raise EvalError(f"sqrt of negative value {x}")
        return math.sqrt(x)
    return float(_FUNCTIONS[fname][1](*args))


def _unparse(node) -> str:
    kind = node[0]
    if kind == "num":
        return format(node[1], "g")
    if kind == "var":
        return node[1]
    if kind == "neg":
        return f"-{_unparse(node[1])}"
    if kind == "bin":
        return f"({_unparse(node[2])} {node[1]} {_unparse(node[3])})"
    return f"{node[1]}({', '.join(_unparse(a) for a in node[2])})"


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
        if self.kind in ("unif", "logunif", "norm"):
            lo, hi = self.args[0], self.args[1]
            if not lo < hi:
                raise EstParseError(f"{self.name}: need min < max, got {lo} >= {hi}")
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
    expression: tuple
    output: bool
    source: str = ""


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


@dataclass(frozen=True)
class ParamDraw:
    """One accepted draw: every declared name bound to a value."""

    values: dict[str, float]
    output_names: tuple[str, ...]

    def output_values(self) -> np.ndarray:
        return np.array([self.values[n] for n in self.output_names])

    def __getitem__(self, name: str) -> float:
        return self.values[name]


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


def parse_est(text: str) -> EstModel:
    """Parse est-file text into an :class:`EstModel`.

    Raises :class:`EstParseError` with a line number on any malformed or
    inconsistent input; there are no partial results.
    """
    section = None
    priors: list[PriorSpec] = []
    rules: list[tuple[int, str]] = []
    complex_params: list[ComplexParam] = []
    declared: set[str] = set()

    def err(lineno, msg):
        raise EstParseError(msg, line=lineno)

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
            flag, name, kind = fields[0], fields[1], fields[2]
            if flag not in ("0", "1"):
                err(lineno, f"integer flag must be 0 or 1, got {flag!r}")
            if name in declared:
                err(lineno, f"duplicate name {name!r}")
            out_flag = True
            rest = fields[3:]
            if rest and rest[-1] in ("output", "hide"):
                out_flag = rest[-1] == "output"
                rest = rest[:-1]
            try:
                args = tuple(float(v) for v in rest)
            except ValueError:
                err(lineno, f"non-numeric prior argument in {line!r}")
            try:
                priors.append(PriorSpec(name, flag == "1", kind, args, out_flag))
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
            flag, name = fields[0], fields[1]
            if flag not in ("0", "1"):
                err(lineno, f"integer flag must be 0 or 1, got {flag!r}")
            if name in declared:
                err(lineno, f"duplicate name {name!r}")
            expr_fields = fields[3:]
            out_flag = True
            if expr_fields and expr_fields[-1] in ("output", "hide"):
                out_flag = expr_fields[-1] == "output"
                expr_fields = expr_fields[:-1]
            expr_text = " ".join(expr_fields)
            try:
                tree = parse_expression(expr_text)
            except EstParseError as exc:
                err(lineno, str(exc))
            unknown = expr_names(tree) - declared
            if unknown:
                err(lineno, f"expression for {name} references undeclared "
                            f"name(s): {', '.join(sorted(unknown))}")
            complex_params.append(ComplexParam(name, flag == "1", tree,
                                               out_flag, expr_text))
            declared.add(name)

    if not priors:
        raise EstParseError("no [PARAMETERS] section (it is mandatory)")
    return EstModel(tuple(priors), tuple(rules), tuple(complex_params))


def parse_est_file(path) -> EstModel:
    from pathlib import Path
    try:
        return parse_est(Path(path).read_text())
    except EstParseError as exc:
        raise EstParseError(f"{path}: {exc}") from None


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
    relative precision."""
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


def sample(model: EstModel, rng: np.random.Generator) -> ParamDraw:
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
        values = complete_draw(model, dict(zip(model.prior_names, row))).values
        out[i] = [values[n] for n in names]
    return out


def complete_draw(model: EstModel, raw: Mapping[str, float]) -> ParamDraw:
    """Bind the complex parameters to values of the raw priors, evaluated
    in declaration order (integer ones truncated)."""
    values = dict(raw)
    for cp in model.complex_params:
        x = eval_expr(cp.expression, values)
        if cp.integer:
            x = _truncate_int(x)
        values[cp.name] = x
    return ParamDraw(values, model.output_names)


def log_prior_density(model: EstModel, values: Mapping[str, float]) -> float:
    """Unnormalized log density of the raw priors at the given values
    (rules are handled by rejection, not here)."""
    return sum(p.log_density(float(values[p.name])) for p in model.priors)
