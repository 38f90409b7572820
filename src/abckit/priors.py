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

Only ``[PARAMETERS]`` is mandatory.  The leading 0/1 flags integer
truncation, the trailing ``output``/``hide`` controls whether the value is
written to simulation tables (hidden values remain available as simulator
arguments).  Supported priors: ``unif``, ``logunif``, ``norm`` (truncated
to [min, max]) and ``fixed``.  Rules constrain raw parameters and are
enforced by rejecting the whole draw.  Complex-parameter expressions use
``+ - * / ^`` (``^`` right-associative) and the functions ``exp, log,
log10, pow10, sqrt, abs, min, max``.  Lines starting with ``//`` or ``#``
are comments.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy import stats as sps

from .errors import EstParseError, EvalError

log = logging.getLogger(__name__)

__all__ = [
    "PriorSpec", "Rule", "ComplexParam", "EstModel", "ParamDraw",
    "parse_est", "parse_expression", "eval_expr", "sample", "complete_draw",
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


@dataclass(frozen=True)
class Rule:
    lhs: str
    op: str              # < > <= >=
    rhs: str | float

    def holds(self, bindings: Mapping[str, float]) -> bool:
        a = float(bindings[self.lhs])
        b = float(bindings[self.rhs]) if isinstance(self.rhs, str) else self.rhs
        if self.op == "<":
            return a < b
        if self.op == ">":
            return a > b
        if self.op == "<=":
            return a <= b
        return a >= b

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
# sampling


def _draw_prior(spec: PriorSpec, rng: np.random.Generator) -> float:
    if spec.kind == "fixed":
        return spec.args[0]
    if spec.kind == "unif":
        return rng.uniform(spec.args[0], spec.args[1])
    if spec.kind == "logunif":
        return math.exp(rng.uniform(math.log(spec.args[0]), math.log(spec.args[1])))
    # truncated normal: rejection while acceptance is healthy, otherwise
    # inverse CDF on the truncated interval (tail windows go through the
    # survival function, where the CDF would saturate)
    lo, hi, mean, sd = spec.args
    a, b = (lo - mean) / sd, (hi - mean) / sd
    accept = sps.norm.cdf(b) - sps.norm.cdf(a)
    if accept >= 1e-3:
        while True:
            x = rng.normal(mean, sd)
            if lo <= x <= hi:
                return x
    if a >= 0:
        u = rng.uniform(sps.norm.sf(b), sps.norm.sf(a))
        z = float(sps.norm.isf(u))
    else:
        u = rng.uniform(sps.norm.cdf(a), sps.norm.cdf(b))
        z = float(sps.norm.ppf(u))
    return mean + sd * z


def _truncate_int(x: float) -> float:
    return float(math.trunc(x))


def sample(model: EstModel, rng: np.random.Generator) -> ParamDraw:
    """Draw one parameter vector from the model.

    Raw parameters are drawn from their priors; a draw violating any rule
    is rejected wholesale and retried.  Complex parameters are then
    evaluated in declaration order.  Aborts with a diagnostic if the rule
    system rejects (essentially) everything.
    """
    for _ in range(MAX_RULE_TRIES):
        values: dict[str, float] = {}
        for spec in model.priors:
            x = _draw_prior(spec, rng)
            if spec.integer:
                x = _truncate_int(x)
            values[spec.name] = x
        if all(rule.holds(values) for rule in model.rules):
            break
    else:
        raise EstParseError(
            f"rule system rejected {MAX_RULE_TRIES} consecutive draws "
            f"(rejection rate > 0.999); rules appear degenerate: "
            + "; ".join(str(r) for r in model.rules))
    return complete_draw(model, values)


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
