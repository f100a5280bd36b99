"""Scalar expression trees for cost and drift data.

Expressions are parsed from a small closed grammar over time, state,
velocity, and endpoint variables.  The node set is deliberately minimal
(constants, variables, neg/sin/cos/exp/log/sqrt, add/sub/mul/div and pow
with a constant exponent) so that every parseable expression is smooth
wherever it evaluates.  Trees are immutable; evaluation and symbolic
differentiation are pure functions and safe to share across threads.

Evaluation compiles a list of trees once into a post-order step list
with one step per structurally distinct subtree, and a loop runs it on
plain floats or numpy arrays, elementwise, which is what the grid-based
callers rely on.  The domain test of a div or pow whose right operand
is constant is decided at compile time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

PROFILE_RUNNING = "running-cost"
PROFILE_DRIFT = "drift-component"
PROFILE_TERMINAL = "terminal-cost"

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

_VAR_PATTERNS = (
    ("x0", re.compile(r"^x0_(\d+)$")),
    ("xT", re.compile(r"^xT_(\d+)$")),
    ("x", re.compile(r"^x(\d+)$")),
    ("v", re.compile(r"^v(\d+)$")),
    ("t", re.compile(r"^t$")),
)

# which variable kinds each profile admits
_PROFILE_KINDS = {
    PROFILE_RUNNING: ("t", "x", "v"),
    PROFILE_DRIFT: ("t", "x"),
    PROFILE_TERMINAL: ("x0", "xT"),
}


class ExprError(ValueError):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    """Parse failure; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class ExprDomainError(ExprError):
    """Evaluation hit a pole or left the domain of log/sqrt/pow."""

    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in `{to_string(subexpr)}`")
        self.subexpr = subexpr


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # neg | sin | cos | exp | log | sqrt
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div | pow
    left: "Expr"
    right: "Expr"


Expr = Const | Var | Unary | Binary


def variables(e: Expr) -> frozenset[str]:
    """All variable names appearing in the tree."""
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return variables(e.arg)
    return variables(e.left) | variables(e.right)


def is_constant(e: Expr) -> bool:
    return not variables(e)


def legal_variables(profile: str, dimension: int) -> frozenset[str]:
    """The variable names admitted by a profile at a given dimension."""
    if profile not in _PROFILE_KINDS:
        raise ExprError(f"unknown variable profile {profile!r}")
    names: list[str] = []
    for kind in _PROFILE_KINDS[profile]:
        if kind == "t":
            names.append("t")
        elif kind == "x":
            names.extend(f"x{i}" for i in range(1, dimension + 1))
        elif kind == "v":
            names.extend(f"v{i}" for i in range(1, dimension + 1))
        elif kind == "x0":
            names.extend(f"x0_{i}" for i in range(1, dimension + 1))
        elif kind == "xT":
            names.extend(f"xT_{i}" for i in range(1, dimension + 1))
    return frozenset(names)


# ---------------------------------------------------------------------------
# tokenizer


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip leading whitespace that the regex could not absorb
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ExprSyntaxError(
                f"unexpected character `{stripped[0]}` at offset {off}", off
            )
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := '-' factor | power
# power  := atom ('^' exponent)*          (left-associative)
# exponent := '-' exponent | atom          (must be a constant subtree)
# atom   := number | variable | func '(' expr ')' | '(' expr ')'


class _Parser:
    def __init__(self, text: str, dimension: int, profile: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dimension = dimension
        self.profile = profile
        self.legal = legal_variables(profile, dimension)

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, None, len(self.text))

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, off = self.peek()
        if kind != "op" or value != symbol:
            got = value if value is not None else "end of input"
            raise ExprSyntaxError(f"expected `{symbol}`, got {got} at offset {off}", off)
        self.advance()

    def parse(self) -> Expr:
        e = self.parse_expr()
        kind, value, off = self.peek()
        if kind is not None:
            raise ExprSyntaxError(f"unexpected token `{value}` at offset {off}", off)
        return e

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.parse_term()
                e = Binary("add" if value == "+" else "sub", e, rhs)
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.parse_factor()
                e = Binary("mul" if value == "*" else "div", e, rhs)
            else:
                return e

    def parse_factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary("neg", self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        e = self.parse_atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                _, _, exp_off = self.peek()
                rhs = self.parse_exponent()
                if not is_constant(rhs):
                    raise ExprSyntaxError(
                        f"exponent must be a constant expression at offset {exp_off}",
                        exp_off,
                    )
                e = Binary("pow", e, rhs)
            else:
                return e

    def parse_exponent(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary("neg", self.parse_exponent())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        kind, value, off = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in _FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function `{value}` at offset {off}", off
                    )
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Unary(value, arg)
            return self._make_var(value, off)
        if kind == "op" and value == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        shown = value if value is not None else "end of input"
        raise ExprSyntaxError(f"unexpected token `{shown}` at offset {off}", off)

    def _make_var(self, name: str, off: int) -> Var:
        for var_kind, pattern in _VAR_PATTERNS:
            m = pattern.match(name)
            if m is None:
                continue
            if var_kind != "t":
                index = int(m.group(1))
                if not 1 <= index <= self.dimension:
                    raise ExprSyntaxError(
                        f"variable index out of range: `{name}` at offset {off} "
                        f"(dimension is {self.dimension})",
                        off,
                    )
            if name not in self.legal:
                raise ExprSyntaxError(
                    f"variable `{name}` is not allowed in a {self.profile} "
                    f"expression at offset {off}",
                    off,
                )
            return Var(name)
        raise ExprSyntaxError(f"unknown identifier `{name}` at offset {off}", off)


def parse(text: str, dimension: int, profile: str) -> Expr:
    """Parse an expression string against a variable profile.

    ``profile`` is one of ``running-cost`` (t, x*, v*), ``drift-component``
    (t, x*), ``terminal-cost`` (x0_*, xT_*).
    """
    if dimension < 1:
        raise ExprError("dimension must be a positive integer")
    parser = _Parser(text, dimension, profile)
    kind, _, off = parser.peek()
    if kind is None:
        raise ExprSyntaxError(f"empty expression at offset {off}", off)
    return parser.parse()


# ---------------------------------------------------------------------------
# evaluation: trees compile once into a post-order step list

_FN = {
    "neg": np.negative, "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "add": np.add, "sub": np.subtract,
    "mul": np.multiply, "div": np.divide, "pow": np.power,
}
# domain tests: (key index of the tested operand, comparison with 0.0, message)
_DOMAIN = {
    "log": (1, np.less_equal, "log of non-positive argument"),
    "sqrt": (1, np.less, "sqrt of negative argument"),
    "div": (2, np.equal, "division by zero"),
    "pow": (1, np.less_equal, "non-integer power of non-positive base"),
}


class Program(NamedTuple):
    """Trees compiled by compile_program.  Slot 0 holds the environment
    and a constant's slot its value.  A step (out, fn, a, b, free, test,
    node) writes fn(a) or fn(a, b) of slots a, b to slot out, after its
    domain test (slot, comparison, message) if it has one, then releases
    the slots in ``free``, whose last reader it is; a variable's step
    looks its name up in slot 0.  ``outputs`` are the trees' slots."""

    slots: tuple
    steps: tuple
    outputs: tuple


def compile_program(trees) -> Program:
    """Flatten trees into one step list with one slot per structurally
    distinct subtree, placed at its first occurrence in post-order: a
    shared subtree is evaluated once, and the first step to fail is the
    node a left-to-right recursive walk would fail at.  Constants are
    keyed by value and sign bit, so 0.0 and -0.0 stay apart."""
    slots: list = [None]
    steps: list = []
    index: dict = {}

    def visit(e: Expr) -> int:
        if isinstance(e, Const):
            key = ("const", e.value, math.copysign(1.0, e.value))
        elif isinstance(e, Var):
            key = ("var", e.name)
        elif isinstance(e, Unary):
            key = (e.op, visit(e.arg), None)
        else:
            key = (e.op, visit(e.left), visit(e.right))
        if key not in index:
            index[key] = len(slots)
            slots.append(e.value if isinstance(e, Const) else None)
            if isinstance(e, Var):
                steps.append([index[key], itemgetter(e.name), 0, None, (), None, e])
            elif not isinstance(e, Const):
                if e.op not in _FN:
                    raise ExprError(f"unknown operator {e.op!r}")
                test = _DOMAIN.get(e.op) if _may_fail(e) else None
                if test is not None:
                    test = (key[test[0]], test[1], test[2])
                steps.append([index[key], _FN[e.op], key[1], key[2], (), test, e])
        return index[key]

    outputs = tuple(visit(e) for e in trees)
    # visit refers to itself through its closure: unbind it, so its tables
    # are freed on return rather than left to the cyclic collector
    visit = None
    # liveness: a computed slot that is not an output is released by its
    # last reader, so a run holds only the intermediates still ahead of it
    last_reader = {}
    for step in steps:
        last_reader[step[2]] = last_reader[step[3]] = step
    for slot in {step[0] for step in steps} - set(outputs):
        last_reader[slot][4] += (slot,)
    return Program(tuple(slots), tuple(map(tuple, steps)), outputs)


def _may_fail(e: Unary | Binary) -> bool:
    """False when the constant right operand of a div or pow decides its
    domain test at compile time: a nonzero divisor, an integral exponent.
    A pow exponent that is not constant raises ExprError."""
    if e.op == "pow" or (e.op == "div" and is_constant(e.right)):
        try:
            c = constant_value(e.right)
        except ExprDomainError:
            return True  # the right operand's own steps raise first
        return c == 0.0 if e.op == "div" else not c.is_integer()
    return True


def run_program(program: Program, env: dict) -> list:
    """Values of the compiled trees under env, in compile order."""
    vals = [env, *program.slots[1:]]
    try:
        for out, fn, a, b, free, test, node in program.steps:
            if test is not None and test[1](vals[test[0]], 0.0).any():
                raise ExprDomainError(test[2], node)
            vals[out] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
            for i in free:
                vals[i] = None
    except KeyError as err:
        raise ExprError(f"no value supplied for variable `{err.args[0]}`") from None
    return [vals[i] for i in program.outputs]


def eval_expr(e: Expr, env: dict) -> float | np.ndarray:
    """Evaluate with IEEE double arithmetic.

    Environment values may be scalars or numpy arrays of a common shape;
    the result has the same shape.  Raises ExprDomainError for log of a
    non-positive value, sqrt of a negative value, division by zero, or a
    non-integer power of a non-positive base.
    """
    (result,) = run_program(compile_program([e]), env)
    return float(result) if np.ndim(result) == 0 else result


def constant_value(e: Expr) -> float:
    """Numeric value of a variable-free subtree."""
    if not is_constant(e):
        raise ExprError(f"`{to_string(e)}` is not a constant expression")
    return eval_expr(e, {})


# ---------------------------------------------------------------------------
# symbolic differentiation with identity/annihilator folding


def _const_or_none(e: Expr):
    return e.value if isinstance(e, Const) else None


def _add(a: Expr, b: Expr) -> Expr:
    av, bv = _const_or_none(a), _const_or_none(b)
    if av is not None and bv is not None:
        return Const(av + bv)
    if av == 0.0:
        return b
    if bv == 0.0:
        return a
    return Binary("add", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    av, bv = _const_or_none(a), _const_or_none(b)
    if av is not None and bv is not None:
        return Const(av - bv)
    if bv == 0.0:
        return a
    if av == 0.0:
        return _neg(b)
    return Binary("sub", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    av, bv = _const_or_none(a), _const_or_none(b)
    if av is not None and bv is not None:
        return Const(av * bv)
    if av == 0.0 or bv == 0.0:
        return Const(0.0)
    if av == 1.0:
        return b
    if bv == 1.0:
        return a
    # keep constants on the left and collect nested constant coefficients,
    # so e.g. the derivative of v1^2/2 lands on plain v1
    if bv is not None:
        a, b = b, a
        av, bv = bv, av
    if av is not None and isinstance(b, Binary) and b.op == "mul":
        inner = _const_or_none(b.left)
        if inner is not None:
            return _mul(Const(av * inner), b.right)
    return Binary("mul", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    av, bv = _const_or_none(a), _const_or_none(b)
    if av is not None and bv is not None and bv != 0.0:
        return Const(av / bv)
    if av == 0.0:
        return Const(0.0)
    if bv == 1.0:
        return a
    if bv is not None and bv != 0.0 and isinstance(a, Binary) and a.op == "mul":
        coeff = _const_or_none(a.left)
        if coeff is not None:
            return _mul(Const(coeff / bv), a.right)
    return Binary("div", a, b)


def _neg(a: Expr) -> Expr:
    av = _const_or_none(a)
    if av is not None:
        return Const(-av)
    return Unary("neg", a)


def _pow(base: Expr, exponent: float) -> Expr:
    if exponent == 1.0:
        return base
    if exponent == 0.0:
        return Const(1.0)
    bv = _const_or_none(base)
    if bv is not None:
        return Const(bv**exponent)
    return Binary("pow", base, Const(exponent))


def diff(e: Expr, var: str) -> Expr:
    """Symbolic derivative with respect to a variable name.

    Trivial subtrees produced by the rules (0*e, e+0, e^1, constant
    coefficients) are folded away; no deeper simplification is attempted,
    so derivative trees stay auditable.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Unary):
        du = diff(e.arg, var)
        if e.op == "neg":
            return _neg(du)
        if e.op == "sin":
            return _mul(Unary("cos", e.arg), du)
        if e.op == "cos":
            return _neg(_mul(Unary("sin", e.arg), du))
        if e.op == "exp":
            return _mul(Unary("exp", e.arg), du)
        if e.op == "log":
            return _div(du, e.arg)
        if e.op == "sqrt":
            return _div(du, _mul(Const(2.0), Unary("sqrt", e.arg)))
        raise ExprError(f"unknown unary op {e.op!r}")
    if e.op == "pow":
        c = constant_value(e.right)
        du = diff(e.left, var)
        return _mul(_mul(Const(c), _pow(e.left, c - 1.0)), du)
    da = diff(e.left, var)
    db = diff(e.right, var)
    if e.op == "add":
        return _add(da, db)
    if e.op == "sub":
        return _sub(da, db)
    if e.op == "mul":
        return _add(_mul(da, e.right), _mul(e.left, db))
    if e.op == "div":
        if is_constant(e.right):
            return _div(da, e.right)
        num = _sub(_mul(da, e.right), _mul(e.left, db))
        return _div(num, Binary("pow", e.right, Const(2.0)))
    raise ExprError(f"unknown binary op {e.op!r}")


# ---------------------------------------------------------------------------
# printing

_LEVEL = {"add": 10, "sub": 10, "mul": 20, "div": 20, "neg": 30, "pow": 40}
_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _format_const(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_string(e: Expr) -> str:
    """Render a tree; parse(to_string(parse(s))) reproduces the same AST."""
    return _render(e)


def _render(e: Expr) -> str:
    if isinstance(e, Const):
        return _format_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = _render(e.arg)
            if _level(e.arg) < _LEVEL["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({_render(e.arg)})"
    if e.op == "pow":
        base = _render(e.left)
        if _level(e.left) < 50 and not (
            isinstance(e.left, Binary) and e.left.op == "pow"
        ):
            base = f"({base})"
        return f"{base}^{_render_exponent(e.right)}"
    level = _LEVEL[e.op]
    left = _render(e.left)
    if _level(e.left) < level:
        left = f"({left})"
    right = _render(e.right)
    if _level(e.right) <= level:
        right = f"({right})"
    return f"{left}{_SYMBOL[e.op]}{right}"


def _render_exponent(e: Expr) -> str:
    if isinstance(e, Const):
        return _format_const(e.value)
    if isinstance(e, Unary) and e.op == "neg":
        return f"-{_render_exponent(e.arg)}"
    return f"({_render(e)})"


def _level(e: Expr) -> int:
    if isinstance(e, (Const, Var)):
        return 50
    if isinstance(e, Unary):
        return _LEVEL["neg"] if e.op == "neg" else 50
    return _LEVEL[e.op]
