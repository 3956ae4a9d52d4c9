"""Predicate expressions over object attributes, event parameters, and variables.

An expression is a small immutable tree: Const / Attr / Var leaves, a unary
Not, and BinOp for everything else.  The same surface grammar serves
standalone predicates and the inline predicates of policy files:

    expr    := or
    or      := and ("||" and)*
    and     := cmp ("&&" cmp)*
    cmp     := setop (("=" | "!=" | "<" | ">" | "<=" | ">=" |
                       "in" | "subset" | "subseteq") setop)*
    setop   := add (("intersect" | "union") add)*
    add     := mul (("+" | "-") mul)*
    mul     := unary (("*" | "/") unary)*
    unary   := "!" unary | primary
    primary := "(" expr ")" | STRING | NUMBER | "true" | "false"
             | IDENT | "$" IDENT | "{" members "}"

Bare identifiers name attributes (on nodes) or event parameters (on edges).
Inside {...} set literals a bare identifier is shorthand for the string of the
same spelling.  Parentheses are surface syntax only; the parser drops them and
the printer re-derives them from precedence.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from .values import ValueSet, canonical, is_number, is_value, values_equal


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class PredicateTypeError(TypeError):
    """Raised when constant folding meets operands of the wrong kind.

    Signals a malformed policy/trace pairing (e.g. ordering strings, dividing
    by zero); carries the offending subexpression.
    """

    def __init__(self, message: str, expr: "Expr"):
        super().__init__(f"{message}: {format_expr(expr)}")
        self.expr = expr


# --- expression nodes ---------------------------------------------------


class Expr:
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: Any

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Const) and values_equal(self.value, other.value)

    def __hash__(self) -> int:
        return hash(("const", canonical(self.value)))


@dataclass(frozen=True)
class Attr(Expr):
    """Reference to an object attribute or event parameter by name."""

    name: str


@dataclass(frozen=True)
class Var(Expr):
    """Reference to a policy variable, written $name in the surface syntax."""

    name: str


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


TRUE = Const(True)
FALSE = Const(False)

BOOL_OPS = frozenset({"&&", "||"})
CMP_OPS = frozenset({"=", "!=", "<", ">", "<=", ">=", "in", "subset", "subseteq"})
SET_OPS = frozenset({"intersect", "union"})
ARITH_OPS = frozenset({"+", "-", "*", "/"})


def is_boolean_node(e: Expr) -> bool:
    """Whether the node's result kind is boolean by construction."""
    return isinstance(e, Not) or (isinstance(e, BinOp) and e.op in BOOL_OPS | CMP_OPS)


def variables_of(e: Expr) -> frozenset[str]:
    found: set[str] = set()

    def walk(x: Expr) -> None:
        if isinstance(x, Var):
            found.add(x.name)
        elif isinstance(x, Not):
            walk(x.operand)
        elif isinstance(x, BinOp):
            walk(x.left)
            walk(x.right)

    walk(e)
    return frozenset(found)


def attributes_of(e: Expr) -> frozenset[str]:
    found: set[str] = set()

    def walk(x: Expr) -> None:
        if isinstance(x, Attr):
            found.add(x.name)
        elif isinstance(x, Not):
            walk(x.operand)
        elif isinstance(x, BinOp):
            walk(x.left)
            walk(x.right)

    walk(e)
    return frozenset(found)


def constants_of(e: Expr) -> list[Any]:
    """Every constant in the tree, with set members flattened in as well."""
    found: list[Any] = []

    def add(v: Any) -> None:
        if not any(values_equal(v, f) for f in found):
            found.append(v)
        if isinstance(v, ValueSet):
            for m in v:
                add(m)

    def walk(x: Expr) -> None:
        if isinstance(x, Const):
            add(x.value)
        elif isinstance(x, Not):
            walk(x.operand)
        elif isinstance(x, BinOp):
            walk(x.left)
            walk(x.right)

    walk(e)
    return found


# --- lexer ---------------------------------------------------------------

Token = tuple[str, str, int, int]  # kind, text, line, col

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<var>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>&&|\|\||<=|>=|!=|->|[=<>!+\-*/(){},:])
    """,
    re.VERBOSE,
)

WORD_OPS = frozenset({"in", "subset", "subseteq", "intersect", "union"})


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        col = pos - line_start + 1
        kind = m.lastgroup
        piece = m.group()
        if kind == "ws":
            nl = piece.count("\n")
            if nl:
                line += nl
                line_start = pos + piece.rfind("\n") + 1
        elif kind == "comment":
            pass
        elif kind == "ident" and piece in WORD_OPS:
            tokens.append(("op", piece, line, col))
        else:
            tokens.append((kind, piece, line, col))
        pos = m.end()
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


class TokenCursor:
    """Shared scanner for predicates and policy files."""

    def __init__(self, tokens: Sequence[Token], reserved: frozenset[str] = frozenset()):
        self.tokens = tokens
        self.pos = 0
        self.reserved = reserved

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def at_op(self, *texts: str) -> bool:
        kind, text, _, _ = self.peek()
        return kind == "op" and text in texts

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2], tok[3])
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok[2], tok[3])


def parse_expression(cur: TokenCursor) -> Expr:
    return _parse_or(cur)


def _parse_or(cur: TokenCursor) -> Expr:
    left = _parse_and(cur)
    while cur.at_op("||"):
        cur.advance()
        left = BinOp("||", left, _parse_and(cur))
    return left


def _parse_and(cur: TokenCursor) -> Expr:
    left = _parse_cmp(cur)
    while cur.at_op("&&"):
        cur.advance()
        left = BinOp("&&", left, _parse_cmp(cur))
    return left


def _parse_cmp(cur: TokenCursor) -> Expr:
    left = _parse_setop(cur)
    while cur.at_op(*CMP_OPS):
        op = cur.advance()[1]
        left = BinOp(op, left, _parse_setop(cur))
    return left


def _parse_setop(cur: TokenCursor) -> Expr:
    left = _parse_add(cur)
    while cur.at_op(*SET_OPS):
        op = cur.advance()[1]
        left = BinOp(op, left, _parse_add(cur))
    return left


def _parse_add(cur: TokenCursor) -> Expr:
    left = _parse_mul(cur)
    while cur.at_op("+", "-"):
        op = cur.advance()[1]
        left = BinOp(op, left, _parse_mul(cur))
    return left


def _parse_mul(cur: TokenCursor) -> Expr:
    left = _parse_unary(cur)
    while cur.at_op("*", "/"):
        op = cur.advance()[1]
        left = BinOp(op, left, _parse_unary(cur))
    return left


def _parse_unary(cur: TokenCursor) -> Expr:
    if cur.at_op("!"):
        cur.advance()
        return Not(_parse_unary(cur))
    return _parse_primary(cur)


def _parse_primary(cur: TokenCursor) -> Expr:
    kind, text, line, col = cur.peek()
    if kind == "op" and text == "(":
        cur.advance()
        inner = parse_expression(cur)
        cur.expect("op", ")")
        return inner
    if kind == "op" and text == "{":
        return Const(_parse_set_literal(cur))
    if kind == "string":
        cur.advance()
        return Const(_unquote(text))
    if kind == "number":
        cur.advance()
        return Const(float(text) if "." in text else int(text))
    if kind == "var":
        cur.advance()
        return Var(text[1:])
    if kind == "ident":
        if text in cur.reserved:
            raise ParseError(f"{text!r} is reserved here", line, col)
        cur.advance()
        if text == "true":
            return TRUE
        if text == "false":
            return FALSE
        return Attr(text)
    raise ParseError(f"expected an expression, found {text or 'end of input'!r}", line, col)


def _parse_set_literal(cur: TokenCursor) -> ValueSet:
    cur.expect("op", "{")
    members: list[Any] = []
    if not cur.at_op("}"):
        while True:
            members.append(_parse_set_member(cur))
            if cur.at_op(","):
                cur.advance()
                continue
            break
    cur.expect("op", "}")
    return ValueSet(members)


def _parse_set_member(cur: TokenCursor) -> Any:
    kind, text, line, col = cur.peek()
    if kind == "op" and text == "-":
        # no binary operators inside a set literal, so a minus sign can only
        # introduce a negative number
        cur.advance()
        kind, text, line, col = cur.peek()
        if kind != "number":
            raise ParseError("expected a number after '-'", line, col)
        cur.advance()
        return -(float(text) if "." in text else int(text))
    if kind == "string":
        cur.advance()
        return _unquote(text)
    if kind == "number":
        cur.advance()
        return float(text) if "." in text else int(text)
    if kind == "ident":
        cur.advance()
        if text == "true":
            return True
        if text == "false":
            return False
        return text  # bare identifier reads as the string of the same spelling
    if kind == "op" and text == "{":
        return _parse_set_literal(cur)
    raise ParseError(f"expected a set member, found {text or 'end of input'!r}", line, col)


def parse_predicate(text: str) -> Expr:
    """Parse a standalone predicate string into an expression tree."""
    cur = TokenCursor(tokenize(text))
    expr = parse_expression(cur)
    cur.expect("eof")
    return expr


# --- printer -------------------------------------------------------------

_PREC = {"||": 1, "&&": 2}
_PREC.update({op: 3 for op in CMP_OPS})
_PREC.update({op: 4 for op in SET_OPS})
_PREC.update({"+": 5, "-": 5})
_PREC.update({"*": 6, "/": 6})
_UNARY_PREC = 7
_ATOM_PREC = 8

_BARE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _format_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if is_number(v):
        if v < 0:
            # the grammar has no unary minus; emit a parseable equivalent
            return "(0 - %s)" % _format_value(-v)
        if isinstance(v, float) and v.is_integer():
            return str(int(v))
        return repr(v)
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, ValueSet):
        return "{%s}" % ", ".join(_format_set_member(m) for m in v)
    raise TypeError(f"not a value: {v!r}")


def _format_set_member(v: Any) -> str:
    if isinstance(v, str) and _BARE_IDENT.match(v) and v not in {"true", "false"} and v not in WORD_OPS:
        return v
    if is_number(v) and v < 0:
        return "-" + _format_value(-v)
    return _format_value(v)


def _prec_of(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Not):
        return _UNARY_PREC
    return _ATOM_PREC


def format_expr(e: Expr) -> str:
    """Render an expression; parse_predicate(format_expr(e)) == e."""
    if isinstance(e, Const):
        return _format_value(e.value)
    if isinstance(e, Attr):
        return e.name
    if isinstance(e, Var):
        return "$" + e.name
    if isinstance(e, Not):
        inner = format_expr(e.operand)
        if _prec_of(e.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return "!" + inner
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        left = format_expr(e.left)
        if _prec_of(e.left) < prec:
            left = f"({left})"
        right = format_expr(e.right)
        if _prec_of(e.right) <= prec:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression: {e!r}")


# --- substitution --------------------------------------------------------

_MISSING = object()  # poison marker for unresolved attribute names


def substitute_attrs(e: Expr, ctx: Mapping[str, Any]) -> Expr:
    """Replace attribute/parameter references with constants from ctx.

    A name absent from ctx makes its innermost boolean-kind ancestor false
    (the rest of that ancestor is disregarded), so the result is always total:
    the match simply fails there, unless a surrounding disjunction rescues it.
    """

    def sub(x: Expr):
        if isinstance(x, Const) or isinstance(x, Var):
            return x
        if isinstance(x, Attr):
            if x.name in ctx:
                return Const(ctx[x.name])
            return _MISSING
        if isinstance(x, Not):
            inner = sub(x.operand)
            if inner is _MISSING:
                return FALSE
            return Not(inner)
        if isinstance(x, BinOp):
            left = sub(x.left)
            right = sub(x.right)
            if left is _MISSING or right is _MISSING:
                if x.op in BOOL_OPS or x.op in CMP_OPS:
                    return FALSE
                return _MISSING
            return BinOp(x.op, left, right)
        raise TypeError(f"not an expression: {x!r}")

    result = sub(e)
    return FALSE if result is _MISSING else result


def substitute_vars(e: Expr, bindings: Mapping[str, Any]) -> Expr:
    """Replace bound variables with constants; unbound ones stay in place."""
    if isinstance(e, Var):
        if e.name in bindings:
            return Const(bindings[e.name])
        return e
    if isinstance(e, Not):
        return Not(substitute_vars(e.operand, bindings))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute_vars(e.left, bindings), substitute_vars(e.right, bindings))
    return e


# --- constant folding ----------------------------------------------------


def _require_flag(v: Any, at: Expr) -> bool:
    if not isinstance(v, bool):
        raise PredicateTypeError("expected a boolean", at)
    return v


def _apply_op(op: str, a: Any, b: Any, at: Expr) -> Any:
    if op == "=":
        return values_equal(a, b)
    if op == "!=":
        return not values_equal(a, b)
    if op in ("<", ">", "<=", ">="):
        if not (is_number(a) and is_number(b)):
            raise PredicateTypeError("ordered comparison needs numbers", at)
        return {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}[op]
    if op == "in":
        if not isinstance(b, ValueSet):
            raise PredicateTypeError("right side of 'in' must be a set", at)
        return a in b
    if op in ("subset", "subseteq"):
        if not (isinstance(a, ValueSet) and isinstance(b, ValueSet)):
            raise PredicateTypeError(f"'{op}' needs sets", at)
        return a.ispropersubset(b) if op == "subset" else a.issubset(b)
    if op in ("intersect", "union"):
        if not (isinstance(a, ValueSet) and isinstance(b, ValueSet)):
            raise PredicateTypeError(f"'{op}' needs sets", at)
        return a.intersect(b) if op == "intersect" else a.union(b)
    if op in ("+", "-", "*", "/"):
        if not (is_number(a) and is_number(b)):
            raise PredicateTypeError("arithmetic needs numbers", at)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if b == 0:
            raise PredicateTypeError("division by zero", at)
        return a / b
    raise AssertionError(f"unknown operator {op!r}")


def fold_constants(e: Expr) -> Expr:
    """Evaluate every fully-constant subtree; && and || short-circuit."""
    if isinstance(e, (Const, Attr, Var)):
        return e
    if isinstance(e, Not):
        inner = fold_constants(e.operand)
        if isinstance(inner, Const):
            return Const(not _require_flag(inner.value, e))
        return Not(inner)
    if isinstance(e, BinOp) and e.op in BOOL_OPS:
        left = fold_constants(e.left)
        if isinstance(left, Const):
            lv = _require_flag(left.value, e)
            if e.op == "&&" and not lv:
                return FALSE
            if e.op == "||" and lv:
                return TRUE
            right = fold_constants(e.right)
            if isinstance(right, Const):
                _require_flag(right.value, e)
            return right
        right = fold_constants(e.right)
        if isinstance(right, Const):
            rv = _require_flag(right.value, e)
            if e.op == "&&":
                return left if rv else FALSE
            return TRUE if rv else left
        return BinOp(e.op, left, right)
    if isinstance(e, BinOp):
        left = fold_constants(e.left)
        right = fold_constants(e.right)
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(_apply_op(e.op, left.value, right.value, e))
        return BinOp(e.op, left, right)
    raise TypeError(f"not an expression: {e!r}")


def evaluate(e: Expr, ctx: Mapping[str, Any], bindings: Mapping[str, Any]) -> Expr:
    """Substitute both maps and fold; the workhorse behind satisfy()."""
    return fold_constants(substitute_vars(substitute_attrs(e, ctx), bindings))


# --- variable conditions -------------------------------------------------


@dataclass(frozen=True)
class Conditions:
    """Partial variable bindings plus a residual condition on the rest.

    The residual may mention variables absent from the bindings; a match is
    viable while the residual has not folded to the constant false.
    """

    bindings: Mapping[str, Any] = field(default_factory=dict)
    residual: Expr = TRUE

    @property
    def is_false(self) -> bool:
        return self.residual is FALSE or self.residual == FALSE

    @property
    def is_true(self) -> bool:
        return self.residual is TRUE or self.residual == TRUE

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Conditions):
            return NotImplemented
        return self.residual == other.residual and bindings_equal(self.bindings, other.bindings)


def bindings_equal(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    return a.keys() == b.keys() and all(values_equal(a[k], b[k]) for k in a)


BOTTOM = Conditions({}, FALSE)


def satisfy(pred: Expr, ctx: Mapping[str, Any], bindings: Mapping[str, Any]) -> Conditions:
    """Check one predicate against one context under partial bindings.

    Returns the bindings unchanged together with the folded residual; binding
    discovery is merge/reduce territory, not this function's.
    """
    return Conditions(dict(bindings), evaluate(pred, ctx, bindings))


def extract_bindings(cond: Expr) -> tuple[dict[str, Any], Expr]:
    """Harvest variable equalities forced by top-level conjuncts.

    Only conjuncts of shape $v = const or const = $v count; anything beneath
    a disjunction or negation is contingent and stays untouched.  Two
    conjuncts forcing one variable to different values are a contradiction:
    ({}, false).  The harvested conjuncts are replaced by true and the
    remainder folded.
    """
    conjuncts: list[Expr] = []

    def flatten(x: Expr) -> None:
        if isinstance(x, BinOp) and x.op == "&&":
            flatten(x.left)
            flatten(x.right)
        else:
            conjuncts.append(x)

    flatten(cond)
    bound: dict[str, Any] = {}
    rest: list[Expr] = []
    for c in conjuncts:
        pair = _as_binding(c)
        if pair is None:
            rest.append(c)
            continue
        name, value = pair
        if name in bound and not values_equal(bound[name], value):
            return {}, FALSE
        bound[name] = value
    remainder: Expr = TRUE
    for c in rest:
        remainder = c if remainder == TRUE else BinOp("&&", remainder, c)
    return bound, fold_constants(remainder)


def _as_binding(c: Expr) -> Optional[tuple[str, Any]]:
    if isinstance(c, BinOp) and c.op == "=":
        if isinstance(c.left, Var) and isinstance(c.right, Const):
            return c.left.name, c.right.value
        if isinstance(c.right, Var) and isinstance(c.left, Const):
            return c.right.name, c.left.value
    return None


def reduce_conditions(c: Conditions) -> Conditions:
    """Propagate bindings through the residual until nothing new is forced.

    Each round substitutes the known bindings, folds, and harvests newly
    forced equalities; the binding set grows strictly, so this terminates.
    """
    bindings = dict(c.bindings)
    residual = c.residual
    while True:
        residual = fold_constants(substitute_vars(residual, bindings))
        newly, residual = extract_bindings(residual)
        if not newly:
            return Conditions(bindings, residual)
        bindings.update(newly)


def merge_conditions(conds: Sequence[Conditions]) -> Conditions:
    """Left fold of pairwise merging; order never affects satisfiability.

    A shared variable bound to different values on the two sides is an
    immediate contradiction.  Otherwise bindings union, residuals conjoin,
    and the result is reduced.
    """
    if not conds:
        raise ValueError("merge_conditions needs at least one operand")
    acc = conds[0]
    for c in conds[1:]:
        acc = _merge_pair(acc, c)
    return acc


def _merge_pair(a: Conditions, b: Conditions) -> Conditions:
    for name in a.bindings.keys() & b.bindings.keys():
        if not values_equal(a.bindings[name], b.bindings[name]):
            return BOTTOM
    bindings = dict(a.bindings)
    bindings.update(b.bindings)
    if a.is_true:
        if b.is_true:
            return Conditions(bindings, TRUE)  # what reducing would give
        residual = b.residual
    elif b.is_true:
        residual = a.residual
    else:
        residual = BinOp("&&", a.residual, b.residual)
    return reduce_conditions(Conditions(bindings, residual))


def absorb(bindings: dict[str, Any], captures: Sequence[tuple[str, Any]]) -> bool:
    """Add one predicate's captures to settled bindings, in place.

    This is what reduce_conditions does with them: a variable already bound
    keeps its value, and a capture that differs from it is a contradiction;
    among new variables the last capture wins, and two different ones
    contradict.  Returns False on a contradiction.
    """
    found: dict[str, Any] = {}
    for name, value in captures:
        if name in bindings:
            if not values_equal(bindings[name], value):
                return False
        elif name in found and not values_equal(found[name], value):
            return False
        else:
            found[name] = value
    bindings.update(found)
    return True


def bind_captures(conds: Conditions, groups: Sequence[Sequence[tuple[str, Any]]]) -> Conditions:
    """merge_conditions of settled conditions with one satisfy() result per
    group of captures, without building the residual trees: BOTTOM on a
    contradiction."""
    bindings = dict(conds.bindings)
    for captures in groups:
        if not absorb(bindings, captures):
            return BOTTOM
    return Conditions(bindings, TRUE)


# --- compiled form -------------------------------------------------------
#
# The interpreter above rebuilds and refolds a tree for every context, and
# matching applies the same few predicates to thousands of contexts.  So each
# predicate is also compiled, once per policy (see PatternGraph), into
# closures.  A compiled form answers only where it is sure to agree with the
# interpreter.  On anything else (an unbound variable, an operand of the
# wrong kind, a variable the domain does not capture outright) it raises
# Fallback, and the caller asks the interpreter, which stays the reference:
# it gives the reference answer, or raises the reference error.


class Fallback(Exception):
    """A compiled predicate met a case that only the interpreter settles."""


_ABSENT = object()  # stands for a name missing from a context or from bindings
_NO_BINDINGS: Mapping[str, Any] = {}
_NUMBER_CLASSES = frozenset({int, float})
_ORDERINGS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _loose_attrs(e: Expr) -> frozenset[str]:
    """Attributes whose absence reaches the innermost boolean ancestor of e:
    those not beneath a boolean node inside e (see substitute_attrs)."""
    if isinstance(e, Attr):
        return frozenset({e.name})
    if isinstance(e, BinOp) and not is_boolean_node(e):
        return _loose_attrs(e.left) | _loose_attrs(e.right)
    return frozenset()


def _guard_names(e: Expr) -> frozenset[str]:
    """For a boolean node: the attributes whose absence makes it false."""
    if isinstance(e, Not):
        return _loose_attrs(e.operand)
    return _loose_attrs(e.left) | _loose_attrs(e.right)


def compile_ground(e: Expr) -> Callable[[Mapping[str, Any], Mapping[str, Any]], Any]:
    """A closure (ctx, bindings) -> the value evaluate(e, ctx, bindings)
    folds to.  It raises Fallback where that is not a constant, or where
    folding raises PredicateTypeError."""
    fn = _compile(e)
    names = _loose_attrs(e)
    if not names:
        return fn

    def root(ctx, bindings):
        for name in names:
            if name not in ctx:
                return False  # substitute_attrs turns a missing root into false
        return fn(ctx, bindings)

    return root


def _compile(e: Expr) -> Callable[[Mapping[str, Any], Mapping[str, Any]], Any]:
    """e's closure, given that its loose attributes are present in ctx.
    Boolean nodes check their own guard names."""
    if isinstance(e, Const):
        value = e.value
        return lambda ctx, bindings: value
    if isinstance(e, Attr):
        name = e.name
        return lambda ctx, bindings: ctx[name]
    if isinstance(e, Var):
        name = e.name

        def var(ctx, bindings):
            value = bindings.get(name, _ABSENT)
            if value is _ABSENT:
                raise Fallback
            return value

        return var
    fn = _compile_node(e)
    names = tuple(sorted(_guard_names(e))) if is_boolean_node(e) else ()
    if not names:
        return fn

    def guarded(ctx, bindings):
        for name in names:
            if name not in ctx:
                return False
        return fn(ctx, bindings)

    return guarded


def _flag(value: Any) -> bool:
    if value is True or value is False:
        return value
    raise Fallback


def _compile_node(e: Expr) -> Callable[[Mapping[str, Any], Mapping[str, Any]], Any]:
    if isinstance(e, Not):
        operand = _compile(e.operand)
        return lambda ctx, bindings: not _flag(operand(ctx, bindings))
    left, right = _compile(e.left), _compile(e.right)
    op = e.op
    if op == "&&":
        def both(ctx, bindings):
            if not _flag(left(ctx, bindings)):
                return False
            return _flag(right(ctx, bindings))

        return both
    if op == "||":
        def either(ctx, bindings):
            if _flag(left(ctx, bindings)):
                return True
            return _flag(right(ctx, bindings))

        return either
    if op in ("=", "!="):
        negate = op == "!="
        return lambda ctx, bindings: values_equal(left(ctx, bindings), right(ctx, bindings)) != negate
    if op in ("<", ">", "<=", ">="):
        compare = _ORDERINGS[op]

        def ordered(ctx, bindings):
            a, b = left(ctx, bindings), right(ctx, bindings)
            if a.__class__ in _NUMBER_CLASSES and b.__class__ in _NUMBER_CLASSES:
                return compare(a, b)
            raise Fallback

        return ordered

    def apply(ctx, bindings):
        try:
            return _apply_op(op, left(ctx, bindings), right(ctx, bindings), e)
        except PredicateTypeError:
            raise Fallback from None

    return apply


def _always_flag(e: Expr) -> bool:
    """Whether a variable-free e always evaluates to a flag, never raising."""
    if isinstance(e, Const):
        return isinstance(e.value, bool)
    if isinstance(e, Not):
        return _always_flag(e.operand)
    if isinstance(e, BinOp):
        if e.op in BOOL_OPS:
            return _always_flag(e.left) and _always_flag(e.right)
        if e.op in ("=", "!="):
            return _never_raises(e.left) and _never_raises(e.right)
        if e.op == "in":
            return _never_raises(e.left) and isinstance(e.right, Const) and isinstance(e.right.value, ValueSet)
    return False


def _never_raises(e: Expr) -> bool:
    """Whether evaluating a variable-free e can never raise."""
    return isinstance(e, (Const, Attr)) or _always_flag(e)


def _capture_of(e: Expr) -> Optional[tuple[str, str]]:
    """(variable, attribute) for `attr = $X` or `$X = attr`."""
    if isinstance(e, BinOp) and e.op == "=":
        if isinstance(e.left, Var) and isinstance(e.right, Attr):
            return e.left.name, e.right.name
        if isinstance(e.right, Var) and isinstance(e.left, Attr):
            return e.right.name, e.left.name
    return None


_TEST, _CAPTURE, _REQUIRE, _OPEN = range(4)


class BindingPlan:
    """A domain predicate compiled for candidate filtering, with no bindings.

    The top-level conjuncts become steps, in their order.  A variable-free
    conjunct is a test.  `attr = $X` (or `$X = attr`) captures the
    attribute's value for $X.  A conjunct with a variable in any other shape
    (under || or !, say) is left to the interpreter: reaching it raises
    Fallback.  Where an absent attribute falsifies a conjunction, a step
    checks for it at the place substitute_attrs would put the false.

    Calling the plan on a context gives None where satisfy(e, ctx, {})
    folds to false.  Otherwise it gives the captures that reduce_conditions
    would harvest from what satisfy() leaves, in order and not yet checked
    against each other (see absorb).  `may_raise` tells whether a call can
    raise Fallback at all.
    """

    __slots__ = ("steps", "may_raise")

    def __init__(self, e: Expr):
        self.steps: list[tuple[int, Any, Any]] = []
        self.may_raise = False
        if not is_boolean_node(e):
            self._require(_loose_attrs(e))
        self._add(e)

    def _require(self, names: frozenset[str]) -> None:
        if names:
            self.steps.append((_REQUIRE, tuple(sorted(names)), None))

    def _add(self, e: Expr) -> None:
        if isinstance(e, BinOp) and e.op == "&&":
            self._require(_guard_names(e))
            self._add(e.left)
            self._add(e.right)
            return
        if not variables_of(e):
            self.steps.append((_TEST, _compile(e), None))
            self.may_raise |= not _always_flag(e)
            return
        capture = _capture_of(e)
        if capture is None:
            self.steps.append((_OPEN, None, None))
            self.may_raise = True
        else:
            self.steps.append((_CAPTURE, *capture))

    def __call__(self, ctx: Mapping[str, Any]) -> Optional[list[tuple[str, Any]]]:
        captures = []
        for kind, a, b in self.steps:
            if kind == _TEST:
                value = a(ctx, _NO_BINDINGS)
                if value is not True:
                    if value is False:
                        return None
                    raise Fallback
            elif kind == _CAPTURE:
                value = ctx.get(b, _ABSENT)
                if value is _ABSENT:
                    return None  # substitute_attrs makes the equality false
                captures.append((a, value))
            elif kind == _REQUIRE:
                for name in a:
                    if name not in ctx:
                        return None
            else:
                raise Fallback
        return captures
