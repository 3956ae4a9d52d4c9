"""Predicate expressions over object attributes, event parameters, and variables.

An expression is a small immutable tree: Const / Attr / Var leaves, a unary
Not, and BinOp for everything else.  The same surface grammar serves
standalone predicates and the inline predicates of policy files:

    expr    := unary (binop unary)*
    binop   := "||" | "&&" | "=" | "!=" | "<" | ">" | "<=" | ">=" | "in" | "subset"
             | "subseteq" | "intersect" | "union" | "+" | "-" | "*" | "/"
    unary   := "!" unary | primary
    primary := "(" expr ")" | STRING | NUMBER | "true" | "false"
             | IDENT | "$" IDENT | "{" members "}"

Binary operators bind by the levels of _LEVELS, loosest first: `||`, then
`&&`, then the comparisons (`=` to `subseteq`), `intersect union`, `+ -`
and `* /`.  All associate to the left; `!` binds tightest.  A `#` comment
runs to the end of the line.

Bare identifiers name attributes (on nodes) or event parameters (on edges).
Inside {...} set literals a bare identifier is shorthand for the string of the
same spelling.  Parentheses are surface syntax only; the parser drops them and
the printer re-derives them from precedence.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from .values import Distinct, ValueSet, canonical, is_number, maps_equal, values_equal


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
        self.reason = message
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


def is_boolean_node(e: Expr) -> bool:
    """Whether the node's result kind is boolean by construction."""
    return isinstance(e, Not) or (isinstance(e, BinOp) and e.op in BOOL_OPS | CMP_OPS)


def _subtrees(e: Expr) -> Iterator[Expr]:
    """Every node of e in pre-order, left to right, without recursion."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, BinOp):
            stack.append(x.right)
            stack.append(x.left)
        elif isinstance(x, Not):
            stack.append(x.operand)


def _spine(e: Expr) -> Iterator[Expr]:
    """The && nodes and the conjuncts of e's top-level conjunction, in
    pre-order, left to right, without recursion."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        if _is_and(x):
            stack.append(x.right)
            stack.append(x.left)


def _chain(e: BinOp) -> tuple[Expr, list[BinOp]]:
    """The left-nested chain of e's operator, `((o0 op o1) op o2) ... op
    oK`: its innermost operand o0 and its links, innermost first, so that
    links[i] holds operand i + 1 as its right.  Walks that take the links
    in a loop handle a chain of any width without recursion."""
    op, links = e.op, []
    while isinstance(e, BinOp) and e.op == op:
        links.append(e)
        e = e.left
    links.reverse()
    return e, links


def _is_and(e: Expr) -> bool:
    return isinstance(e, BinOp) and e.op == "&&"


def variables_of(e: Expr) -> frozenset[str]:
    return frozenset(x.name for x in _subtrees(e) if isinstance(x, Var))


def attributes_of(e: Expr) -> frozenset[str]:
    return frozenset(x.name for x in _subtrees(e) if isinstance(x, Attr))


def constants_of(e: Expr) -> list[Any]:
    """Every constant in the tree, with set members flattened in as well:
    one of each group of equal values, in first-seen order."""
    found = Distinct()

    def add(v: Any) -> None:
        found.add(v)
        if isinstance(v, ValueSet):
            for m in v:
                add(m)

    for x in _subtrees(e):
        if isinstance(x, Const):
            add(x.value)
    return found.values


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


# The binary operators by binding strength, loosest first; all associate to
# the left.  The parser and the printer both read this table.
_LEVELS = (frozenset({"||"}), frozenset({"&&"}), CMP_OPS, SET_OPS, frozenset({"+", "-"}), frozenset({"*", "/"}))


def parse_expression(cur: TokenCursor) -> Expr:
    return _parse_level(cur, 0)


def _parse_level(cur: TokenCursor, level: int) -> Expr:
    """A left-associative chain of _LEVELS[level] operators over operands of
    the next tighter level; past the last level, a unary expression."""
    if level == len(_LEVELS):
        return _parse_unary(cur)
    ops = _LEVELS[level]
    left = _parse_level(cur, level + 1)
    while cur.at_op(*ops):
        op = cur.advance()[1]
        left = BinOp(op, left, _parse_level(cur, level + 1))
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
        return Const(_number(text))
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


def _number(text: str) -> int | float:
    return float(text) if "." in text else int(text)


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
        return -_number(text)
    if kind == "string":
        cur.advance()
        return _unquote(text)
    if kind == "number":
        cur.advance()
        return _number(text)
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

_PREC = {op: strength for strength, ops in enumerate(_LEVELS, 1) for op in ops}
_UNARY_PREC = len(_LEVELS) + 1
_ATOM_PREC = len(_LEVELS) + 2

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
        text = repr(v)
        # the grammar has no exponents: 1e-05 prints as 0.00001
        return format(Decimal(text), "f") if "e" in text else text
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
        # a chain of one binding strength leans left, as the parser builds
        # it, and is walked down its left spine in a loop
        prec = _PREC[e.op]
        tail = []  # " op right" of each link, outermost first
        while isinstance(e, BinOp) and _PREC[e.op] == prec:
            right = format_expr(e.right)
            if _prec_of(e.right) <= prec:
                right = f"({right})"
            tail.append(f" {e.op} {right}")
            e = e.left
        left = format_expr(e)
        if _prec_of(e) < prec:
            left = f"({left})"
        return left + "".join(reversed(tail))
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
            first, links = _chain(x)
            done = sub(first)
            for link in links:
                right = sub(link.right)
                if done is _MISSING or right is _MISSING:
                    done = FALSE if is_boolean_node(link) else _MISSING
                else:
                    done = BinOp(link.op, done, right)
            return done
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
        first, links = _chain(e)
        done = substitute_vars(first, bindings)
        for link in links:
            done = BinOp(link.op, done, substitute_vars(link.right, bindings))
        return done
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
    if isinstance(e, BinOp):
        first, links = _chain(e)
        done = fold_constants(first)
        for link in links:
            done = _fold_link(link, done)
        return done
    raise TypeError(f"not an expression: {e!r}")


def _fold_link(e: BinOp, left: Expr) -> Expr:
    """e folded, given its left operand folded to `left`."""
    if e.op in BOOL_OPS:
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
    right = fold_constants(e.right)
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(_apply_op(e.op, left.value, right.value, e))
    return BinOp(e.op, left, right)


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
        return self.residual == other.residual and maps_equal(self.bindings, other.bindings)


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
    bound: dict[str, Any] = {}
    rest: list[Expr] = []
    for c in _spine(cond):
        if _is_and(c):
            continue
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


# --- compiled form -------------------------------------------------------
#
# The interpreter above rebuilds and refolds a tree for every context, and
# matching applies the same few predicates to thousands of contexts.  So each
# predicate is compiled, once per policy (see PatternGraph), into closures,
# and the engine runs those.  Under bindings for every variable a closure
# gives the value the interpreter folds to, or raises the error it raises,
# message included: the node that message shows is built only then.


_ABSENT = object()  # stands for a name missing from a context
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


def _type_error(reason: str, e: Expr, ctx: Mapping[str, Any], bindings: Mapping[str, Any]) -> PredicateTypeError:
    """The interpreter's error at e: the node it shows is e as folding meets
    it, with ctx and bindings substituted."""
    return PredicateTypeError(reason, substitute_vars(substitute_attrs(e, ctx), bindings))


def _apply_at(e: BinOp, a: Any, b: Any, ctx: Mapping[str, Any], bindings: Mapping[str, Any]) -> Any:
    """_apply_op at e, whose operands gave a and b, raising the interpreter's error."""
    try:
        return _apply_op(e.op, a, b, e)
    except PredicateTypeError as error:
        raise _type_error(error.reason, e, ctx, bindings) from None


def compile_ground(e: Expr) -> Callable[[Mapping[str, Any], Mapping[str, Any]], Any]:
    """A closure (ctx, bindings) -> the value evaluate(e, ctx, bindings)
    folds to; where folding raises PredicateTypeError, the closure raises
    it with the same message.  bindings must bind every variable of e: an
    unbound one that the closure reaches raises KeyError."""
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
        return lambda ctx, bindings: bindings[name]
    if isinstance(e, BinOp) and e.op in BOOL_OPS:
        return _compile_chain(e)
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


def _compile_chain(e: BinOp) -> Callable[[Mapping[str, Any], Mapping[str, Any]], Any]:
    """The closure of a left-nested chain of one connective, `((o0 op o1)
    op o2) ... op oK`, as one loop over its operands, so a chain of any
    width compiles and runs without recursion.  It gives what nested
    closures would: each link, outermost first, is false where one of its
    guard names is absent, and nothing inside that link is evaluated; an
    operand that is no boolean raises at the innermost link that holds it."""
    op = e.op
    e, links = _chain(e)
    first, steps = _compile(e), tuple((_compile(link.right), link) for link in links)
    # per link with guard names, outermost first: the steps after it
    guards = [(i + 1, tuple(sorted(names))) for i, link in enumerate(links) if (names := _guard_names(link))]
    guards.reverse()
    # && goes on to its right operand after true and stops at false,
    # || the other way round
    go_on, stop = op == "&&", op == "||"

    def chain(ctx, bindings):
        if guards and (after := _false_link(guards, ctx)):
            value, rest = False, steps[after:]
        else:
            value, rest = first(ctx, bindings), steps
        for right, link in rest:
            if value is go_on:
                value = right(ctx, bindings)
            elif value is stop:
                return stop
            if value is not True and value is not False:
                raise _type_error("expected a boolean", link, ctx, bindings)
        return value

    return chain


def _false_link(guards: list[tuple[int, tuple[str, ...]]], ctx: Mapping[str, Any]) -> int:
    """For a chain's guarded links, outermost first: the steps after the
    first link with a guard name absent from ctx, or 0 where there is none."""
    for after, names in guards:
        for name in names:
            if name not in ctx:
                return after
    return 0


def _compile_node(e: Expr) -> Callable[[Mapping[str, Any], Mapping[str, Any]], Any]:
    if isinstance(e, Not):
        operand = _compile(e.operand)

        def negate(ctx, bindings):
            value = operand(ctx, bindings)
            if value is True or value is False:
                return not value
            raise _type_error("expected a boolean", e, ctx, bindings)

        return negate
    left, right = _compile(e.left), _compile(e.right)
    op = e.op
    if op in ("=", "!="):
        negate = op == "!="
        return lambda ctx, bindings: values_equal(left(ctx, bindings), right(ctx, bindings)) != negate
    if op in ("<", ">", "<=", ">="):
        compare = _ORDERINGS[op]

        def ordered(ctx, bindings):
            a, b = left(ctx, bindings), right(ctx, bindings)
            if a.__class__ in _NUMBER_CLASSES and b.__class__ in _NUMBER_CLASSES:
                return compare(a, b)
            return _apply_at(e, a, b, ctx, bindings)

        return ordered
    return lambda ctx, bindings: _apply_at(e, left(ctx, bindings), right(ctx, bindings), ctx, bindings)


def _always_flag(e: Expr) -> bool:
    """Whether a variable-free e always evaluates to a flag, never raising."""
    pending = [e]  # subtrees that must always give a flag
    while pending:
        x = pending.pop()
        if isinstance(x, Not):
            pending.append(x.operand)
        elif isinstance(x, BinOp) and x.op in BOOL_OPS:
            pending += (x.left, x.right)
        elif isinstance(x, BinOp) and x.op in ("=", "!=", "in"):
            if x.op == "in" and not (isinstance(x.right, Const) and isinstance(x.right.value, ValueSet)):
                return False
            # an operand never raises when it is a leaf or always a flag
            pending += (y for y in (x.left, x.right) if not isinstance(y, (Const, Attr)))
        elif not (isinstance(x, Const) and isinstance(x.value, bool)):
            return False
    return True


def _never_raises(e: Expr) -> bool:
    """Whether evaluating a variable-free e can never raise."""
    return isinstance(e, (Const, Attr)) or _always_flag(e)


def _capture_of(e: Expr) -> Optional[tuple[str, Expr]]:
    """For `$X = other` with other variable-free, either way round (the
    equalities rule R1 accepts): the variable's name and other."""
    if isinstance(e, BinOp) and e.op == "=":
        for var, other in ((e.left, e.right), (e.right, e.left)):
            if isinstance(var, Var) and not variables_of(other):
                return var.name, other
    return None


def _constant_equality(e: Expr) -> Optional[tuple[str, Any]]:
    """For `attr = c` with c a constant, either way round: the attribute's
    name and c's value."""
    if isinstance(e, BinOp) and e.op == "=":
        for attr, const in ((e.left, e.right), (e.right, e.left)):
            if isinstance(attr, Attr) and isinstance(const, Const):
                return attr.name, const.value
    return None


_EQUAL, _TEST, _CAPTURE, _BIND, _COMPUTE, _REQUIRE = range(6)


class BindingPlan:
    """A domain predicate split for bind-then-filter matching.

    Its top-level conjuncts, in order: `true` is no step at all; any other
    variable-free conjunct is a test, and one of the form `attr = c` with c
    a constant, either way round, is an equality step, which compares the
    attribute's value (None where it is absent) with c by values_equal in
    place and never raises; `$X = e` with e variable-free, either way
    round, is a capture, and e's value (read or computed) binds $X; any
    other conjunct with a variable is a filter, which the matcher runs, as
    `(expr, variables, compile_ground(expr))` from `filters`, once its
    variables are bound.
    Where an absent attribute falsifies a conjunction or a filter whatever
    the bindings, a step checks for it where substitute_attrs puts the false.

    `captured` holds the variables the captures bind.  Rule R1 asks each
    variable to be one of them in some domain predicate; validation and
    matching both read it here.

    Called on a context, the plan gives None where its steps are false
    there, or else its captures as (variable, value) pairs, in order and
    not yet checked against each other.  Where a test or a computed capture
    raises, or a test gives no boolean, the interpreter judges the whole
    predicate, as satisfy() would: a conjunct that keeps a variable may
    fold to false before the step is reached.  So the plan raises the error
    the interpreter reports, or else gives None.  `may_raise` tells whether
    a call can raise at all.  The result depends on the context alone, and
    a plan with no steps always gives [], so the matcher judges a node's
    plan once per snapshot and does not call a plan without steps (see
    matching.edge_candidate).
    """

    __slots__ = ("pred", "steps", "filters", "may_raise", "captured")

    def __init__(self, e: Expr):
        self.pred = e
        self.steps: list[tuple[int, Any, Any]] = []
        self.filters: list[tuple[Expr, frozenset[str], Callable[[Mapping[str, Any], Mapping[str, Any]], Any]]] = []
        self.may_raise = False
        if not is_boolean_node(e):
            self._require(_loose_attrs(e))
        for x in _spine(e):
            if _is_and(x):
                self._require(_guard_names(x))
            else:
                self._add_conjunct(x)
        self.captured = frozenset(var for kind, var, _ in self.steps if kind in (_CAPTURE, _BIND, _COMPUTE))

    def _require(self, names: frozenset[str]) -> None:
        if names:
            self.steps.append((_REQUIRE, tuple(sorted(names)), None))

    def _add_conjunct(self, e: Expr) -> None:
        if e == TRUE:
            return  # a step that always passes
        variables = variables_of(e)
        if not variables:
            equality = _constant_equality(e)
            if equality is not None:
                self.steps.append((_EQUAL, *equality))
                return
            self.steps.append((_TEST, _compile(e), None))
            self.may_raise |= not _always_flag(e)
            return
        capture = _capture_of(e)
        if capture is None:
            if is_boolean_node(e):
                self._require(_guard_names(e))
            self.filters.append((e, variables, compile_ground(e)))
            return
        var, other = capture
        if isinstance(other, Attr):
            self.steps.append((_CAPTURE, var, other.name))
        elif isinstance(other, Const):
            self.steps.append((_BIND, var, other.value))
        else:
            self._require(_guard_names(e))
            self.steps.append((_COMPUTE, var, _compile(other)))
            self.may_raise |= not _never_raises(other)

    def __call__(self, ctx: Mapping[str, Any]) -> Optional[list[tuple[str, Any]]]:
        captures = []
        try:
            for kind, a, b in self.steps:
                if kind == _EQUAL:
                    if not values_equal(ctx.get(a), b):
                        return None
                elif kind == _TEST:
                    value = a(ctx, _NO_BINDINGS)
                    if value is not True:
                        if value is False:
                            return None
                        break  # no boolean: judged below
                elif kind == _CAPTURE:
                    value = ctx.get(b, _ABSENT)
                    if value is _ABSENT:
                        return None  # substitute_attrs makes the equality false
                    captures.append((a, value))
                elif kind == _BIND:
                    captures.append((a, b))
                elif kind == _COMPUTE:
                    captures.append((a, b(ctx, _NO_BINDINGS)))
                else:
                    for name in a:
                        if name not in ctx:
                            return None
            else:
                return captures
        except PredicateTypeError:
            pass
        # the interpreter raises the error it reports; short of one, the
        # predicate is false here or has a value that is no boolean
        evaluate(self.pred, ctx, _NO_BINDINGS)
        return None
