"""A small script language over the kernel, with a recursive-descent parser.

Grammar (statements end with ';', comments run from '#' to end of line):

    script     := statement*
    statement  := 'ring' NAME '=' expr ';'
                | 'ideal' NAME '=' expr ('in' NAME)? ';'
                | 'print' expr ';'
    expr       := term ('+' term)*
    term       := factor ('*' factor)*
    factor     := atom ('^' INT)?
    atom       := INT | NAME | NAME '(' args ')' | '(' exprs ')' | '[' exprs ']'

A parenthesized list with several entries is an ideal literal; with one
entry it is grouping (a single monomial coerces to its principal ideal
where an ideal is expected).  Bracket lists give rings ('ring A = [x, y];')
and ideal lists for the filtration checks.  Bare names resolve to bound
identifiers first, then to variables of the statement's ring ('in R' if
given, otherwise the most recently declared ring).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from . import binomial as _binomial
from . import core as _core
from . import decomposition as _decomposition
from . import homology as _homology
from . import powers as _powers
from .core import Monomial, MonomialIdeal, MonomialPrime, Ring


class ParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class EvalError(ValueError):
    def __init__(self, message, pos):
        line, column = pos
        super().__init__(f"{line}:{column}: {message}")
        self.pos = pos


KEYWORDS = {"ring", "ideal", "print", "in"}
# Work budget: the deepest expression accepted, counting each '+'/'*' link, '^',
# call, parenthesis and bracket on a path; keeps the recursion off the stack limit.
MAX_DEPTH = 100
PUNCT = {"(", ")", "[", "]", ",", ";", "+", "*", "^", "="}


@dataclass(frozen=True)
class Token:
    kind: str  # 'name', 'int', 'punct', 'eof'
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
        elif ch in " \t\r":
            column += 1
            i += 1
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch.isdecimal():
            start = i
            while i < len(text) and text[i].isdecimal():
                i += 1
            tokens.append(Token("int", text[start:i], line, column))
            column += i - start
        elif ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("name", text[start:i], line, column))
            column += i - start
        elif ch in PUNCT:
            tokens.append(Token("punct", ch, line, column))
            column += 1
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("eof", "", line, column))
    return tokens


# AST nodes; `pos` is excluded from equality so round-trips compare clean.


@dataclass(frozen=True)
class Name:
    text: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class IntLit:
    value: int
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class AddOp:
    left: object
    right: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class MulOp:
    left: object
    right: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class PowOp:
    base: object
    exponent: int
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class CallOp:
    function: str
    args: tuple
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class IdealLit:
    entries: tuple
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class BracketList:
    entries: tuple
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class RingDecl:
    name: str
    value: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class IdealDecl:
    name: str
    value: object
    ring_name: str | None
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class PrintStmt:
    value: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Script:
    statements: tuple


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        self.level = 0
        self.depth = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def _fail(self, message):
        tok = self.current
        shown = tok.text or "end of input"
        raise ParseError(f"{message} (got {shown!r})", tok.line, tok.column)

    def _advance(self) -> Token:
        tok = self.current
        self.index += 1
        return tok

    def _expect_punct(self, text) -> Token:
        if self.current.kind != "punct" or self.current.text != text:
            self._fail(f"expected {text!r}")
        return self._advance()

    def _expect_name(self) -> Token:
        if self.current.kind != "name":
            self._fail("expected a name")
        return self._advance()

    def _at_punct(self, text) -> bool:
        return self.current.kind == "punct" and self.current.text == text

    def parse_script(self) -> Script:
        statements = []
        while self.current.kind != "eof":
            statements.append(self.parse_statement())
        return Script(tuple(statements))

    def parse_statement(self):
        tok = self.current
        if tok.kind == "name" and tok.text == "ring":
            self._advance()
            name = self._expect_name()
            self._expect_punct("=")
            value = self.parse_expr()
            self._expect_punct(";")
            return RingDecl(name.text, value, (tok.line, tok.column))
        if tok.kind == "name" and tok.text == "ideal":
            self._advance()
            name = self._expect_name()
            self._expect_punct("=")
            value = self.parse_expr()
            ring_name = None
            if self.current.kind == "name" and self.current.text == "in":
                self._advance()
                ring_name = self._expect_name().text
            self._expect_punct(";")
            return IdealDecl(name.text, value, ring_name, (tok.line, tok.column))
        if tok.kind == "name" and tok.text == "print":
            self._advance()
            value = self.parse_expr()
            self._expect_punct(";")
            return PrintStmt(value, (tok.line, tok.column))
        self._fail("expected 'ring', 'ideal' or 'print'")

    # parse_* leave the depth of the node they return in ``self.depth``;
    # ``self.level`` counts the calls, parentheses and brackets around it.

    def _deeper(self, tok, depth: int, other: int = 0):
        """Set ``self.depth`` one over the larger depth; past MAX_DEPTH, fail at ``tok``."""
        self.depth = (depth if depth > other else other) + 1
        if self.level + self.depth > MAX_DEPTH:
            message = f"expression nested deeper than {MAX_DEPTH} levels"
            raise ParseError(message, tok.line, tok.column)

    def parse_expr(self):
        node = self.parse_term()
        while self._at_punct("+"):
            tok = self._advance()
            depth = self.depth
            right = self.parse_term()
            self._deeper(tok, depth, self.depth)
            node = AddOp(node, right, (tok.line, tok.column))
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self._at_punct("*"):
            tok = self._advance()
            depth = self.depth
            right = self.parse_factor()
            self._deeper(tok, depth, self.depth)
            node = MulOp(node, right, (tok.line, tok.column))
        return node

    def parse_factor(self):
        node = self.parse_atom()
        if self._at_punct("^"):
            tok = self._advance()
            if self.current.kind != "int":
                self._fail("expected an integer exponent")
            exponent = int(self._advance().text)
            self._deeper(tok, self.depth)
            node = PowOp(node, exponent, (tok.line, tok.column))
        return node

    def _parse_entries(self, tok, close, allow_empty=False):
        """Comma-separated expressions up to ``close``, one level below ``tok``."""
        self._deeper(tok, 0)
        self.level += 1
        entries, depth = [], 0
        if not (allow_empty and self._at_punct(close)):
            entries.append(self.parse_expr())
            depth = self.depth
            while self._at_punct(","):
                self._advance()
                entries.append(self.parse_expr())
                depth = max(depth, self.depth)
        self._expect_punct(close)
        self.level -= 1
        self._deeper(tok, depth)
        return tuple(entries)

    def parse_atom(self):
        tok = self.current
        pos = (tok.line, tok.column)
        if tok.kind == "int":
            self._advance()
            self.depth = 0
            return IntLit(int(tok.text), pos)
        if tok.kind == "name":
            if tok.text in KEYWORDS:
                self._fail(f"keyword {tok.text!r} cannot start an expression")
            self._advance()
            if self._at_punct("("):
                self._advance()
                return CallOp(tok.text, self._parse_entries(tok, ")", True), pos)
            self.depth = 0
            return Name(tok.text, pos)
        if self._at_punct("("):
            self._advance()
            entries = self._parse_entries(tok, ")")
            return entries[0] if len(entries) == 1 else IdealLit(entries, pos)
        if self._at_punct("["):
            self._advance()
            return BracketList(self._parse_entries(tok, "]"), pos)
        self._fail("expected an expression")


def parse(text: str) -> Script:
    return Parser(tokenize(text)).parse_script()


_PRECEDENCE = {AddOp: 1, MulOp: 2, PowOp: 3}


def _unparse_expr(node, parent_prec=0, right_side=False):
    if isinstance(node, Name):
        return node.text
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, IdealLit):
        return "(" + ", ".join(_unparse_expr(e) for e in node.entries) + ")"
    if isinstance(node, BracketList):
        return "[" + ", ".join(_unparse_expr(e) for e in node.entries) + "]"
    if isinstance(node, CallOp):
        return node.function + "(" + ", ".join(_unparse_expr(a) for a in node.args) + ")"
    if isinstance(node, (AddOp, MulOp)):
        prec = _PRECEDENCE[type(node)]
        op = "+" if isinstance(node, AddOp) else "*"
        text = (
            _unparse_expr(node.left, prec, False)
            + f" {op} "
            + _unparse_expr(node.right, prec, True)
        )
        if prec < parent_prec or (prec == parent_prec and right_side):
            return "(" + text + ")"
        return text
    if isinstance(node, PowOp):
        base = _unparse_expr(node.base, _PRECEDENCE[PowOp], False)
        return f"{base}^{node.exponent}"
    raise TypeError(f"cannot unparse {node!r}")


def unparse(node) -> str:
    if isinstance(node, Script):
        return "\n".join(unparse(s) for s in node.statements)
    if isinstance(node, RingDecl):
        return f"ring {node.name} = {_unparse_expr(node.value)};"
    if isinstance(node, IdealDecl):
        tail = f" in {node.ring_name}" if node.ring_name else ""
        return f"ideal {node.name} = {_unparse_expr(node.value)}{tail};"
    if isinstance(node, PrintStmt):
        return f"print {_unparse_expr(node.value)};"
    return _unparse_expr(node)


def render_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, frozenset):
        items = sorted(value, key=MonomialPrime.sort_key)
        return "{" + ", ".join(str(p) for p in items) + "}"
    if isinstance(value, tuple) and value and all(
        isinstance(c, _decomposition.IrreducibleComponent) for c in value
    ):
        return "{" + ", ".join(str(c) for c in value) + "}"
    return str(value)


class Evaluator:
    """Executes statements against an environment of named rings and ideals."""

    def __init__(self, char: int = 0):
        self.bindings: dict[str, object] = {}
        self.ambient: Ring | None = None
        self.char = char
        self.output: list[str] = []

    # result coercions

    def _eval(self, node, ctx: Ring | None):
        if isinstance(node, Name):
            if node.text in self.bindings:
                return self.bindings[node.text]
            if ctx is not None and node.text in ctx.variables:
                return ctx.variable(ctx.index_of(node.text))
            raise EvalError(f"unbound name {node.text!r}", node.pos)
        if isinstance(node, IntLit):
            return node.value
        if isinstance(node, IdealLit):
            entries = [self._eval(e, ctx) for e in node.entries]
            return self._literal_ideal(entries, node.pos, ctx)
        if isinstance(node, BracketList):
            return tuple(self._eval(e, ctx) for e in node.entries)
        if isinstance(node, AddOp):
            left = self._as_ideal(self._eval(node.left, ctx), node.pos, ctx)
            right = self._as_ideal(self._eval(node.right, ctx), node.pos, ctx)
            return self._wrap(_core.ideal_sum, node.pos, left, right)
        if isinstance(node, MulOp):
            left = self._eval(node.left, ctx)
            right = self._eval(node.right, ctx)
            if isinstance(left, Monomial) and isinstance(right, Monomial):
                return self._wrap(Monomial.__mul__, node.pos, left, right)
            return self._wrap(
                _core.ideal_product,
                node.pos,
                self._as_ideal(left, node.pos, ctx),
                self._as_ideal(right, node.pos, ctx),
            )
        if isinstance(node, PowOp):
            base = self._eval(node.base, ctx)
            if isinstance(base, Monomial):
                return base.power(node.exponent)
            return self._wrap(
                _core.ideal_power,
                node.pos,
                self._as_ideal(base, node.pos, ctx),
                node.exponent,
            )
        if isinstance(node, CallOp):
            return self._call(node, ctx)
        raise EvalError(f"cannot evaluate {node!r}", getattr(node, "pos", (0, 0)))

    def _wrap(self, fn, pos, *args):
        try:
            return fn(*args)
        except (_core.RingMismatchError, _core.IdealArgumentError, ValueError) as exc:
            raise EvalError(str(exc), pos) from exc

    def _call(self, node, ctx):
        signature = _SIGNATURES.get(node.function)
        if signature is None:
            raise EvalError(f"unknown function {node.function!r}", node.pos)
        module, attr, kinds, optional, with_char = signature
        kinds, optional = kinds.split(), optional.split()
        counts = range(len(kinds), len(kinds) + len(optional) + 1)
        if len(node.args) not in counts:
            wanted = " or ".join(str(c) for c in counts)
            raise EvalError(
                f"{node.function} expects {wanted} arguments, got {len(node.args)}",
                node.pos,
            )
        kinds += optional
        values = [getattr(self, kind)(arg, ctx) for kind, arg in zip(kinds, node.args)]
        values += [None] * (len(kinds) - len(values))
        if with_char:
            values.append(self.char)
        return self._wrap(getattr(module, attr), node.pos, *values)

    def _literal_ideal(self, entries, pos, ctx):
        ring = None
        for e in entries:
            if isinstance(e, Monomial):
                ring = e.ring
                break
            if isinstance(e, MonomialIdeal):
                ring = e.ring
                break
        if ring is None:
            ring = ctx
        if ring is None:
            raise EvalError("ideal literal needs a ring in scope", pos)
        gens = []
        for e in entries:
            if isinstance(e, Monomial):
                gens.append(e)
            elif isinstance(e, int) and e == 1:
                gens.append(ring.one())
            elif isinstance(e, int) and e == 0:
                continue
            else:
                raise EvalError("ideal literal entries must be monomials", pos)
        return self._wrap(MonomialIdeal, pos, ring, tuple(gens))

    def _as_ideal(self, value, pos, ctx) -> MonomialIdeal:
        if isinstance(value, MonomialIdeal):
            return value
        if isinstance(value, Monomial):
            return _core.principal(value)
        if isinstance(value, int) and value in (0, 1):
            ring = ctx or self.ambient
            if ring is None:
                raise EvalError("no ring in scope for an ideal constant", pos)
            return MonomialIdeal.unit(ring) if value else MonomialIdeal.zero(ring)
        raise EvalError("expected a monomial ideal", pos)

    # typed argument helpers used by the function table

    def ideal(self, node, ctx) -> MonomialIdeal:
        return self._as_ideal(self._eval(node, ctx), node.pos, ctx)

    def monomial(self, node, ctx) -> Monomial:
        value = self._eval(node, ctx)
        if isinstance(value, Monomial):
            return value
        if isinstance(value, int) and value == 1:
            ring = ctx or self.ambient
            if ring is not None:
                return ring.one()
        if isinstance(value, MonomialIdeal) and len(value.generators) == 1:
            return value.generators[0]
        raise EvalError("expected a monomial", node.pos)

    def integer(self, node, ctx) -> int:
        value = self._eval(node, ctx)
        if not isinstance(value, int):
            raise EvalError("expected an integer", node.pos)
        return value

    def ring_value(self, node, ctx) -> Ring:
        value = self._eval(node, ctx)
        if not isinstance(value, Ring):
            raise EvalError("expected a ring", node.pos)
        return value

    def notion(self, node, ctx=None) -> str:
        if isinstance(node, Name) and node.text in ("min", "ass"):
            return node.text
        raise EvalError("expected 'min' or 'ass'", getattr(node, "pos", (0, 0)))

    def prime(self, node, ctx) -> MonomialPrime:
        prime = _decomposition._prime_from_variable_ideal(self.ideal(node, ctx))
        if prime is None:
            raise EvalError("expected a prime generated by variables", node.pos)
        return prime

    def ideal_list(self, node, ctx) -> list[MonomialIdeal]:
        value = self._eval(node, ctx)
        if not isinstance(value, tuple):
            raise EvalError("expected a bracket list of ideals", node.pos)
        return [self._as_ideal(v, node.pos, ctx) for v in value]

    # statement execution

    def execute(self, statement):
        if isinstance(statement, RingDecl):
            value = self._ring_decl_value(statement)
            self.bindings[statement.name] = value
            self.ambient = value
            return
        if isinstance(statement, IdealDecl):
            ctx = self.ambient
            if statement.ring_name is not None:
                bound = self.bindings.get(statement.ring_name)
                if not isinstance(bound, Ring):
                    raise EvalError(
                        f"{statement.ring_name!r} is not a bound ring", statement.pos
                    )
                ctx = bound
            value = self.ideal(statement.value, ctx)
            if statement.ring_name is not None and value.ring != ctx:
                raise EvalError(
                    f"expression does not live in ring {statement.ring_name}",
                    statement.pos,
                )
            self.bindings[statement.name] = value
            return
        if isinstance(statement, PrintStmt):
            value = self._eval(statement.value, self.ambient)
            self.output.append(render_value(value))
            return
        raise EvalError("unknown statement", getattr(statement, "pos", (0, 0)))

    def _ring_decl_value(self, statement) -> Ring:
        node = statement.value
        if isinstance(node, BracketList):
            names = []
            for entry in node.entries:
                if not isinstance(entry, Name):
                    raise EvalError("ring literal entries must be names", node.pos)
                names.append(entry.text)
            return self._wrap(Ring, node.pos, tuple(names))
        value = self._eval(node, self.ambient)
        if not isinstance(value, Ring):
            raise EvalError("expected a ring on the right-hand side", statement.pos)
        return value

    def run(self, script: Script) -> list[str]:
        for statement in script.statements:
            self.execute(statement)
        return self.output


def _fn_assstar(ideal, bound):
    primes, stabilized = _decomposition.ass_star_bounded(ideal, bound)
    return f"{render_value(primes)} stabilized={render_value(stabilized)}"


def _fn_join(a, b):
    return _binomial.join_rings(a, b)[0]


def _fn_extend(ideal, target):
    """Extend an ideal into a ring holding all of its variable names."""
    index_map = []
    for name in ideal.ring.variables:
        if name not in target.variables:
            raise ValueError(f"variable {name!r} missing from target ring")
        index_map.append(target.index_of(name))
    emb = _binomial.RingEmbedding(ideal.ring, target, tuple(index_map))
    return _binomial.extend(ideal, emb)


_SCRIPT = sys.modules[__name__]  # the three handlers above

# name -> (module, function name, argument kinds, optional trailing kinds,
# whether the evaluator's characteristic is appended).  A kind names the
# Evaluator method that reads the argument; an absent optional argument is
# passed as None.  Functions are looked up by name at call time, so a
# module attribute replaced after import (a monkeypatch, a tracer) is used.
_SIGNATURES = {
    "intersect": (_core, "intersect", "ideal ideal", "", False),
    "colon": (_core, "colon", "ideal ideal", "", False),
    "saturate": (_core, "saturate", "ideal ideal", "", False),
    "radical": (_core, "radical", "ideal", "", False),
    "contains": (_core, "contains", "ideal monomial", "", False),
    "satpow": (_powers, "saturated_power", "ideal ideal integer", "", False),
    "symb_min": (_powers, "symbolic_min", "ideal integer", "", False),
    "symb_ass": (_powers, "symbolic_ass", "ideal integer", "", False),
    "satk_min": (_powers, "saturator_min", "ideal integer", "", False),
    "satk_ass": (_powers, "saturator_ass", "ideal integer", "", False),
    "satk_min_global": (_powers, "saturator_min_global", "ideal", "integer", False),
    "satk_ass_global": (_powers, "saturator_ass_global", "ideal", "integer", False),
    "witness": (_powers, "regular_witness", "ideal notion", "integer", False),
    "ass": (_decomposition, "associated_primes", "ideal", "", False),
    "min": (_decomposition, "minimal_primes", "ideal", "", False),
    "assstar": (_SCRIPT, "_fn_assstar", "ideal integer", "", False),
    "decompose": (_decomposition, "primary_decomposition", "ideal", "", False),
    "irrdecomp": (_decomposition, "irreducible_decomposition", "ideal", "", False),
    "gradezero": (_decomposition, "grade_zero", "prime ideal", "", False),
    "assquot": (_decomposition, "ass_module_quotient", "ideal integer", "", False),
    "join": (_SCRIPT, "_fn_join", "ring_value ring_value", "", False),
    "extend": (_SCRIPT, "_fn_extend", "ideal ring_value", "", False),
    "binom_sat": (
        _binomial, "binomial_saturated", "ideal ideal ideal ideal integer", "", False
    ),
    "binom_symb": (
        _binomial, "binomial_symbolic", "ideal ideal integer notion", "", False
    ),
    "check_eq": (
        _binomial, "check_equality_criteria",
        "ideal ideal ideal ideal integer", "", False,
    ),
    "check_symb_eq": (
        _binomial, "check_symbolic_equality_implication",
        "ideal ideal integer", "", False,
    ),
    "check_ass": (_binomial, "check_ass_structure", "ideal ideal integer", "", False),
    "check_filt": (
        _binomial, "check_filtration_identities",
        "ideal_list ideal_list ideal_list ideal integer", "", False,
    ),
    "check_terms": (
        _binomial, "check_term_inclusions", "ideal ideal ideal ideal integer", "", False
    ),
    "depth": (_homology, "depth_quotient", "ideal", "", True),
    "reg": (_homology, "reg_quotient", "ideal", "", True),
    "betti": (_homology, "betti_table", "ideal", "", True),
    "dstar": (_homology, "deriv_star", "ideal", "", False),
    "check_depthreg": (
        _homology, "check_depth_reg_binomial",
        "ideal ideal ideal ideal integer", "", True,
    ),
    "check_depthreg_ass": (
        _homology, "check_depth_reg_symbolic_ass", "ideal ideal integer", "", True
    ),
}

FUNCTION_NAMES = tuple(sorted(_SIGNATURES))


def run_script(text: str, char: int = 0) -> list[str]:
    """Parse and execute a script, returning the printed lines."""
    evaluator = Evaluator(char=char)
    return evaluator.run(parse(text))


def repl(stdin=None, stdout=None):  # pragma: no cover - thin interactive wrapper
    """Line-oriented REPL; every line must hold complete statements."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    evaluator = Evaluator()
    stdout.write("idealkit repl; statements end with ';' (Ctrl-D quits)\n")
    stdout.flush()
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            script = parse(line)
            for statement in script.statements:
                evaluator.execute(statement)
            while evaluator.output:
                stdout.write(evaluator.output.pop(0) + "\n")
        except (ParseError, EvalError) as exc:
            stdout.write(f"error: {exc}\n")
        stdout.flush()
    return 0
