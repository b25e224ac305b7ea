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

Tokens are NAMEs (an ASCII letter or '_', then ASCII letters, digits or
'_', as in ``Ring`` names), INTs (runs of ASCII digits) and the
punctuation ( ) [ ] , ; + * ^ =; spaces, tabs and carriage returns
separate them; any other character is an error, and so is an INT longer
than the interpreter converts (``sys.get_int_max_str_digits``).  A
``print`` whose value holds a number too long to convert back fails at
the statement.  Every token and error
carries a 1-based line and column, the column counting characters from the
line's start.  A comment does not advance the column, so the end of input
after a trailing comment sits at its '#'.
"""

from __future__ import annotations

import collections
import re
import sys
from operator import add

from . import binomial as _binomial
from . import core as _core
from . import decomposition as _decomposition
from . import homology as _homology
from . import powers as _powers
from .core import Monomial, MonomialIdeal, MonomialPrime, Ring, _ideal, _memo, _monomial, _Value


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

# One match per token, with the blanks before it.  Groups: the blanks, then
# one of int (a run of ASCII digits), name (an ASCII letter or '_', then
# letters, digits or '_': the alphabet of ``Ring`` names, since a digit
# starts an int), punctuation, newline and any other character; a comment,
# or the end of the text, fills none of the five.  ``findall`` hands the
# groups over as strings, so the scan builds no match object.
_SCANNER = re.compile(
    r"([ \t\r]*)(?:(\d+)|(\w+)|([()\[\],;+*^=])|(\n)|#[^\n]*|(.)|\Z)", re.ASCII | re.DOTALL
)


def _scan(text: str) -> list[tuple[str, str, int, int]]:
    """Tokens of ``text`` as (kind, text, line, column) tuples, the kind one
    of 'int', 'name' and 'punct', ending in one 'eof'."""
    tokens = []
    append = tokens.append
    line = column = 1
    for blanks, number, word, punct, newline, other in _SCANNER.findall(text):
        column += len(blanks)
        if punct:
            append(("punct", punct, line, column))
            column += 1
        elif word:
            append(("name", word, line, column))
            column += len(word)
        elif number:
            append(("int", number, line, column))
            column += len(number)
        elif newline:
            line += 1
            column = 1
        elif other:
            raise ParseError(f"unexpected character {other!r}", line, column)
    # A comment does not advance the column, so EOF after one sits at its '#'.
    append(("eof", "", line, column))
    return tokens


# AST nodes.  A node class names its fields in ``__match_args__`` and takes
# them by position through the base of its arity, ``_Node1`` to ``_Node3``,
# which fills the instance dict in one update: the parser builds many
# nodes, and the generic ``_Value`` constructor is slower.  `pos` is
# keyword-only and left out of equality, hash and repr, so a statement
# parsed from one REPL line equals the same statement parsed from a whole
# script.


class Node(_Value):
    pos: tuple[int, int]  # (line, column)


class _Node1(Node):
    def __init__(self, first, /, *, pos=(0, 0)):
        (name,) = self.__match_args__
        self.__dict__.update({name: first, "pos": pos})


class _Node2(Node):
    def __init__(self, first, second, /, *, pos=(0, 0)):
        name1, name2 = self.__match_args__
        self.__dict__.update({name1: first, name2: second, "pos": pos})


class _Node3(Node):
    def __init__(self, first, second, third, /, *, pos=(0, 0)):
        name1, name2, name3 = self.__match_args__
        self.__dict__.update({name1: first, name2: second, name3: third, "pos": pos})


class Name(_Node1):
    __match_args__ = ("text",)


class IntLit(_Node1):
    __match_args__ = ("value",)


class AddOp(_Node2):
    __match_args__ = ("left", "right")


class MulOp(_Node2):
    __match_args__ = ("left", "right")


class PowOp(_Node2):
    __match_args__ = ("base", "exponent")


class CallOp(_Node2):
    __match_args__ = ("function", "args")


class IdealLit(_Node1):
    __match_args__ = ("entries",)


class BracketList(_Node1):
    __match_args__ = ("entries",)


class RingDecl(_Node2):
    __match_args__ = ("name", "value")


class IdealDecl(_Node3):
    __match_args__ = ("name", "value", "ring_name")


class PrintStmt(_Node1):
    __match_args__ = ("value",)


class Script(_Value):
    __match_args__ = ("statements",)


# The binary operators, loosest first, with the node each one builds.
_BINARY = (("+", AddOp), ("*", MulOp))
_PRECEDENCE = {op: prec for prec, (op, _) in enumerate(_BINARY)}


class Parser:
    """Recursive descent over (kind, text, line, column) token tuples.

    Lookahead compares token text only: no name or int token spells a
    punctuation mark and EOF's text is empty, and a keyword is a name.
    Every atom, an int and a name included, is read by ``parse_atom``.
    """

    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.index = 0
        self.level = 0
        self.depth = 0

    def _fail(self, message):
        _, text, line, column = self.tokens[self.index]
        shown = text or "end of input"
        raise ParseError(f"{message} (got {shown!r})", line, column)

    def _expect_punct(self, text):
        if self.tokens[self.index][1] != text:
            self._fail(f"expected {text!r}")
        self.index += 1

    def _int(self, tok) -> int:
        """The value of the int token ``tok``; one longer than the interpreter
        converts to int (``sys.get_int_max_str_digits``) fails at ``tok``."""
        try:
            return int(tok[1])
        except ValueError:
            message = (
                f"integer of {len(tok[1])} digits is longer than the limit of "
                f"{sys.get_int_max_str_digits()} digits"
            )
            raise ParseError(message, tok[2], tok[3]) from None

    def _expect_name(self) -> str:
        kind, text, _, _ = self.tokens[self.index]
        if kind != "name":
            self._fail("expected a name")
        self.index += 1
        return text

    def parse_script(self) -> Script:
        statements = []
        tokens = self.tokens
        while tokens[self.index][0] != "eof":
            statements.append(self.parse_statement())
        return Script(tuple(statements))

    def parse_statement(self):
        _, text, line, column = self.tokens[self.index]
        if text == "ring" or text == "ideal":
            self.index += 1
            name = self._expect_name()
            self._expect_punct("=")
            value = self.parse_expr()
            if text == "ring":
                self._expect_punct(";")
                return RingDecl(name, value, pos=(line, column))
            ring_name = None
            if self.tokens[self.index][1] == "in":
                self.index += 1
                ring_name = self._expect_name()
            self._expect_punct(";")
            return IdealDecl(name, value, ring_name, pos=(line, column))
        if text == "print":
            self.index += 1
            value = self.parse_expr()
            self._expect_punct(";")
            return PrintStmt(value, pos=(line, column))
        self._fail("expected 'ring', 'ideal' or 'print'")

    # parse_* leave the depth of the node they return in ``self.depth``;
    # ``self.level`` counts the calls, parentheses and brackets around it.

    def _deeper(self, tok, depth: int, other: int = 0):
        """Set ``self.depth`` one over the larger depth; past MAX_DEPTH, fail at ``tok``."""
        self.depth = (depth if depth > other else other) + 1
        if self.level + self.depth > MAX_DEPTH:
            message = f"expression nested deeper than {MAX_DEPTH} levels"
            raise ParseError(message, tok[2], tok[3])

    def parse_expr(self, prec: int = 0):
        """Factors joined by the operators of ``_BINARY[prec:]``, each
        left-associative, by precedence climbing: a sum of products at 0."""
        node = self.parse_factor()
        tokens = self.tokens
        while True:
            tok = tokens[self.index]
            level = _PRECEDENCE.get(tok[1], -1)
            if level < prec:
                return node
            self.index += 1
            depth = self.depth
            right = self.parse_expr(level + 1)
            self._deeper(tok, depth, self.depth)
            node = _BINARY[level][1](node, right, pos=tok[2:])

    def parse_factor(self):
        node = self.parse_atom()
        tokens = self.tokens
        tok = tokens[self.index]
        if tok[1] == "^":
            self.index += 1
            exponent = tokens[self.index]
            if exponent[0] != "int":
                self._fail("expected an integer exponent")
            self.index += 1
            self._deeper(tok, self.depth)
            node = PowOp(node, self._int(exponent), pos=tok[2:])
        return node

    def _parse_entries(self, tok, close, allow_empty=False):
        """Comma-separated expressions up to ``close``, one level below ``tok``."""
        self._deeper(tok, 0)
        self.level += 1
        tokens = self.tokens
        entries, depth = [], 0
        if not (allow_empty and tokens[self.index][1] == close):
            entries.append(self.parse_expr())
            depth = self.depth
            while tokens[self.index][1] == ",":
                self.index += 1
                entries.append(self.parse_expr())
                depth = max(depth, self.depth)
        self._expect_punct(close)
        self.level -= 1
        self._deeper(tok, depth)
        return tuple(entries)

    def parse_atom(self):
        tok = self.tokens[self.index]
        kind, text, pos = tok[0], tok[1], tok[2:]
        if kind == "int":
            self.index += 1
            self.depth = 0
            return IntLit(self._int(tok), pos=pos)
        if kind == "name":
            if text in KEYWORDS:
                self._fail(f"keyword {text!r} cannot start an expression")
            self.index += 1
            if self.tokens[self.index][1] == "(":
                self.index += 1
                return CallOp(text, self._parse_entries(tok, ")", True), pos=pos)
            self.depth = 0
            return Name(text, pos=pos)
        if text == "(":
            self.index += 1
            entries = self._parse_entries(tok, ")")
            return entries[0] if len(entries) == 1 else IdealLit(entries, pos=pos)
        if text == "[":
            self.index += 1
            return BracketList(self._parse_entries(tok, "]"), pos=pos)
        self._fail("expected an expression")


def parse(text: str) -> Script:
    return Parser(_scan(text)).parse_script()


def render_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, frozenset):
        items = sorted(value, key=MonomialPrime.sort_key)
        return "{" + ", ".join(str(p) for p in items) + "}"
    if isinstance(value, tuple):
        if value and all(isinstance(c, _decomposition.IrreducibleComponent) for c in value):
            return "{" + ", ".join(str(c) for c in value) + "}"
        # a bracket list, e.g. [x, (x, y)]
        return "[" + ", ".join(render_value(v) for v in value) + "]"
    return str(value)


class Evaluator:
    """Executes statements against an environment of named rings and ideals."""

    def __init__(self, char: int = 0):
        self.bindings: dict[str, object] = {}
        self.ambient: Ring | None = None
        self.char = char

    def lines(self, text: str):
        """Parse all of ``text``, then yield each printed line as its statement runs."""
        for statement in parse(text).statements:
            line = self.execute(statement)
            if line is not None:
                yield line

    def execute(self, statement) -> str | None:
        """Run one statement; return its printed line, None for a declaration."""
        return _HANDLERS[type(statement)](self, statement, self.ambient)

    def _eval(self, node, ctx: Ring | None):
        return _HANDLERS[type(node)](self, node, ctx)

    def _ring_decl(self, statement, ctx):
        node = statement.value
        if isinstance(node, BracketList):
            names = []
            for entry in node.entries:
                if not isinstance(entry, Name):
                    raise EvalError("ring literal entries must be names", node.pos)
                names.append(entry.text)
            value = self._wrap(Ring, node.pos, tuple(names))
        else:
            value = self._eval(node, ctx)
            if not isinstance(value, Ring):
                raise EvalError("expected a ring on the right-hand side", statement.pos)
        self.bindings[statement.name] = value
        self.ambient = value

    def _ideal_decl(self, statement, ctx):
        name = statement.ring_name
        if name is not None:
            ctx = self.bindings.get(name)
            if not isinstance(ctx, Ring):
                raise EvalError(f"{name!r} is not a bound ring", statement.pos)
        value = self.ideal(statement.value, ctx)
        if name is not None and value.ring != ctx:
            raise EvalError(f"expression does not live in ring {name}", statement.pos)
        self.bindings[statement.name] = value

    def _print(self, statement, ctx) -> str:
        value = self._eval(statement.value, ctx)
        try:
            return render_value(value)
        except ValueError:  # an int past the interpreter's int-string limit
            message = f"cannot print a number of more than {sys.get_int_max_str_digits()} digits"
            raise EvalError(message, statement.pos) from None

    def _name(self, node, ctx):
        text = node.text
        if text in self.bindings:
            return self.bindings[text]
        if ctx is not None:
            variable = _variables(ctx).get(text)
            if variable is not None:
                return variable
        raise EvalError(f"unbound name {text!r}", node.pos)

    def _int(self, node, ctx) -> int:
        return node.value

    def _bracket(self, node, ctx) -> tuple:
        return tuple(self._eval(e, ctx) for e in node.entries)

    def _add(self, node, ctx) -> MonomialIdeal:
        left = self._as_ideal(self._eval(node.left, ctx), node.pos, ctx)
        right = self._as_ideal(self._eval(node.right, ctx), node.pos, ctx)
        return self._wrap(_core.ideal_sum, node.pos, left, right)

    def _mul(self, node, ctx):
        left = self._eval(node.left, ctx)
        right = self._eval(node.right, ctx)
        # Monomial products build no ideal and no checked Monomial: pays on script.
        if isinstance(left, Monomial) and isinstance(right, Monomial):
            if left.ring is right.ring or left.ring == right.ring:
                return _monomial(left.ring, tuple(map(add, left.exponents, right.exponents)))
            return self._wrap(Monomial.__mul__, node.pos, left, right)
        return self._wrap(
            _core.ideal_product,
            node.pos,
            self._as_ideal(left, node.pos, ctx),
            self._as_ideal(right, node.pos, ctx),
        )

    def _pow(self, node, ctx):
        base = self._eval(node.base, ctx)
        k = node.exponent
        # Monomial powers build no ideal and no checked Monomial: pays on script.
        if isinstance(base, Monomial):
            if type(k) is int and k >= 0:  # as every parsed exponent is
                return _monomial(base.ring, tuple([e * k for e in base.exponents]))
            return base.power(k)
        return self._wrap(
            _core.ideal_power,
            node.pos,
            self._as_ideal(base, node.pos, ctx),
            k,
        )

    def _wrap(self, fn, pos, *args):
        try:
            return fn(*args)
        except ValueError as exc:  # RingMismatchError and IdealArgumentError too
            raise EvalError(str(exc), pos) from exc

    def _call(self, node, ctx):
        signature = _SIGNATURES.get(node.function)
        if signature is None:
            raise EvalError(f"unknown function {node.function!r}", node.pos)
        module, attr, readers, optional, with_char = signature
        counts = range(len(readers), len(readers) + len(optional) + 1)
        if len(node.args) not in counts:
            wanted = " or ".join(str(c) for c in counts)
            noun = "argument" if wanted == "1" else "arguments"
            message = f"{node.function} expects {wanted} {noun}, got {len(node.args)}"
            raise EvalError(message, node.pos)
        readers += optional
        values = [read(self, arg, ctx) for read, arg in zip(readers, node.args)]
        values += [None] * (len(readers) - len(values))
        if with_char:
            values.append(self.char)
        return self._wrap(getattr(module, attr), node.pos, *values)

    def _ideal_literal(self, node, ctx) -> MonomialIdeal:
        entries = [self._eval(e, ctx) for e in node.entries]
        kinds = (Monomial, MonomialIdeal)
        ring = next((e.ring for e in entries if isinstance(e, kinds)), ctx)
        if ring is None:
            raise EvalError("ideal literal needs a ring in scope", node.pos)
        exps, stray = [], None
        for e in entries:
            if isinstance(e, Monomial):
                exps.append(e.exponents)
                if stray is None and e.ring is not ring and e.ring != ring:
                    stray = e
            elif isinstance(e, int) and e == 1:
                exps.append((0,) * ring.nvars)
            elif isinstance(e, int) and e == 0:
                continue
            else:
                raise EvalError("ideal literal entries must be monomials", node.pos)
        if stray is not None:  # the message MonomialIdeal gives
            raise EvalError(f"generator {stray} not in {ring}", node.pos)
        return _ideal(ring, exps)

    def _as_ideal(self, value, pos, ctx) -> MonomialIdeal:
        if isinstance(value, MonomialIdeal):
            return value
        if isinstance(value, Monomial):
            return _core.principal(value)
        if isinstance(value, int) and value in (0, 1):
            if ctx is None:
                raise EvalError("no ring in scope for an ideal constant", pos)
            return MonomialIdeal.unit(ctx) if value else MonomialIdeal.zero(ctx)
        raise EvalError("expected a monomial ideal", pos)

    # the argument readers that the built-in table's kinds name (``_row``)

    def ideal(self, node, ctx) -> MonomialIdeal:
        return self._as_ideal(self._eval(node, ctx), node.pos, ctx)

    def monomial(self, node, ctx) -> Monomial:
        value = self._eval(node, ctx)
        if isinstance(value, Monomial):
            return value
        if isinstance(value, int) and value == 1 and ctx is not None:
            return ctx.one()
        if isinstance(value, MonomialIdeal) and len(value._exps) == 1:
            return _monomial(value.ring, value._exps[0])
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
        if isinstance(node, Name) and node.text in _powers.NOTIONS:
            return node.text
        raise EvalError("expected " + " or ".join(map(repr, _powers.NOTIONS)), node.pos)

    def prime(self, node, ctx) -> MonomialPrime:
        ideal = self.ideal(node, ctx)
        mask = _decomposition._prime_support(ideal._exps)
        if not mask:
            raise EvalError("expected a prime generated by variables", node.pos)
        [prime] = _decomposition._primes(ideal.ring, [mask])
        return prime

    def ideal_list(self, node, ctx) -> list[MonomialIdeal]:
        value = self._eval(node, ctx)
        if not isinstance(value, tuple):
            raise EvalError("expected a bracket list of ideals", node.pos)
        return [self._as_ideal(v, node.pos, ctx) for v in value]


@_memo
def _variables(ring: Ring) -> dict[str, Monomial]:
    """Each variable name of ``ring`` to its variable, for bare names."""
    return {name: ring.variable(i) for i, name in enumerate(ring.variables)}


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

_Row = collections.namedtuple("_Row", "module attr readers optional with_char")


def _row(module, attr, kinds, optional="", with_char=False) -> _Row:
    """A built-in calling ``module.attr`` on the arguments its ``kinds`` read,
    then those of the ``optional`` trailing kinds (None when absent), then the
    characteristic if ``with_char``.  A kind names the Evaluator method that
    reads its argument; each resolves here, so a misspelt one fails at import."""
    readers = tuple(getattr(Evaluator, kind) for kind in kinds.split())
    optional = tuple(getattr(Evaluator, kind) for kind in optional.split())
    return _Row(module, attr, readers, optional, with_char)


# name -> the built-in's ``_row``, stating only what differs from its
# defaults: no optional trailing kinds, no characteristic.  Functions are
# looked up by name at call time, so a module attribute replaced after
# import (a monkeypatch, a tracer) is used.
_SIGNATURES = {
    "intersect": _row(_core, "intersect", "ideal ideal"),
    "colon": _row(_core, "colon", "ideal ideal"),
    "saturate": _row(_core, "saturate", "ideal ideal"),
    "radical": _row(_core, "radical", "ideal"),
    "contains": _row(_core, "contains", "ideal monomial"),
    "satpow": _row(_powers, "saturated_power", "ideal ideal integer"),
    "symb_min": _row(_powers, "symbolic_min", "ideal integer"),
    "symb_ass": _row(_powers, "symbolic_ass", "ideal integer"),
    "satk_min": _row(_powers, "saturator_min", "ideal integer"),
    "satk_ass": _row(_powers, "saturator_ass", "ideal integer"),
    "satk_min_global": _row(_powers, "saturator_min_global", "ideal", "integer"),
    "satk_ass_global": _row(_powers, "saturator_ass_global", "ideal", "integer"),
    "witness": _row(_powers, "regular_witness", "ideal notion", "integer"),
    "ass": _row(_decomposition, "associated_primes", "ideal"),
    "min": _row(_decomposition, "minimal_primes", "ideal"),
    "assstar": _row(_SCRIPT, "_fn_assstar", "ideal integer"),
    "decompose": _row(_decomposition, "primary_decomposition", "ideal"),
    "irrdecomp": _row(_decomposition, "irreducible_decomposition", "ideal"),
    "gradezero": _row(_decomposition, "grade_zero", "prime ideal"),
    "assquot": _row(_decomposition, "ass_module_quotient", "ideal integer"),
    "join": _row(_SCRIPT, "_fn_join", "ring_value ring_value"),
    "extend": _row(_SCRIPT, "_fn_extend", "ideal ring_value"),
    "binom_sat": _row(_binomial, "binomial_saturated", "ideal ideal ideal ideal integer"),
    "binom_symb": _row(_binomial, "binomial_symbolic", "ideal ideal integer notion"),
    "check_eq": _row(_binomial, "check_equality_criteria", "ideal ideal ideal ideal integer"),
    "check_symb_eq": _row(_binomial, "check_symbolic_equality_implication", "ideal ideal integer"),
    "check_ass": _row(_binomial, "check_ass_structure", "ideal ideal integer"),
    "check_filt": _row(
        _binomial, "check_filtration_identities", "ideal_list ideal_list ideal_list ideal integer"
    ),
    "check_terms": _row(_binomial, "check_term_inclusions", "ideal ideal ideal ideal integer"),
    "depth": _row(_homology, "depth_quotient", "ideal", with_char=True),
    "reg": _row(_homology, "reg_quotient", "ideal", with_char=True),
    "betti": _row(_homology, "betti_table", "ideal", with_char=True),
    "dstar": _row(_homology, "deriv_star", "ideal"),
    "check_depthreg": _row(
        _binomial, "check_depth_reg_binomial", "ideal ideal ideal ideal integer", with_char=True
    ),
    "check_depthreg_ass": _row(
        _binomial, "check_depth_reg_symbolic_ass", "ideal ideal integer", with_char=True
    ),
}

# node type -> the Evaluator method that runs it on (node, ring of bare names):
# a statement's returns its printed line or None, an expression's its value.
_HANDLERS = {
    RingDecl: Evaluator._ring_decl,
    IdealDecl: Evaluator._ideal_decl,
    PrintStmt: Evaluator._print,
    Name: Evaluator._name,
    IntLit: Evaluator._int,
    IdealLit: Evaluator._ideal_literal,
    BracketList: Evaluator._bracket,
    AddOp: Evaluator._add,
    MulOp: Evaluator._mul,
    PowOp: Evaluator._pow,
    CallOp: Evaluator._call,
}


def run_script(text: str, char: int = 0) -> list[str]:
    """Parse and execute a script, returning the printed lines."""
    return list(Evaluator(char).lines(text))


def repl(stdin=None, stdout=None):
    """Line-oriented REPL; every line must hold complete statements."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    evaluator = Evaluator()
    stdout.write("idealkit repl; statements end with ';' (Ctrl-D quits)\n")
    stdout.flush()
    for line in stdin:
        try:
            for text in evaluator.lines(line.strip()):
                stdout.write(f"{text}\n")
        except (ParseError, EvalError) as exc:
            stdout.write(f"error: {exc}\n")
        stdout.flush()
    return 0
