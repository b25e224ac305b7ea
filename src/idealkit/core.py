"""Exact arithmetic on monomials and monomial ideals.

Every object here is an immutable value and every operation is a pure
function, so everything is safe to share across threads.  Ideals are kept
in a canonical minimal form: the generating set is a divisibility
antichain sorted by total degree and then by reverse-lexicographic
exponent vectors, stored as the exponent tuples that every operation
reads and builds.  Two ideals are equal exactly when those tuples are,
and an ideal prints straight from them: only ``repr`` and reading
``generators`` build its ``Monomial`` values.
Every product of ideals, ``ideal_product`` included, is a ``_binomial_sum``
of products A_t B_(s-t), canonicalised once.

Every monomial, ideal and Betti table prints through one printer of
exponent tuples (``_texts``).  It reads one piece table per variable,
exponent -> "" for 0, the name for 1 and ``name^k`` otherwise
(``_Pieces``), filled on first read and kept, for exponents below
``_PIECE_BOUND`` only.  The tables of a ring are a memo (``_memo``) keyed
by its variable names, so equal rings share them across prints; at most
``_MEMO_SIZE`` name tuples keep at most ``_PIECE_BOUND`` entries per variable.

The decomposition and Betti kernels pack an exponent tuple into one int
(``_layout``): for exponents up to top, each variable gets a field of
w = bit_length(top) + 1 bits, variable 0 highest, whose top bit is a
guard kept clear.  With G the guard bits, h divides r iff
((r | G) - h) & G == G: field i of r | G holds r_i + 2^(w-1), and
r_i + 2^(w-1) - h_i lies in [1, 2^w - 1], so no field borrows from the
one above it, and field i keeps its guard bit iff r_i >= h_i.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property, lru_cache, reduce
from operator import getitem


class RingMismatchError(ValueError):
    """Operands belong to different polynomial rings."""


class IdealArgumentError(ValueError):
    """An ideal argument is degenerate for the requested operation."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_new = object.__new__
# Every builder stores fields through this, which keeps CPython's fast reads.
_set = object.__setattr__
# Every memo of the package: the last _MEMO_SIZE distinct keys, typed, so a
# float argument never reads the entry of the equal int.
_MEMO_SIZE = 1024
_memo = lru_cache(maxsize=_MEMO_SIZE, typed=True)
# A piece table keeps the exponents below this; a larger one is formatted
# each time it is printed.
_PIECE_BOUND = 32


def _whole_numbers(values) -> tuple[int, ...]:
    """``values`` as a tuple of ints; a ValueError names the first value that
    is not a whole number (``2.0`` and ``True`` are whole; ``2.5``, ``"3"``,
    ``inf``, ``nan`` and ``None`` are not)."""
    ints = []
    for v in values:
        try:
            n = int(v)
            whole = n == v
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError(f"expected a whole number, got {v!r}")
        ints.append(n)
    return tuple(ints)


class _Value:
    """Base of the package's immutable values.

    A subclass declares its fields once, in constructor order, in
    ``__match_args__``; the constructor here stores them, given by position
    and then by name.  A subclass writes an ``__init__`` only to validate,
    normalise or give defaults, and ends it with ``super().__init__(...)``.
    Equality, hash and repr run over the fields: values of different classes
    are never equal, the hash is the hash of the tuple of fields, and the
    repr reads ``Cls(field=value, ...)``.  Assigning or deleting an attribute
    raises AttributeError; pickle and copy restore the ``__dict__`` directly.
    Every builder, the constructors and the unchecked ``_monomial``,
    ``_unchecked`` and ``_ideal`` alike, stores the fields with ``_set``.
    Only ``Ring``, ``MonomialIdeal`` and ``homology.BettiTable`` spell out
    ``__eq__`` and ``__hash__``: every memo key hashes a ring and an ideal and
    every ring check compares rings, so those skip the field loop, and the
    last two compare and hash exponent tuples, not their ``Monomial`` field,
    so a memo key builds no ``Monomial``; each builds that field when read.
    """

    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        fields = self.__match_args__
        rest = fields[len(values):]
        if len(values) > len(fields) or named.keys() != set(rest):
            raise TypeError(
                f"{self.__class__.__qualname__} takes the fields "
                f"({', '.join(fields)}); got {len(values)} by position and "
                f"{sorted(named)} by name"
            )
        for name, value in zip(fields, values):
            _set(self, name, value)
        for name in rest:
            _set(self, name, named[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"{self.__class__.__qualname__}({fields})"


class Ring(_Value):
    """A polynomial ring over an abstract field, given by its ordered variables."""

    __match_args__ = ("variables",)

    def __init__(self, variables: tuple[str, ...]):
        variables = tuple(variables)
        if not variables or not all(
            isinstance(v, str) and _NAME_RE.fullmatch(v) for v in variables
        ):
            raise ValueError(f"bad variable names: {variables!r}")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names: {variables!r}")
        _set(self, "variables", variables)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self.variables == other.variables
        return NotImplemented

    def __hash__(self):
        return hash((self.variables,))

    @classmethod
    def of(cls, *names: str) -> "Ring":
        return cls(tuple(names))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def one(self) -> "Monomial":
        return _monomial(self, (0,) * self.nvars)

    def variable(self, index: int) -> "Monomial":
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index out of range: {index!r}")
        exps = [0] * self.nvars
        exps[index] = 1
        return _monomial(self, tuple(exps))

    def monomial(self, exponents) -> "Monomial":
        return Monomial(self, tuple(exponents))

    def index_of(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} in {self}") from None

    def __str__(self):
        return "[" + ", ".join(self.variables) + "]"


class Monomial(_Value):
    """A monomial as a dense vector of nonnegative exponents over a Ring."""

    __match_args__ = ("ring", "exponents")

    def __init__(self, ring: Ring, exponents: tuple[int, ...]):
        _set(self, "ring", ring)
        _set(self, "exponents", exponents)
        # Looked up on the class at each call: the benchmark tracer replaces
        # the hook there to count the monomials that are validated.
        self.__post_init__()

    def __post_init__(self):
        exps = _whole_numbers(self.exponents)
        if len(exps) != self.ring.nvars:
            raise ValueError(
                f"expected {self.ring.nvars} exponents, got {len(exps)}"
            )
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps!r}")
        _set(self, "exponents", exps)

    def degree(self) -> int:
        return sum(self.exponents)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exponents) if e > 0)

    def divides(self, other: "Monomial") -> bool:
        _require_same_ring(self, other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        _require_same_ring(self, other)
        exps = tuple(map(operator.add, self.exponents, other.exponents))
        return _monomial(self.ring, exps)

    def power(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative power")
        exps = tuple(e * k for e in self.exponents)
        if isinstance(k, int):
            return _monomial(self.ring, exps)
        return Monomial(self.ring, exps)

    def lcm(self, other: "Monomial") -> "Monomial":
        _require_same_ring(self, other)
        return _monomial(self.ring, tuple(map(max, self.exponents, other.exponents)))

    def divide_out(self, other: "Monomial") -> "Monomial":
        """self / gcd(self, other), i.e. clamp the quotient at zero exponents."""
        _require_same_ring(self, other)
        return _monomial(
            self.ring,
            tuple(a - b if a > b else 0 for a, b in zip(self.exponents, other.exponents)),
        )

    def divide_exact(self, other: "Monomial") -> "Monomial":
        _require_same_ring(self, other)
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        exps = tuple(map(operator.sub, self.exponents, other.exponents))
        return _monomial(self.ring, exps)

    def sort_key(self):
        # Total degree first, then reverse-lexicographic exponent vectors,
        # so (a^2, a*b) and (a^4, a^3*b, a^2*b^2) render in the usual order.
        return (self.degree(), tuple(-e for e in self.exponents))

    def __str__(self):
        return _texts(self.ring.variables, (self.exponents,))[0]

    @classmethod
    def parse(cls, ring: Ring, text: str) -> "Monomial":
        text = text.strip()
        if text == "1":
            return ring.one()
        exps = [0] * ring.nvars
        for factor in text.split("*"):
            factor = factor.strip()
            if "^" in factor:
                name, _, power = factor.partition("^")
                power = power.strip()
                # int() would also take "1_0", "+3" and non-ASCII digits
                if not (power.isascii() and power.isdigit()):
                    raise ValueError(f"bad exponent {power!r} in {text!r}")
                exps[ring.index_of(name.strip())] += int(power)
            else:
                exps[ring.index_of(factor)] += 1
        return _monomial(ring, tuple(exps))


def _require_same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatchError(f"ring mismatch: {a.ring} vs {b.ring}")


_le = operator.le


def _monomial(ring: Ring, exponents: tuple[int, ...]) -> Monomial:
    """``_unchecked(Monomial, ...)`` for the hot path: exponents already valid for ``ring``."""
    m = _new(Monomial)
    _set(m, "ring", ring)
    _set(m, "exponents", exponents)
    return m


class _Pieces(dict):
    """One variable's piece table: exponent -> its printed factor, "" for 0,
    the name for 1 and ``name^k`` otherwise.  A missing exponent is
    formatted, and kept only below ``_PIECE_BOUND``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__({0: "", 1: name})
        self.name = name

    def __missing__(self, k):
        text = f"{self.name}^{k}"
        if 1 < k < _PIECE_BOUND:
            self[k] = text
        return text


@_memo
def _pieces(names: tuple[str, ...]) -> tuple[_Pieces, ...]:
    """The piece table of each variable of ``names``, shared by every ring
    with these names (``_memo``)."""
    return tuple([_Pieces(name) for name in names])


def _texts(names, exps) -> list[str]:
    """Each exponent tuple of ``exps`` over the variables ``names``, printed
    as a product of the variables' pieces, or "1" when it has none."""
    pieces = _pieces(names)
    return ["*".join(filter(None, map(getitem, pieces, e))) or "1" for e in exps]


def _contains(gens, e) -> bool:
    """True iff some exponent tuple of ``gens`` divides the tuple ``e``."""
    for g in gens:
        if all(map(_le, g, e)):
            return True
    return False


def _antichain(exps) -> list[tuple[int, ...]]:
    """Canonical minimal generating set of a sized collection of exponent tuples.

    Returns the divisibility antichain sorted by total degree and then by
    descending tuple, which is the order of ``Monomial.sort_key``.  Only a
    tuple of lower degree can properly divide another, so each tuple is
    tested against the kept tuples of lower degree alone, and an
    equigenerated input makes no divisibility test.
    """
    if len(exps) < 2:
        return list(exps)
    kept: list[tuple[int, ...]] = []
    lower: list[tuple[int, ...]] = []  # the kept tuples of lower degree
    degree = None
    # Descending (-degree, tuple): degrees ascend, ties in descending order.
    for d, m in sorted([(-sum(m), m) for m in set(exps)], reverse=True):
        if d != degree:
            degree = d
            lower = kept.copy()
        for k in lower:
            if all(map(_le, k, m)):
                break
        else:
            kept.append(m)
    return kept


def _layout(nvars: int, top: int):
    """The packed layout of exponents up to ``top`` in ``nvars`` variables.

    Returns the field mask (the low ``w`` bits), the field shifts (variable
    0 in the highest field) and the guard G, the top bit of every field,
    for a field width w = top.bit_length() + 1.
    """
    w = top.bit_length() + 1
    guard = ((1 << w * nvars) - 1) // ((1 << w) - 1) << w - 1
    return (1 << w) - 1, range(w * (nvars - 1), -1, -w), guard


def _unchecked(cls, **fields):
    """A value of the ``_Value`` class ``cls`` from fields known to be valid.

    ``__init__`` does not run, so nothing is validated or normalised.
    """
    value = _new(cls)
    for name, field in fields.items():
        _set(value, name, field)
    return value


def _ideal(ring: Ring, exps) -> "MonomialIdeal":
    """The ideal generated by exponent tuples already known to be valid for ``ring``.

    Nothing is validated again; only the canonical form is computed.
    """
    ideal = _new(MonomialIdeal)
    _set(ideal, "ring", ring)
    _set(ideal, "_exps", tuple(_antichain(exps)))
    return ideal


class MonomialIdeal(_Value):
    """A monomial ideal, canonically represented by its minimal generators.

    The zero ideal has an empty generator tuple; the unit ideal has the
    single generator 1.  The constructor canonicalizes whatever it is
    given, so structural equality is ideal equality.  It stores the
    exponent tuples ``_exps``; ``generators`` is built from them when
    first read, and then kept.  Equality, the hash and ``str`` read
    ``_exps``, so an ideal used as a memo key or printed builds no
    ``generators``; only ``repr`` and reading the field do.
    """

    __match_args__ = ("ring", "generators")

    def __init__(self, ring: Ring, generators: tuple[Monomial, ...]):
        gens = tuple(generators)
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError(f"generator {g} not in {ring}")
        _set(self, "ring", ring)
        _set(self, "_exps", tuple(_antichain([g.exponents for g in gens])))

    @cached_property
    def generators(self) -> tuple[Monomial, ...]:
        return tuple([_monomial(self.ring, e) for e in self._exps])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ring, self._exps) == (other.ring, other._exps)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self._exps))

    @classmethod
    def zero(cls, ring: Ring) -> "MonomialIdeal":
        return _ideal(ring, ())

    @classmethod
    def unit(cls, ring: Ring) -> "MonomialIdeal":
        return _ideal(ring, ((0,) * ring.nvars,))

    @classmethod
    def parse(cls, ring: Ring, text: str) -> "MonomialIdeal":
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        # a 0 entry adds no generator, as in the script language
        parts = [p for p in (p.strip() for p in text.split(",")) if p not in ("", "0")]
        return cls(ring, tuple(Monomial.parse(ring, p) for p in parts))

    @property
    def is_zero(self) -> bool:
        return not self._exps

    @property
    def is_unit(self) -> bool:
        return len(self._exps) == 1 and not any(self._exps[0])

    def contains(self, m: Monomial) -> bool:
        _require_same_ring(self, m)
        return _contains(self._exps, m.exponents)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        _require_same_ring(self, other)
        return all(_contains(self._exps, e) for e in other._exps)

    def lcm_of_generators(self) -> Monomial:
        if self.is_zero:
            raise IdealArgumentError("zero ideal has no generator lcm")
        return _monomial(self.ring, tuple(map(max, zip(*self._exps))))

    def max_exponent(self) -> int:
        return max(map(max, self._exps), default=0)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return ideal_sum(self, other)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return ideal_product(self, other)

    def __pow__(self, s: int) -> "MonomialIdeal":
        return ideal_power(self, s)

    def __str__(self):
        if not self._exps:
            return "(0)"
        return "(" + ", ".join(_texts(self.ring.variables, self._exps)) + ")"


class MonomialPrime(_Value):
    """A prime monomial ideal, generated by the variables in its support."""

    __match_args__ = ("ring", "support")

    def __init__(self, ring: Ring, support: tuple[int, ...]):
        support = tuple(sorted(set(_whole_numbers(support))))
        if any(i < 0 or i >= ring.nvars for i in support):
            raise ValueError(f"variable index out of range: {support!r}")
        _set(self, "ring", ring)
        _set(self, "support", support)

    @classmethod
    def of_names(cls, ring: Ring, *names: str) -> "MonomialPrime":
        return cls(ring, tuple(ring.index_of(n) for n in names))

    def as_ideal(self) -> MonomialIdeal:
        zeros = (0,) * self.ring.nvars
        return _ideal(self.ring, [zeros[:i] + (1,) + zeros[i + 1:] for i in self.support])

    def contains_monomial(self, m: Monomial) -> bool:
        _require_same_ring(self, m)
        return any(m.exponents[i] > 0 for i in self.support)

    def sort_key(self):
        return (len(self.support), self.support)

    def __str__(self):
        return "(" + ", ".join(self.ring.variables[i] for i in self.support) + ")"


def minimalize(ring: Ring, gens) -> MonomialIdeal:
    """Canonical form of the ideal generated by ``gens``."""
    return MonomialIdeal(ring, tuple(gens))


def principal(m: Monomial) -> MonomialIdeal:
    return MonomialIdeal(m.ring, (m,))


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    return ideal.contains(m)


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _require_same_ring(a, b)
    return _ideal(a.ring, a._exps + b._exps)


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _require_same_ring(a, b)
    return _binomial_sum(a.ring, (a,), (b,))


def _binomial_sum(ring: Ring, side_a, side_b) -> MonomialIdeal:
    """The sum of side_a[t] * side_b[n - t] over t = 0..n, for two sequences
    of n + 1 ideals in ``ring``, canonicalised once; the zero ideal when both
    are empty.  A product is the one-term case, and is zero when a side is.
    """
    add = operator.add
    terms = zip(side_a, reversed(side_b))
    return _ideal(
        ring, [tuple(map(add, g, h)) for a, b in terms for g in a._exps for h in b._exps]
    )


@_memo
def _power(a: MonomialIdeal, t: int) -> MonomialIdeal:
    """a^t for t >= 1, one product with the a^(t - 1) stored just before.

    ``ideal_power`` asks for t = 1, 2, ... in turn, so recursion stays one
    level deep unless other threads fill the memo (``_memo``) between two steps.
    """
    return a if t == 1 else ideal_product(_power(a, t - 1), a)


def ideal_power(a: MonomialIdeal, s: int) -> MonomialIdeal:
    """a^s, from the memo (``_memo``) of (ideal, exponent) pairs.

    The key holds the ring, so a result is always in the caller's ring.
    """
    if s < 0:
        raise ValueError("negative ideal power")
    if s == 0:
        return MonomialIdeal.unit(a.ring)
    for t in range(1, s):
        _power(a, t)
    return _power(a, s)


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _require_same_ring(a, b)
    return _ideal(a.ring, {tuple(map(max, g, h)) for g in a._exps for h in b._exps})


def intersect_all(ring: Ring, ideals) -> MonomialIdeal:
    """Intersection of a collection of ideals of ``ring``; empty collection
    gives (1).  The fold starts from the first ideal, so no ideal is
    intersected with (1) and canonicalised again."""
    ideals = iter(ideals)
    first = next(ideals, None)
    if first is None:
        return MonomialIdeal.unit(ring)
    if first.ring != ring:
        raise RingMismatchError(f"ring mismatch: {ring} vs {first.ring}")
    return reduce(intersect, ideals, first)


def colon_monomial(a: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    _require_same_ring(a, m)
    return _colon(a, m.exponents)


def _colon(a: MonomialIdeal, e: tuple[int, ...]) -> MonomialIdeal:
    """a : x^e, for an exponent tuple ``e`` of a's ring."""
    gens = [tuple([x - y if x > y else 0 for x, y in zip(g, e)]) for g in a._exps]
    return _ideal(a.ring, gens)


def colon(a: MonomialIdeal, k: MonomialIdeal) -> MonomialIdeal:
    """The colon ideal a : k.  Colon by the zero ideal is rejected."""
    _require_same_ring(a, k)
    if k.is_zero:
        raise IdealArgumentError("colon by the zero ideal")
    return intersect_all(a.ring, (_colon(a, e) for e in k._exps))


def saturate(a: MonomialIdeal, k: MonomialIdeal) -> MonomialIdeal:
    """a : k^infinity, the intersection over the generators g of k of a : g^infinity.

    a : g^infinity is a with the exponents of supp(g) set to zero
    (Herzog-Hibi, Monomial Ideals, ch. 1), which is a : g^n once n is at
    least every exponent of a.
    """
    _require_same_ring(a, k)
    if k.is_zero:
        raise IdealArgumentError("saturation by the zero ideal")
    mul = operator.mul
    saturations = []
    for g in k._exps:
        kept = tuple(0 if e else 1 for e in g)
        saturations.append(_ideal(a.ring, [tuple(map(mul, e, kept)) for e in a._exps]))
    return intersect_all(a.ring, saturations)


def radical(a: MonomialIdeal) -> MonomialIdeal:
    ones = (1,) * a.ring.nvars
    return _ideal(a.ring, [tuple(map(min, g, ones)) for g in a._exps])
