"""Exact arithmetic on monomials and monomial ideals.

Every object here is an immutable value and every operation is a pure
function, so everything is safe to share across threads.  Ideals are kept
in a canonical minimal form: the generating set is a divisibility
antichain sorted by total degree and then by reverse-lexicographic
exponent vectors.  Two ideals are equal exactly when their canonical
generator tuples are equal.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache, reduce


class RingMismatchError(ValueError):
    """Operands belong to different polynomial rings."""


class IdealArgumentError(ValueError):
    """An ideal argument is degenerate for the requested operation."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Ring:
    """A polynomial ring over an abstract field, given by its ordered variables."""

    variables: tuple[str, ...]

    def __post_init__(self):
        variables = tuple(self.variables)
        if not variables or not all(
            isinstance(v, str) and _NAME_RE.fullmatch(v) for v in variables
        ):
            raise ValueError(f"bad variable names: {variables!r}")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names: {variables!r}")
        object.__setattr__(self, "variables", variables)

    @classmethod
    def of(cls, *names: str) -> "Ring":
        return cls(tuple(names))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def one(self) -> "Monomial":
        return Monomial(self, (0,) * self.nvars)

    def variable(self, index: int) -> "Monomial":
        exps = [0] * self.nvars
        exps[index] = 1
        return Monomial(self, tuple(exps))

    def monomial(self, exponents) -> "Monomial":
        return Monomial(self, tuple(exponents))

    def index_of(self, name: str) -> int:
        return self.variables.index(name)

    def __str__(self):
        return "[" + ", ".join(self.variables) + "]"


@dataclass(frozen=True)
class Monomial:
    """A monomial as a dense vector of nonnegative exponents over a Ring."""

    ring: Ring
    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if len(exps) != self.ring.nvars:
            raise ValueError(
                f"expected {self.ring.nvars} exponents, got {len(exps)}"
            )
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps!r}")
        object.__setattr__(self, "exponents", exps)

    def degree(self) -> int:
        return sum(self.exponents)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exponents) if e > 0)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        _require_same_ring(self, other)
        return Monomial(
            self.ring, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def power(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative power")
        return Monomial(self.ring, tuple(e * k for e in self.exponents))

    def lcm(self, other: "Monomial") -> "Monomial":
        _require_same_ring(self, other)
        return Monomial(
            self.ring, tuple(max(a, b) for a, b in zip(self.exponents, other.exponents))
        )

    def divide_out(self, other: "Monomial") -> "Monomial":
        """self / gcd(self, other), i.e. clamp the quotient at zero exponents."""
        _require_same_ring(self, other)
        return Monomial(
            self.ring,
            tuple(max(a - b, 0) for a, b in zip(self.exponents, other.exponents)),
        )

    def divide_exact(self, other: "Monomial") -> "Monomial":
        _require_same_ring(self, other)
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(
            self.ring, tuple(a - b for a, b in zip(self.exponents, other.exponents))
        )

    def squarefree_part(self) -> "Monomial":
        return Monomial(self.ring, tuple(1 if e > 0 else 0 for e in self.exponents))

    def sort_key(self):
        # Total degree first, then reverse-lexicographic exponent vectors,
        # so (a^2, a*b) and (a^4, a^3*b, a^2*b^2) render in the usual order.
        return (self.degree(), tuple(-e for e in self.exponents))

    def __str__(self):
        if self.is_one():
            return "1"
        parts = []
        for name, e in zip(self.ring.variables, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

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
                exps[ring.index_of(name.strip())] += int(power)
            else:
                exps[ring.index_of(factor)] += 1
        return cls(ring, tuple(exps))


def _require_same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatchError(f"ring mismatch: {a.ring} vs {b.ring}")


def _antichain(gens: tuple[Monomial, ...]) -> tuple[Monomial, ...]:
    """Canonical minimal generating set: sorted divisibility antichain."""
    ordered = sorted(set(gens), key=Monomial.sort_key)
    kept: list[Monomial] = []
    for m in ordered:
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, canonically represented by its minimal generators.

    The zero ideal has an empty generator tuple; the unit ideal has the
    single generator 1.  The constructor canonicalizes whatever it is
    given, so structural equality is ideal equality.
    """

    ring: Ring
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        for g in gens:
            if g.ring != self.ring:
                raise RingMismatchError(f"generator {g} not in {self.ring}")
        object.__setattr__(self, "generators", _antichain(gens))

    @classmethod
    def zero(cls, ring: Ring) -> "MonomialIdeal":
        return cls(ring, ())

    @classmethod
    def unit(cls, ring: Ring) -> "MonomialIdeal":
        return cls(ring, (ring.one(),))

    @classmethod
    def parse(cls, ring: Ring, text: str) -> "MonomialIdeal":
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        parts = [p for p in (p.strip() for p in text.split(",")) if p]
        if parts == ["0"]:
            return cls.zero(ring)
        return cls(ring, tuple(Monomial.parse(ring, p) for p in parts))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_one()

    def contains(self, m: Monomial) -> bool:
        _require_same_ring(self, m)
        return any(g.divides(m) for g in self.generators)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        _require_same_ring(self, other)
        return all(self.contains(g) for g in other.generators)

    def lcm_of_generators(self) -> Monomial:
        if self.is_zero:
            raise IdealArgumentError("zero ideal has no generator lcm")
        return reduce(Monomial.lcm, self.generators)

    def max_exponent(self) -> int:
        return max((e for g in self.generators for e in g.exponents), default=0)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return ideal_sum(self, other)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return ideal_product(self, other)

    def __pow__(self, s: int) -> "MonomialIdeal":
        return ideal_power(self, s)

    def __str__(self):
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


@dataclass(frozen=True)
class MonomialPrime:
    """A prime monomial ideal, generated by the variables in its support."""

    ring: Ring
    support: tuple[int, ...]

    def __post_init__(self):
        support = tuple(sorted(set(int(i) for i in self.support)))
        if any(i < 0 or i >= self.ring.nvars for i in support):
            raise ValueError(f"variable index out of range: {support!r}")
        object.__setattr__(self, "support", support)

    @classmethod
    def of_names(cls, ring: Ring, *names: str) -> "MonomialPrime":
        return cls(ring, tuple(ring.index_of(n) for n in names))

    def as_ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self.ring, tuple(self.ring.variable(i) for i in self.support))

    def contains_monomial(self, m: Monomial) -> bool:
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
    return MonomialIdeal(a.ring, a.generators + b.generators)


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _require_same_ring(a, b)
    if a.is_zero or b.is_zero:
        return MonomialIdeal.zero(a.ring)
    return MonomialIdeal(
        a.ring, tuple(g * h for g in a.generators for h in b.generators)
    )


_POWER_MEMO_SIZE = 1024


@lru_cache(maxsize=_POWER_MEMO_SIZE)
def _power(a: MonomialIdeal, t: int) -> MonomialIdeal:
    """a^t for t >= 1, one product with the a^(t - 1) stored just before.

    ``ideal_power`` asks for t = 1, 2, ... in turn, so recursion stays one
    level deep unless other threads insert 1024 entries between two steps.
    """
    return a if t == 1 else ideal_product(_power(a, t - 1), a)


def ideal_power(a: MonomialIdeal, s: int) -> MonomialIdeal:
    """a^s, from a memo of the last 1024 (ideal, exponent) pairs.

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
    if a.is_zero or b.is_zero:
        return MonomialIdeal.zero(a.ring)
    lcms = {g.lcm(h) for g in a.generators for h in b.generators}
    return MonomialIdeal(a.ring, tuple(lcms))


def intersect_all(ring: Ring, ideals) -> MonomialIdeal:
    """Intersection of a collection of ideals; empty collection gives (1)."""
    result = MonomialIdeal.unit(ring)
    for ideal in ideals:
        result = intersect(result, ideal)
    return result


def colon_monomial(a: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    _require_same_ring(a, m)
    return MonomialIdeal(a.ring, tuple(g.divide_out(m) for g in a.generators))


def colon(a: MonomialIdeal, k: MonomialIdeal) -> MonomialIdeal:
    """The colon ideal a : k.  Colon by the zero ideal is rejected."""
    _require_same_ring(a, k)
    if k.is_zero:
        raise IdealArgumentError("colon by the zero ideal")
    return intersect_all(a.ring, (colon_monomial(a, g) for g in k.generators))


def saturate(a: MonomialIdeal, k: MonomialIdeal) -> MonomialIdeal:
    """a : k^infinity, the intersection over the generators g of k of a : g^infinity.

    a : g^infinity is a with the exponents of supp(g) set to zero
    (Herzog-Hibi, Monomial Ideals, ch. 1), which is a : g^n once n is at
    least every exponent of a.
    """
    _require_same_ring(a, k)
    if k.is_zero:
        raise IdealArgumentError("saturation by the zero ideal")
    n = a.max_exponent()
    return intersect_all(a.ring, (colon_monomial(a, g.power(n)) for g in k.generators))


def radical(a: MonomialIdeal) -> MonomialIdeal:
    return MonomialIdeal(a.ring, tuple(g.squarefree_part() for g in a.generators))


def monomials_below(bound: Monomial):
    """All monomials dividing ``bound`` exponentwise, in a fixed order."""
    ring = bound.ring
    for exps in itertools.product(*(range(e + 1) for e in bound.exponents)):
        yield Monomial(ring, exps)


def monomials_of_degree_at_most(ring: Ring, limit: int):
    """All monomials of total degree <= limit, ordered by the canonical key."""
    out = []
    for total in range(limit + 1):
        for exps in _compositions(total, ring.nvars):
            out.append(Monomial(ring, exps))
    return sorted(out, key=Monomial.sort_key)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
