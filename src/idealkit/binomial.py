"""Sums of ideals living in disjoint sets of variables.

Builds the joined ring, extends ideals and primes into it, evaluates the
binomial expansions for saturated and symbolic powers, and packages the
identity / structure checks that the fuzz driver and the test suite run.
The ``direct_*`` functions compute the left-hand sides from first
principles (power, then saturate or decompose, in the joined ring) so the
expansions are always compared against an independent route.
"""

from __future__ import annotations

from functools import partial

from .core import (
    IdealArgumentError,
    MonomialIdeal,
    MonomialPrime,
    Ring,
    _ideal,
    _Value,
    _whole_numbers,
    colon,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    saturate,
)
from .decomposition import (
    _inside_some,
    _mask,
    _supports,
    ass_module_quotient,
    ass_module_quotient_exhaustive,
    ass_star_bounded,
)
from .powers import (
    NOTIONS,
    _binomial_sum,
    _require_notion,
    _require_positive,
    _saturator,
    _symbolic_direct,
    saturated_power,
    symbolic_power,
)


class RingEmbedding(_Value):
    """Injective, degree-preserving relabeling of one ring's variables into another."""

    __match_args__ = ("source", "target", "index_map")

    def __init__(self, source: Ring, target: Ring, index_map: tuple[int, ...]):
        index_map = _whole_numbers(index_map)
        if len(index_map) != source.nvars:
            raise ValueError("index map must cover every source variable")
        if len(set(index_map)) != len(index_map):
            raise ValueError("index map must be injective")
        if any(i < 0 or i >= target.nvars for i in index_map):
            raise ValueError("index map out of range")
        super().__init__(source, target, index_map)


def join_rings(a: Ring, b: Ring) -> tuple[Ring, RingEmbedding, RingEmbedding]:
    """Concatenate two rings; colliding names get the smallest free _k suffix."""
    names = list(a.variables)
    used = set(names)
    for name in b.variables:
        candidate = name
        k = 1
        while candidate in used:
            candidate = f"{name}_{k}"
            k += 1
        names.append(candidate)
        used.add(candidate)
    joined = Ring(tuple(names))
    emb_a = RingEmbedding(a, joined, tuple(range(a.nvars)))
    emb_b = RingEmbedding(b, joined, tuple(range(a.nvars, a.nvars + b.nvars)))
    return joined, emb_a, emb_b


def extend(ideal: MonomialIdeal, emb: RingEmbedding) -> MonomialIdeal:
    if ideal.ring != emb.source:
        raise IdealArgumentError("ideal does not live in the embedding source")
    zeros = [0] * emb.target.nvars
    extended = []
    for g in ideal._exps:
        exps = zeros.copy()
        for i, e in zip(emb.index_map, g):
            exps[i] = e
        extended.append(tuple(exps))
    return _ideal(emb.target, extended)


def prime_sum(
    p: MonomialPrime, q: MonomialPrime, emb_a: RingEmbedding, emb_b: RingEmbedding
) -> MonomialPrime:
    return MonomialPrime(
        emb_a.target,
        tuple(emb_a.index_map[i] for i in p.support)
        + tuple(emb_b.index_map[j] for j in q.support),
    )


def joined_sum(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal
) -> tuple[Ring, RingEmbedding, RingEmbedding, MonomialIdeal]:
    joined, emb_a, emb_b = join_rings(ideal_a.ring, ideal_b.ring)
    total = ideal_sum(extend(ideal_a, emb_a), extend(ideal_b, emb_b))
    return joined, emb_a, emb_b, total


def _sides(i: MonomialIdeal, j: MonomialIdeal, s: int, power_a, power_b):
    """The joined ring of I and J, with power_a(t) and power_b(t) for
    t = 0..s extended into it: the two sides of a binomial expansion."""
    joined, emb_a, emb_b = join_rings(i.ring, j.ring)
    side_a = [extend(power_a(t), emb_a) for t in range(s + 1)]
    side_b = [extend(power_b(t), emb_b) for t in range(s + 1)]
    return joined, side_a, side_b


def binomial_saturated(
    i: MonomialIdeal, k: MonomialIdeal, j: MonomialIdeal, l: MonomialIdeal, s: int
) -> MonomialIdeal:
    """Sum over t of (I^t : K^inf) * (J^(s-t) : L^inf), in the joined ring."""
    _require_positive(s)
    return _binomial_sum(
        *_sides(i, j, s, partial(saturated_power, i, k), partial(saturated_power, j, l))
    )


def direct_saturated_sum(
    i: MonomialIdeal, k: MonomialIdeal, j: MonomialIdeal, l: MonomialIdeal, s: int
) -> MonomialIdeal:
    """(I+J)^s : (KL)^infinity computed head-on in the joined ring."""
    if i.is_zero or k.is_zero or j.is_zero or l.is_zero:
        raise IdealArgumentError("saturated power needs nonzero ideals")
    _, emb_a, emb_b, total = joined_sum(i, j)
    kl = ideal_product(extend(k, emb_a), extend(l, emb_b))
    return saturated_power(total, kl, s)


def binomial_symbolic(
    i: MonomialIdeal, j: MonomialIdeal, s: int, notion: str
) -> MonomialIdeal:
    """Sum over t of symbolic(I, t) * symbolic(J, s-t), in the joined ring."""
    _require_positive(s)
    if i.is_unit or j.is_unit:
        raise IdealArgumentError("binomial symbolic expansion needs proper ideals")
    power_i = partial(symbolic_power, i, notion=notion)
    power_j = partial(symbolic_power, j, notion=notion)
    return _binomial_sum(*_sides(i, j, s, power_i, power_j))


def symbolic_of_sum(
    i: MonomialIdeal, j: MonomialIdeal, s: int, notion: str
) -> MonomialIdeal:
    """Symbolic power of I+J computed directly in the joined ring.

    This is the decomposition route (``_symbolic_direct``), never the
    binomial fast path of ``symbolic_power``, which would check the
    expansion against itself.
    """
    _require_notion(notion)
    _, _, _, total = joined_sum(i, j)
    return _symbolic_direct(total, s, notion)


class TermInclusionReport(_Value):
    """Each term of the expansion is contained in the direct saturation."""

    __match_args__ = ("term_included",)

    @property
    def passed(self) -> bool:
        return all(self.term_included)

    def __str__(self):
        terms = ",".join("yes" if t else "no" for t in self.term_included)
        return f"terms={terms} inclusion={'pass' if self.passed else 'FAIL'}"


def check_term_inclusions(
    i: MonomialIdeal, k: MonomialIdeal, j: MonomialIdeal, l: MonomialIdeal, s: int
) -> TermInclusionReport:
    _require_positive(s)
    direct = direct_saturated_sum(i, k, j, l, s)
    _, side_a, side_b = _sides(
        i, j, s, partial(saturated_power, i, k), partial(saturated_power, j, l)
    )
    terms = map(ideal_product, side_a, reversed(side_b))
    return TermInclusionReport(tuple(direct.contains_ideal(term) for term in terms))


def _equal_to_powers(power, ideal: MonomialIdeal, s: int) -> tuple[bool, ...]:
    """Whether power(t) == I^t, for t = 1..s."""
    return tuple(power(t) == ideal_power(ideal, t) for t in range(1, s + 1))


class EqualityCriteriaReport(_Value):
    """Joint equality of saturated and ordinary powers versus the componentwise ones."""

    __match_args__ = ("i_equal", "j_equal", "joint_equal")

    @property
    def componentwise(self) -> bool:
        return all(self.i_equal) and all(self.j_equal)

    @property
    def passed(self) -> bool:
        return self.joint_equal == self.componentwise

    def __str__(self):
        return (
            f"joint={'yes' if self.joint_equal else 'no'} "
            f"componentwise={'yes' if self.componentwise else 'no'} "
            f"biconditional={'pass' if self.passed else 'FAIL'}"
        )


def check_equality_criteria(
    i: MonomialIdeal, k: MonomialIdeal, j: MonomialIdeal, l: MonomialIdeal, s: int
) -> EqualityCriteriaReport:
    """Joint equality holds iff every componentwise equality holds, for i <= s.

    Powers of a nonzero proper monomial ideal never repeat, so the
    hypothesis of the converse direction holds automatically.
    """
    _require_positive(s)
    if i.is_zero or i.is_unit or j.is_zero or j.is_unit:
        raise IdealArgumentError("equality criteria need nonzero proper ideals")
    i_eq = _equal_to_powers(lambda t: saturated_power(i, k, t), i, s)
    j_eq = _equal_to_powers(lambda t: saturated_power(j, l, t), j, s)
    _, _, _, total = joined_sum(i, j)
    joint = direct_saturated_sum(i, k, j, l, s) == ideal_power(total, s)
    return EqualityCriteriaReport(i_eq, j_eq, joint)


class SymbolicEqualityReport(_Value):
    """If the symbolic power of the sum is ordinary, both sides' must be too."""

    __match_args__ = ("joint_equal", "i_equal", "j_equal")

    @property
    def passed(self) -> bool:
        if not self.joint_equal:
            return True
        return all(self.i_equal) and all(self.j_equal)

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"joint={'yes' if self.joint_equal else 'no'} implication={status}"


def check_symbolic_equality_implication(
    i: MonomialIdeal, j: MonomialIdeal, s: int
) -> SymbolicEqualityReport:
    """If (I+J)^(s) = (I+J)^s for the "ass" notion, then I^(t) = I^t and
    J^(t) = J^t for t = 1..s; every symbolic power on the decomposition route."""
    _require_positive(s)
    if i.is_zero or i.is_unit or j.is_zero or j.is_unit:
        raise IdealArgumentError("implication check needs nonzero proper ideals")
    _, _, _, total = joined_sum(i, j)
    joint = _symbolic_direct(total, s, "ass") == ideal_power(total, s)
    i_eq = _equal_to_powers(lambda t: _symbolic_direct(i, t, "ass"), i, s)
    j_eq = _equal_to_powers(lambda t: _symbolic_direct(j, t, "ass"), j, s)
    return SymbolicEqualityReport(joint, i_eq, j_eq)


class AssStructureReport(_Value):
    """Associated-prime structure of powers of a sum in disjoint variables."""

    __match_args__ = (
        "tensor_ass_equal",
        "lower_bound_holds",
        "upper_bound_holds",
        "quotient_ass_agrees",
        "grade_dichotomy_holds",
        "saturator_min_equal",
        "saturator_ass_equal",
        "stabilized",
    )

    @property
    def inconclusive(self) -> bool:
        return not self.stabilized

    @property
    def passed(self) -> bool:
        checks = [
            self.tensor_ass_equal,
            self.lower_bound_holds,
            self.upper_bound_holds,
            self.quotient_ass_agrees,
            self.grade_dichotomy_holds,
        ]
        if self.saturator_min_equal is not None:
            checks.append(self.saturator_min_equal)
        if self.saturator_ass_equal is not None:
            checks.append(self.saturator_ass_equal)
        return all(checks)

    def __str__(self):
        bits = [
            f"tensor={self.tensor_ass_equal}",
            f"lower={self.lower_bound_holds}",
            f"upper={self.upper_bound_holds}",
            f"quotients={self.quotient_ass_agrees}",
            f"grade={self.grade_dichotomy_holds}",
            f"global_min={self.saturator_min_equal}",
            f"global_ass={self.saturator_ass_equal}",
        ]
        if self.inconclusive:
            bits.append("inconclusive")
        return " ".join(bits)


def _ass_star_bound(s: int) -> int:
    """The checks at power s >= 1 read Ass*(I) through n_max = s + 2 powers."""
    return s + 2


def check_ass_structure(
    i: MonomialIdeal, j: MonomialIdeal, s: int, n_max: int | None = None
) -> AssStructureReport:
    """Tensor Ass equality, power-quotient bounds, grade additivity, and the
    global-saturator identities, all in the joined ring.

    The corner-form quotient Ass computation is compared against the
    box-complete oracle on every power it touches; a disagreement fails
    the report.  Every Ass set is read as support bitmasks (``_supports``).
    ``join_rings`` puts J's variables after I's, so the prime sum P + Q of
    masks p and q is ``p | q << shift`` with shift the number of I's
    variables.  The grade check takes every prime P of I's ring and Q of
    J's ring, and tests grade(P + Q) = 0 iff grade(P) = 0 and grade(Q) = 0,
    each by prime avoidance (``_inside_some``) on the Ass sets in hand.
    """
    _require_positive(s)
    if i.is_zero or i.is_unit or j.is_zero or j.is_unit:
        raise IdealArgumentError("structure check needs nonzero proper ideals")
    if n_max is None:
        n_max = _ass_star_bound(s)
    _, emb_a, emb_b, total = joined_sum(i, j)
    shift = i.ring.nvars

    ass_i = _supports(i)
    ass_j = _supports(j)
    ass_total = _supports(total)
    tensor_equal = {p | q << shift for p in ass_i for q in ass_j} == ass_total

    quotient_agrees = True

    def quotient_ass(ideal, index):
        nonlocal quotient_agrees
        corners = ass_module_quotient(ideal, index)
        oracle = ass_module_quotient_exhaustive(ideal, index)
        if corners != oracle:
            quotient_agrees = False
        return {_mask(p.support) for p in oracle}

    power_total = ideal_power(total, s)
    ass_power_total = _supports(power_total)
    lower: set[int] = set()
    upper: set[int] = set()
    for t in range(1, s + 1):
        q_i = quotient_ass(i, t)
        q_j = quotient_ass(j, s - t + 1)
        lower |= {p | q << shift for p in q_i for q in q_j}
        ass_power_i = _supports(ideal_power(i, t))
        upper |= {p | q << shift for p in ass_power_i for q in q_j}
    lower_holds = lower <= ass_power_total
    upper_holds = ass_power_total <= upper

    grade_holds = all(
        _inside_some(p | q << shift, ass_total)
        == (_inside_some(p, ass_i) and _inside_some(q, ass_j))
        for p in range(1, 1 << shift)
        for q in range(1, 1 << j.ring.nvars)
    )

    star_i, stab_i = ass_star_bounded(i, n_max)
    star_j, stab_j = ass_star_bounded(j, n_max)
    stabilized = stab_i and stab_j
    saturator_equal = dict.fromkeys(NOTIONS)
    if stabilized:
        for notion in NOTIONS:
            k = extend(_saturator(i, star_i, notion), emb_a)
            l = extend(_saturator(j, star_j, notion), emb_b)
            saturator_equal[notion] = saturate(
                power_total, ideal_product(k, l)
            ) == _symbolic_direct(total, s, notion)

    return AssStructureReport(
        tensor_ass_equal=tensor_equal,
        lower_bound_holds=lower_holds,
        upper_bound_holds=upper_holds,
        quotient_ass_agrees=quotient_agrees,
        grade_dichotomy_holds=grade_holds,
        saturator_min_equal=saturator_equal["min"],
        saturator_ass_equal=saturator_equal["ass"],
        stabilized=stabilized,
    )


class FiltrationReport(_Value):
    """Exact intersection and colon identities for binomial-type sums."""

    __match_args__ = (
        "premises_ok",
        "disjoint_product_equal",
        "sum_intersection_equal",
        "single_step_equal",
        "long_intersection_equal",
        "colon_distributes",
    )

    @property
    def passed(self) -> bool:
        return (
            self.premises_ok
            and self.disjoint_product_equal
            and self.sum_intersection_equal
            and self.single_step_equal
            and self.long_intersection_equal
            and self.colon_distributes
        )

    def __str__(self):
        return (
            f"premises={self.premises_ok} disjoint={self.disjoint_product_equal} "
            f"sum={self.sum_intersection_equal} step={self.single_step_equal} "
            f"long={self.long_intersection_equal} colon={self.colon_distributes}"
        )


def _validate_filtration(terms: list[MonomialIdeal], s: int) -> bool:
    """Index 0 is the unit ideal; descending; closed under term products."""
    if len(terms) < s + 1 or not terms[0].is_unit:
        return False
    for t in range(s):
        if not terms[t].contains_ideal(terms[t + 1]):
            return False
    for a in range(s + 1):
        for b in range(s + 1 - a):
            if not terms[a + b].contains_ideal(ideal_product(terms[a], terms[b])):
                return False
    return True


def check_filtration_identities(
    i_filtration,
    k_filtration,
    j_filtration,
    colon_ideal: MonomialIdeal,
    s: int,
) -> FiltrationReport:
    """Intersection and colon identities for sums of filtration products.

    The filtration arguments list the terms of index 1..s (or more); the
    unit ideal is prepended as index 0.  ``colon_ideal`` must be a nonzero
    ideal on the same side as the first two filtrations.
    """
    _require_positive(s)
    i_terms = list(i_filtration)
    k_terms = list(k_filtration)
    j_terms = list(j_filtration)
    if not i_terms or not j_terms or not k_terms:
        raise IdealArgumentError("empty filtration")
    ring_a = i_terms[0].ring
    ring_b = j_terms[0].ring
    i_terms = [MonomialIdeal.unit(ring_a)] + i_terms
    k_terms = [MonomialIdeal.unit(ring_a)] + k_terms
    j_terms = [MonomialIdeal.unit(ring_b)] + j_terms
    premises = (
        _validate_filtration(i_terms, s)
        and _validate_filtration(k_terms, s)
        and _validate_filtration(j_terms, s)
        and not colon_ideal.is_zero
        and colon_ideal.ring == ring_a
    )
    if not premises:
        return FiltrationReport(False, False, False, False, False, False)

    joined, emb_a, emb_b = join_rings(ring_a, ring_b)
    ext_i = [extend(t, emb_a) for t in i_terms[: s + 1]]
    ext_k = [extend(t, emb_a) for t in k_terms[: s + 1]]
    ext_j = [extend(t, emb_b) for t in j_terms[: s + 1]]

    disjoint = ideal_product(ext_i[1], ext_j[1]) == intersect(ext_i[1], ext_j[1])

    lhs_sum = intersect(
        ideal_sum(ext_i[1], ext_j[1]), ideal_sum(ext_k[1], ext_j[1])
    )
    rhs_sum = ideal_sum(intersect(ext_i[1], ext_k[1]), ext_j[1])
    sum_equal = lhs_sum == rhs_sum

    # Slices keep the terms a[t] * b[s - t] for t <= s - 2 and t <= s - 1.
    partial_sum = ideal_sum(_binomial_sum(joined, ext_i[: s - 1], ext_j[2:]), ext_i[s - 1])
    step_equal = intersect(ext_j[1], partial_sum) == _binomial_sum(joined, ext_i[:s], ext_j[1:])

    sum_ij = _binomial_sum(joined, ext_i, ext_j)
    lhs_long = intersect(sum_ij, _binomial_sum(joined, ext_k, ext_j))
    rhs_long = _binomial_sum(joined, [intersect(a, k) for a, k in zip(ext_i, ext_k)], ext_j)
    long_equal = lhs_long == rhs_long

    lhs_colon = colon(sum_ij, extend(colon_ideal, emb_a))
    colons = [extend(colon(t, colon_ideal), emb_a) for t in i_terms[: s + 1]]
    colon_equal = lhs_colon == _binomial_sum(joined, colons, ext_j)

    return FiltrationReport(
        premises_ok=True,
        disjoint_product_equal=disjoint,
        sum_intersection_equal=sum_equal,
        single_step_equal=step_equal,
        long_intersection_equal=long_equal,
        colon_distributes=colon_equal,
    )
