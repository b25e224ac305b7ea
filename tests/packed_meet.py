"""A tuple reference for the packed divisor kernel ``decomposition._meet``.

``tuple_meet`` is the kernel as it ran on exponent tuples, before it was
packed, and ``tuple_components`` is the Alexander-dual fold on it.
``pack``, ``unpack`` and ``packed_powers`` write and read the layout the
kernel documents (one field of w bits per variable, variable 0 in the
highest field, the top bit of each field a guard that a packed tuple keeps
clear) without the package's own layout code, so a test can run both
kernels on one input and compare them.
"""

import operator

from idealkit import decomposition


def tuple_meet(gens, powers):
    """Minimal generators of (gens) cap (x_j^e_j : (j, e) in powers), on tuples."""
    out = []
    for g in gens:
        for j, e in powers:
            if g[j] >= e:
                out.append(g)
                break
        else:
            for j, e in powers:
                r = g[:j] + (e,) + g[j + 1:]
                b = g[j]
                for h in gens:
                    if h[j] > b and all(map(operator.le, h, r)):
                        break
                else:
                    out.append(r)
    return out


def tuple_components(gens):
    """The irredundant components of the ideal with minimal generator tuples
    ``gens``, as sorted (variable, exponent) pairs, by the Alexander-dual
    fold on tuples (Miller-Sturmfels, Thm 5.27)."""
    top = tuple(map(max, zip(*gens)))

    def flip(u):
        return tuple((i, a + 1 - e) for i, (a, e) in enumerate(zip(top, u)) if e)

    dual = [(0,) * len(top)]
    for g in gens:
        dual = tuple_meet(dual, flip(g))
    return sorted(map(flip, dual), key=lambda c: (len(c), c))


def width(top, spare=0):
    """The field width for exponents up to ``top``: a guard bit above them."""
    return top.bit_length() + 1 + spare


def guard(nvars, w):
    return sum(1 << w - 1 << w * k for k in range(nvars))


def pack(exps, w):
    value = 0
    for e in exps:
        value = value << w | e
    return value


def unpack(value, nvars, w):
    return tuple(value >> w * (nvars - 1 - i) & (1 << w) - 1 for i in range(nvars))


def packed_powers(powers, nvars, w):
    """The (field mask, shifted exponent) pairs of (x_j^e_j : (j, e) in powers)."""
    return [((1 << w) - 1 << w * (nvars - 1 - j), e << w * (nvars - 1 - j)) for j, e in powers]


def unpack_powers(pairs, nvars, w):
    """The (j, e_j) pairs that ``packed_powers`` packed."""
    out = []
    for field, q in pairs:
        shift = (field & -field).bit_length() - 1
        out.append((nvars - 1 - shift // w, q >> shift))
    return out


def packed_meet(gens, powers, spare=0):
    """``decomposition._meet`` on tuples: pack, meet and unpack, with
    ``spare`` bits of field width beyond the least."""
    nvars = len(gens[0])
    w = width(max(max(map(max, gens)), max(e for _, e in powers)), spare)
    out = decomposition._meet(
        [pack(g, w) for g in gens], packed_powers(powers, nvars, w), guard(nvars, w)
    )
    return [unpack(u, nvars, w) for u in out]
