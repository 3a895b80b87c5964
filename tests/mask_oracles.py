"""Test oracles of the inversion masks.  The raising-flip search of B(n,d)
without carried state, kept as the oracle of bruhat._masks: every mask
popped has all its packets read again by masks._steps.  The per-subset
reader of a mask off vertex spectra, kept as the oracle of
masks._mask_of_spectra: it restricts every member to every (d+1)-subset.
The tunnel chains read off an inversion mask, kept as the oracle of
order._chain_covers, which reads them off the roots: each tunnel is
sorted by how many of its types lie below each, pair by pair."""

import functools
import itertools
from math import comb

from zonocube.colors import add, subsets, union
from zonocube.cubillage import antistandard, standard
from zonocube.masks import _bits, _flags, _steps


def masks_oracle(n: int, d: int) -> dict[int, int]:
    """The consistent inversion masks of Z(n,d), each mapped to its raising
    steps, by a depth-first search from the empty mask with no state cap."""
    found = {0: 0}
    todo = [0]
    while todo:
        inv = todo.pop()
        steps = found[inv] = _steps(n, d, inv) & ~inv
        while steps:
            b = steps & -steps
            steps ^= b
            up = inv | b
            if up not in found:
                found[up] = 0
                todo.append(up)
    return found


def restrictions_oracle(n: int, d: int) -> tuple[tuple[int, int, int], ...]:
    """Per (d+1)-subset K of [n] in lex order, as vertex bits: K, and the
    subset of K missing from the vertices of standard and of antistandard
    Z(K,d), read off the vertex sets of Z(d+1,d)."""
    colors = tuple(range(1, d + 2))
    every = {s for k in range(d + 2) for s in itertools.combinations(colors, k)}
    missing = [(every - extreme(colors, d).vertices()).pop()
               for extreme in (standard, antistandard)]
    return tuple((sum(1 << (c - 1) for c in k),
                  *(sum(1 << (k[i - 1] - 1) for i in m) for m in missing))
                 for k in subsets(range(1, n + 1), d + 1))


def mask_of_spectra_oracle(n: int, d: int, codes) -> int | None:
    """The inversion mask read off a set system of n colors, its members
    given as position codes: per (d+1)-subset K, the members restricted to
    K must be all subsets of K but the one the standard or the antistandard
    cubillage of Z(K,d) misses, and K is an inversion when the standard
    one's is present.  None when some restriction is neither, or when the
    mask read is not consistent."""
    inv, size = 0, (1 << (d + 1)) - 1
    for bit, (k, below, above) in enumerate(restrictions_oracle(n, d)):
        seen = {v & k for v in codes}
        if len(seen) != size:
            return None
        if below in seen:
            if above in seen:
                return None
            inv |= 1 << bit
    return inv if _steps(n, d, inv) is not None else None


@functools.lru_cache(maxsize=None)
def _tunnels(n: int, d: int) -> tuple:
    """Per (d-1)-subset J of [n], the lex numbers of the d-subsets J ∪ {c}
    of its tunnel, c outside J increasing, and per pair of indices a < b
    into them, (a, b, bit of the union of the two)."""
    number, bit, out = _bits(n, d - 1), _bits(n, d), []
    for j in subsets(range(1, n + 1), d - 1):
        tunnel = [add(j, c) for c in range(1, n + 1) if c not in j]
        pairs = itertools.combinations(range(len(tunnel)), 2)
        out.append((tuple(number[t] for t in tunnel),
                    tuple((a, b, bit[union(tunnel[a], tunnel[b])]) for a, b in pairs)))
    return tuple(out)


def tunnel_covers_oracle(colors, d: int, inv: int) -> list:
    """The consecutive pairs (below, above) of every tunnel chain of the
    cubillage of Z(colors,d) with the consistent inversion mask inv, as
    types, tunnels in lex order of J: the a-th type of a tunnel lies below
    its b-th (a < b) unless their union is an inversion."""
    flags, types, covers = _flags(inv, comb(len(colors), d + 1)), list(subsets(colors, d)), []
    for tunnel, pairs in _tunnels(len(colors), d):
        below = [0] * len(tunnel)  # per type, how many of its tunnel lie below it
        for a, b, k in pairs:
            below[a if flags[k] == "1" else b] += 1
        chain = [types[t] for _, t in sorted(zip(below, tunnel))]
        covers += zip(chain, chain[1:])
    return covers
