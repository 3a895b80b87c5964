"""Inversion masks: a cubillage of Z(n,d) as a bitmask over the (d+1)-subsets
of its colors, which fixes it, the packet table behind consistency, flips
and enumeration, the root rule of cubillages and their membranes, the
tunnel chains of the natural order, and the lift rule of the canonical extension
(Manin-Schechtman 1989; Ziegler, Topology 1993).  Colors are indexed by
position, the k-th smallest color being k.  Tables hold bit numbers, never
masks, so they stay linear in the number of packets; a mask is read through
its flags, the string with bit k at index k.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .colors import Colors, add, is_even, subsets, union
from .cubillage import Cubillage, CubillageError


@functools.lru_cache(maxsize=None)
def _bits(n: int, d: int) -> dict[Colors, int]:
    """Bit k of an inversion mask stands for the k-th (d+1)-subset of [n] in lex order."""
    return {k: i for i, k in enumerate(subsets(range(1, n + 1), d + 1))}


def _flags(inv: int, size: int) -> str:
    return bin(inv)[:1:-1].ljust(size, "0")


def _mask(n: int, d: int, inverted) -> int:
    """The mask of the (d+1)-subsets K of [n] for which inverted(K) holds."""
    return int("".join("01"[inverted(k)] for k in _bits(n, d))[::-1] or "0", 2)


def _lift(n: int, d: int, below) -> int:
    """The mask of Z(n,d) inverting each (d+1)-subset K of [n] with K - max K
    not in below, a consistent set of d-subsets: the canonical extension of
    the cubillage of Z(n,d-1) whose inversion set is below.  Its cubillage
    holds below as a stack, the membrane of which has inversion set below."""
    return _mask(n, d, lambda k: k[:-1] not in below)


@functools.lru_cache(maxsize=None)
def _packets(n: int, d: int) -> dict:
    """Per (d+2)-subset of [n], the bits of its packet in lex order and a
    getter of their flags."""
    bit = _bits(n, d)
    out = {}
    for p in subsets(range(1, n + 1), d + 2):
        members = tuple(bit[k] for k in itertools.combinations(p, d + 1))
        out[p] = (members, operator.itemgetter(*members))
    return out


@functools.lru_cache(maxsize=None)
def _blocked(size: int) -> dict:
    """For a packet of the given size, per flags of a prefix or a suffix of
    its lex order (as a _packets getter reads them), the members whose
    toggle leaves neither; flags missing here are inconsistent."""
    ends = {"1" * i + "0" * (size - i) for i in range(size + 1)}
    ends |= {r[::-1] for r in ends}
    get = operator.itemgetter(*range(size))
    return {get(r): tuple(i for i in range(size)
                          if r[:i] + "01"[r[i] == "0"] + r[i + 1:] not in ends)
            for r in ends}


def _steps(n: int, d: int, inv: int) -> int | None:
    """The bits whose toggle keeps the mask inv consistent, that is, meeting
    every packet in a prefix or a suffix (adding one is a raising flip,
    removing one a lowering flip); None when inv itself is not consistent."""
    size, table = len(_bits(n, d)), _blocked(d + 2)
    flags, free = _flags(inv, size), bytearray(b"1" * size)
    for members, get in _packets(n, d).values():
        blocked = table.get(get(flags))
        if blocked is None:
            return None
        for i in blocked:
            free[members[i]] = 48  # "0"
    return int(free[::-1] or b"0", 2)


def _can_toggle(n: int, d: int, inv: int, parent: Colors) -> bool:
    """Whether the parent, by positions, is a step of inv; only the packets
    through it are read."""
    bit, table = _bits(n, d), _blocked(d + 2)
    k, flags = bit[parent], _flags(inv, len(bit))
    through = (_packets(n, d)[add(parent, c)] for c in range(1, n + 1) if c not in parent)
    return all(members.index(k) not in table[get(flags)] for members, get in through)


@functools.lru_cache(maxsize=None)
def _roots(n: int, d: int) -> tuple[tuple[Colors, tuple[tuple[int, int, str], ...]], ...]:
    """Per type T, the triples (c, bit of T ∪ {c}, its flag when c is in
    root(T)) for the colors c outside T: by the root rule, c is in root(T)
    exactly when (T ∪ {c} is an inversion) == is_even(c, T)."""
    bit = _bits(n, d)
    colors = range(1, n + 1)
    return tuple(
        (t, tuple((c, bit[add(t, c)], "01"[is_even(c, t)]) for c in colors if c not in t))
        for t in subsets(colors, d))


@functools.lru_cache(maxsize=None)
def _root_rows(n: int, d: int) -> tuple[tuple[Colors, ...], tuple]:
    """_roots(n, d) laid out for reading many masks: the types in lex order,
    and per type a getter of the flags of its bits T ∪ {c} (from a flags
    string), those colors c and their flags that put c in root(T)."""
    types, rows = [], []
    for t, row in _roots(n, d):
        types.append(t)
        # a lone bit reads as one character and no bit (n = d) as "", both
        # zipped like the tuple of flags that several bits read as
        get = operator.itemgetter(*(k for _, k, _ in row)) if row else operator.itemgetter(slice(0))
        rows.append((get, tuple(c for c, _, _ in row), "".join(flag for _, _, flag in row)))
    return tuple(types), tuple(rows)


def _roots_of_mask(n: int, d: int, inv: int, memo: dict) -> tuple[Colors, ...]:
    """The roots of the cubillage of Z(n,d) with the consistent inversion
    mask inv, in type order.  memo maps the flags a row reads to the root
    they give; one memo serves many masks of one Z(n,d), and the caller
    drops it with them."""
    flags = _flags(inv, len(_bits(n, d)))
    out = []
    for get, colors, want in _root_rows(n, d)[1]:
        pattern = get(flags)
        root = memo.get((get, pattern))
        if root is None:
            root = memo[get, pattern] = tuple(
                c for c, flag, w in zip(colors, pattern, want) if flag == w)
        out.append(root)
    return tuple(out)


def _cubillage_of_mask(n: int, d: int, inv: int, colors: Colors = (),
                       roots: tuple[Colors, ...] | None = None) -> Cubillage:
    """The cubillage of Z(n,d) with the given consistent inversion mask, on
    the given canonical n colors (by default 1..n); roots, when given, are
    its _roots_of_mask, else they are read here off _roots, which on a
    single mask is faster than filling a memo."""
    if roots is None:
        flags = _flags(inv, len(_bits(n, d)))
        roots = [tuple([c for c, k, flag in row if flags[k] == flag]) for _, row in _roots(n, d)]
    types = _root_rows(n, d)[0]
    if colors and colors[-1] != n:
        cubes = [(tuple(colors[i - 1] for i in r), tuple(colors[i - 1] for i in t))
                 for r, t in zip(roots, types)]
    else:
        cubes = zip(roots, types)
    q = Cubillage._trusted(colors or tuple(range(1, n + 1)), d, cubes)
    q._cache["mask"] = inv
    return q


@functools.lru_cache(maxsize=None)
def _tunnels(n: int, d: int) -> tuple:
    """Per (d-1)-subset J of [n], the lex numbers of the d-subsets J ∪ {c}
    of its tunnel, c outside J increasing, and per pair of indices a < b
    into them, (a, b, bit of the union of the two).  In a cubillage the
    tunnel is a chain, its a-th type below its b-th unless their union is
    an inversion, and its consecutive types are covers of the natural order."""
    number, bit, out = _bits(n, d - 1), _bits(n, d), []
    for j in subsets(range(1, n + 1), d - 1):
        tunnel = [add(j, c) for c in range(1, n + 1) if c not in j]
        pairs = itertools.combinations(range(len(tunnel)), 2)
        out.append((tuple(number[t] for t in tunnel),
                    tuple((a, b, bit[union(tunnel[a], tunnel[b])]) for a, b in pairs)))
    return tuple(out)


def _mask_of(q: Cubillage) -> int:
    """q's inversion mask, cached on q once q passes a validity certificate
    (else CubillageError): the type map is exactly the d-subsets of the
    colors, the mask read from the roots is consistent, and the root rule
    gives back every root from it, so q is the cubillage of a consistent
    inversion set."""
    if "mask" in q._cache:
        return q._cache["mask"]
    n, d, roots = q.n, q.d, q._root_by_type
    if q.colors and q.colors[-1] != n:
        pos = {c: i for i, c in enumerate(q.colors, 1)}
        roots = {tuple(pos.get(c, 0) for c in t): tuple(pos.get(c, 0) for c in r)
                 for t, r in roots.items()}
    if n < d or len(roots) != len(_roots(n, d)) or any(t not in roots for t, _ in _roots(n, d)):
        raise CubillageError("type map is not a bijection onto the d-subsets of the colors")
    inv = _mask(n, d, lambda k: k[-1] in roots[k[:-1]])
    if _steps(n, d, inv) is None:
        raise CubillageError("the inversion set read from the roots is not consistent")
    if _cubillage_of_mask(n, d, inv)._root_by_type != roots:
        raise CubillageError("the roots break the root rule of their inversion set")
    q._cache["mask"] = inv
    return inv


@functools.lru_cache(maxsize=None)
def _restrictions(n: int, d: int) -> tuple[tuple[int, int, int], ...]:
    """Per (d+1)-subset K of [n] in bit order, as vertex bits (bit i-1 for
    color i): K, and the one subset of K missing from the spectrum of the
    standard and of the antistandard cubillage of Z(K,d)."""
    every = set(itertools.chain.from_iterable(
        itertools.combinations(range(1, d + 2), k) for k in range(d + 2)))
    standard, antistandard = ((every - _cubillage_of_mask(d + 1, d, inv).vertices()).pop()
                              for inv in (0, 1))
    return tuple((sum(1 << (c - 1) for c in k),
                  sum(1 << (k[i - 1] - 1) for i in standard),
                  sum(1 << (k[i - 1] - 1) for i in antistandard)) for k in _bits(n, d))


def _mask_of_spectra(n: int, d: int, vertex_bits) -> int | None:
    """The inversion mask read off a set system of [n], given as vertex bits.

    The restriction of the spectrum of a cubillage of Z(n,d) to a
    (d+1)-subset K is the spectrum of its restriction to Z(K,d): the
    standard cubillage when K is no inversion, the antistandard one when it
    is.  Either misses one subset of K, its own.  None when some restriction
    is not all subsets of K but one of these two, or when the mask read is
    not consistent.  Not a certificate on its own: the caller compares the
    spectrum of the cubillage of the mask with the input.
    """
    inv, size = 0, (1 << (d + 1)) - 1
    for bit, (k, standard, antistandard) in enumerate(_restrictions(n, d)):
        seen = {v & k for v in vertex_bits}
        if len(seen) != size:
            return None
        if standard in seen:
            if antistandard in seen:
                return None
            inv |= 1 << bit
    return inv if _steps(n, d, inv) is not None else None
