"""Base calculus on finite sets of colors.

Colors are positive integers (not necessarily contiguous: deleting a color
never relabels the rest).  A color set is always a strictly increasing tuple;
these tuples are the single currency used for cube roots, cube types, vertex
spectra and set systems everywhere in the package.  Everything here is pure
and immutable.  colorset canonicalizes color sets where they enter from
callers; inside the package only canonical tuples (from colorset, subsets,
add, minus, union) are passed on, and they are never canonicalized again.
Color sets are coded by position, by one coder pair: _encode makes the
k-th color of a tuple bit k and _decode reads a code back, a byte at a
time, from per-byte tables of color tuples built once per color tuple
(_byte_tables, a bounded cache), so any colors, however large, give codes
of as many bits as the tuple has colors.  The separation kernels read
only the order of the colors, so the predicates and the pairwise pass
(_failing_pairs) code sets in their union (_codes).
"""

from __future__ import annotations

import functools
import itertools
import json

Colors = tuple[int, ...]


def colorset(items) -> Colors:
    """Canonicalize an iterable of colors into a strictly increasing tuple."""
    cs = tuple(sorted(items))
    last = 0
    for c in cs:  # sorted ints rise from 0 exactly when they are positive and distinct
        if type(c) is not int or c <= last:
            break
        last = c
    else:
        return cs
    # the checks below name the first rule broken
    if not {int}.issuperset(map(type, cs)):
        raise ValueError(f"colors must be integers, got {cs}")
    if len(set(cs)) != len(cs):  # past the int check, sorted ints fail b > a only on a repeat
        raise ValueError(f"duplicate colors in {cs}")
    raise ValueError(f"colors must be positive integers, got {cs}")


def _check_dimension(value, name: str = "d") -> int:
    """value, when it is an int (not a bool) of at least 1: the one rule for
    a dimension d or a color count n, named in the message."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def _check_weak_k(k) -> int:
    """k, when it is an odd int (not a bool) of at least 1: the one rule for
    weak k-separation."""
    if type(k) is not int or k % 2 == 0 or k < 1:
        raise ValueError(f"weak separation needs odd k >= 1, got {k!r}")
    return k


def union(a: Colors, b) -> Colors:
    return tuple(sorted(set(a) | set(b)))


def minus(a: Colors, b) -> Colors:
    bs = set(b)
    return tuple(x for x in a if x not in bs)


def inter(a: Colors, b) -> Colors:
    bs = set(b)
    return tuple(x for x in a if x in bs)


def add(a: Colors, i: int) -> Colors:
    """a ∪ {i} for i not in a."""
    out = []
    placed = False
    for x in a:
        if not placed and i < x:
            out.append(i)
            placed = True
        out.append(x)
    if not placed:
        out.append(i)
    return tuple(out)


def subsets(universe, size: int):
    """All size-subsets of the universe as sorted tuples, in lex order."""
    return itertools.combinations(sorted(universe), size)


def is_even(i: int, js: Colors) -> bool:
    """True when the number of members of js above i is even."""
    return sum(1 for j in js if j > i) % 2 == 0


def parity(i: int, js) -> str:
    """Side of color i relative to the set js, as "even" or "odd".

    The colors of js split the integer line into intervals numbered from the
    top down (interval 0 lies above max(js)); i is even when it falls into an
    even-numbered interval.  Equivalently the moment-curve determinant
    det(v_{j_1},...,v_{j_{d-1}}, v_i) is positive exactly for even i; the
    geom module cross-checks this.
    """
    js = colorset(js)
    if i in js:
        raise ValueError(f"color {i} is a member of {js}")
    return "even" if is_even(i, js) else "odd"


def _encode(x, index) -> int:
    """The bitmask of a set of colors by position: color c is bit index[c],
    for index the positions of a color tuple.  A color outside the tuple
    raises KeyError."""
    code = 0
    for c in x:
        code |= 1 << index[c]
    return code


def _decode(code: int, colors: Colors) -> Colors:
    """The inverse of _encode: the colors at the set bits of code, in
    increasing order when the color tuple increases.  It reads the code a
    byte at a time from _byte_tables; a bit at or past the number of
    colors raises IndexError."""
    out = ()
    for table in _byte_tables(colors):
        out += table[code & 255]
        code >>= 8
        if not code:
            return out
    raise IndexError("code has a bit past the colors")


@functools.lru_cache(maxsize=16)
def _byte_tables(colors: Colors) -> tuple[list[Colors], ...]:
    """Per byte k of a code, the tuples of the colors 8k..8k+7 of the tuple,
    indexed by the byte: 256 tuples for a full byte, 2**m for a last byte
    of m colors, so a higher bit there raises IndexError, and the one table
    [()] for no colors.  They take about 2.6 KB per color on a 64-bit build,
    and the cache keeps the tables of 16 color tuples."""
    tables = []
    for k in range(0, len(colors) or 1, 8):
        table = [()]
        for c in colors[k:k + 8]:  # bit m of the byte doubles the table
            table += [t + (c,) for t in table]
        tables.append(table)
    return tuple(tables)


class _Positions(dict):
    """The index _encode reads for the colors 1..n: color c at bit c - 1.
    It answers as the dict {c: c - 1 for c in 1..n} would, a value equal to
    such a c included, but holds only the colors up to 64, which every
    search here stays within: __missing__ answers the others."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__((c, c - 1) for c in range(1, min(n, 64) + 1))
        self.n = n

    def __missing__(self, c) -> int:
        if c.__class__ is not int:
            try:
                i = int(c)
            except (TypeError, ValueError, OverflowError):
                raise KeyError(c) from None
            if i != c:
                raise KeyError(c)
            c = i
        if 64 < c <= self.n:
            return c - 1
        raise KeyError(c)


@functools.lru_cache(maxsize=None)
def _positions(n: int) -> _Positions:
    return _Positions(n)


def _blocks(x: int, y: int) -> int:
    """separation_blocks on codes.  Each turn takes one block: it drops the
    bits of the side owning the lowest bit left of x ^ y that lie below the
    other side's lowest bit, then hands over to the other side."""
    diff = x ^ y
    a, b = x & diff, y & diff
    if b & diff & -diff:
        a, b = b, a
    m = 0
    while a:
        m += 1
        a &= ~((b & -b) - 1)
        a, b = b, a
    return m


def _weak(x: int, y: int, k: int) -> bool:
    """is_weakly_k_separated on codes, for a k _check_weak_k has passed.
    The surrounding side owns the lowest bit of x ^ y (and the highest: the
    k + 2 blocks alternate and k + 2 is odd)."""
    m = _blocks(x, y)
    if m != k + 2:
        return m <= k + 1
    if y & (x ^ y) & -(x ^ y):
        x, y = y, x
    return x.bit_count() <= y.bit_count()


def _runs(x: int) -> int:
    """interval_rank on a code on 1..n: the set bits whose lower neighbour is clear."""
    return (x & ~(x << 1)).bit_count()


def _codes(sets) -> list[int]:
    """The sets coded by position in their union, in which any two keep their order."""
    sets = list(map(tuple, sets))  # read each iterable once
    index = {c: k for k, c in enumerate(sorted(set().union(*sets)))}
    return [_encode(s, index) for s in sets]


def _failing_pairs(sets, fails):
    """The pairs (a, b), a listed before b, whose codes by _codes fail the kernel."""
    for (a, x), (b, y) in itertools.combinations(zip(sets, _codes(sets)), 2):
        if fails(x, y):
            yield a, b


def separation_blocks(x, y) -> int:
    """Number of maximal same-side blocks in the symmetric difference.

    The elements of (x-y) ∪ (y-x) are listed in increasing order and labeled
    by the side they came from; the count of maximal constant-label runs is
    returned.  x and y are r-separated exactly when this is at most r+1; an
    empty symmetric difference gives 0.
    """
    return _blocks(*_codes((x, y)))


def is_r_separated(x, y, r: int) -> bool:
    return _blocks(*_codes((x, y))) <= r + 1


def is_weakly_k_separated(x, y, k: int) -> bool:
    """Weak k-separation for odd k.

    Holds when x and y are k-separated outright, or when their symmetric
    difference splits into exactly k+2 alternating blocks and the surrounding
    set (the one owning the first and last block; well defined since k+2 is
    odd) is no larger than the other one.  Even k is rejected: no sensible
    notion exists there.
    """
    _check_weak_k(k)
    return _weak(*_codes((x, y)), k)


def interval_rank(x) -> int:
    """Minimal number of integer intervals whose union is x."""
    xs = set(x)
    return sum(c - 1 not in xs for c in xs)


def is_peripheral(x, n: int, d: int) -> bool:
    """True when x is the spectrum of a vertex of the ambient zonotope.

    Criterion: interval_rank(x) + interval_rank([n]-x) <= d.  Peripheral sets
    are (d-1)-separated from every subset of [n].  A color outside it is a ValueError.
    """
    try:
        code = _encode(x, _positions(n))
    except KeyError:
        raise ValueError(f"{x} leaves the colors 1..{n}") from None
    if not code:
        return min(n, 1) <= d
    # the runs of [n] - x lie between those of x, and before and after them
    # when colors 1 and n are missing, so no n-bit complement is built
    runs = _runs(code)
    return 2 * runs - 1 + (not code & 1) + (not code >> (n - 1) & 1) <= d


def packet(parent, d: int) -> tuple[Colors, ...]:
    """The packet of a (d+1)-element parent: its d-subsets in lex order.

    For parent {i_1 < ... < i_{d+1}} the lex order, the one itertools.combinations
    yields, is parent-i_{d+1} < parent-i_d < ... < parent-i_1.
    """
    ks = colorset(parent)
    if len(ks) != d + 1:
        raise ValueError(f"parent {ks} must have size {d + 1}")
    return tuple(itertools.combinations(ks, d))


def _set_system_json(n: int, sets) -> str:
    """The JSON form of a set system over [n], its sets written in the given order."""
    return json.dumps({"n": n, "sets": [list(s) for s in sets]})


class SetSystem:
    """A duplicate-free collection of subsets of [n], kept canonically sorted."""

    def __init__(self, n: int, sets):
        if type(n) is not int:
            raise ValueError(f"n must be an integer, got {n!r}")
        self.n = n
        members = [colorset(s) for s in sets]
        canon = sorted(set(members))
        if len(canon) != len(members):
            raise ValueError("duplicate member sets")
        for s in canon:
            if s and s[-1] > self.n:
                raise ValueError(f"member {s} exceeds universe [{self.n}]")
        self.sets: tuple[Colors, ...] = tuple(canon)
        self._members = frozenset(canon)

    def __iter__(self):
        return iter(self.sets)

    def __len__(self):
        return len(self.sets)

    def __contains__(self, s):
        return colorset(s) in self._members

    def __eq__(self, other):
        return isinstance(other, SetSystem) and (self.n, self.sets) == (other.n, other.sets)

    def __hash__(self):
        return hash((self.n, self.sets))

    def __repr__(self):
        return f"SetSystem(n={self.n}, sets={[''.join(map(str, s)) or '-' for s in self.sets]})"

    def to_json(self) -> str:
        return _set_system_json(self.n, self.sets)

    @classmethod
    def from_json(cls, text: str) -> "SetSystem":
        data = json.loads(text)
        return cls(data["n"], data["sets"])
