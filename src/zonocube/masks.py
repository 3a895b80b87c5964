"""Inversion masks: a cubillage of Z(n,d) as a bitmask over the (d+1)-subsets
of its colors, which fixes it, the packet table behind consistency and
flips, the blocking counts a cubillage carries along its flips, the
transition table that carries a mask's packet state along a raising step
of the rank-by-rank enumeration in bruhat._masks (_raises: a step by K
changes only the n-d-1 packets through K), the root rule of cubillages and
their membranes, the flip rule on root tables (a flip of the parent K
changes only the d+1 roots of the types K - {c}, c in K), and the lift
rule of the canonical extension (Manin-Schechtman 1989; Ziegler, Topology
1993).  The natural order reads its tunnel chains off the roots of a
cubillage this module certifies (order._chain_covers).
_blocking is the one fresh scan of every packet: per bit, the number of
packets that block it, a bit being free to toggle when none does (_steps).
_mask_of keeps the counts of the mask it certifies on the cubillage beside
the mask, and _flipped, the flip of apply_flip, carries them: it reads only
the packets through the flipped bit (_through), so no cubillage of a flip
walk has its packets scanned again.
The flip rule is written once, in _flip: _flipped patches a copy of its
input's table with it, and _walk carries the roots of every mask of
an enumeration along its raising steps, one parent's roots copied and
d+1 patched per mask, so no mask's roots are read again.  The walk
carries either root tuples in type order or one type -> root dict per
mask, which an enumerated cubillage adopts as it is: a dict copy keeps
its keys' hashes, so no type tuple is hashed again per cubillage.  Bit
k of a mask stands for the (d+1)-subset of lex number k, the numbering of
the types of Z(n,d+1) (cubillage._lex), and this is the one module that
reads masks by bit and knows the flag strings: its functions take and
give colored sets.  Tables are cached per (n, d), index colors by
position and hold bit numbers, never masks, so they stay linear in the
number of packets; a mask is read through its flags, the string with
bit k at index k.  Vertex sets reach it as codes of the package's one
position coder, colors._encode: _mask_of_spectra transposes them once
into per-color member bitsets and reads each bit of a mask with d+1 ands
of them.
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import comb

from .colors import Colors, add, is_even, minus, subsets
from .cubillage import Cubillage, CubillageError, _lex, _numbering

# a bit's blocking count to its flag among the free bits: 0 to "1", else "0"
_UNBLOCKED = bytes.maketrans(bytes(range(256)), b"1" + b"0" * 255)
# a flag to its selector for itertools.compress: "0" to 0, "1" to 1
_SELECT = bytes.maketrans(b"01", b"\0\1")


@functools.lru_cache(maxsize=None)
def _bits(n: int, d: int) -> dict[Colors, int]:
    """Bit k of an inversion mask stands for the k-th (d+1)-subset of [n] in
    lex order: the lex numbering of the cube types of Z(n,d+1)."""
    return _lex(n, d + 1)


@functools.lru_cache(maxsize=64)
def _parents(colors: Colors, d: int) -> tuple[Colors, ...]:
    """The (d+1)-subsets of the colors in lex order: bit k stands for the k-th."""
    return tuple(subsets(colors, d + 1))


def _flags(inv: int, size: int) -> str:
    return bin(inv)[:1:-1].ljust(size, "0")


def _mask(colors: Colors, d: int, inverted) -> int:
    """The mask of the (d+1)-subsets K of the colors for which inverted(K) holds."""
    return int("".join("01"[inverted(k)] for k in subsets(colors, d + 1))[::-1] or "0", 2)


def _sets(colors: Colors, d: int, inv: int) -> list[Colors]:
    """The (d+1)-subsets of the colors in the mask inv, in lex order."""
    select = bin(inv)[:1:-1].encode().translate(_SELECT)
    return list(itertools.compress(_parents(colors, d), select))


def _free(count) -> int:
    """The mask of the bits whose blocking count is 0."""
    return int(count.translate(_UNBLOCKED)[::-1] or b"0", 2)


def _lift(colors: Colors, d: int, below) -> int:
    """The canonical extension of the cubillage of Z(colors,d-1) with the
    inversion set below: it inverts each K with K - max K not in below and
    holds below as a stack, whose membrane has inversion set below."""
    return _mask(colors, d, lambda k: k[:-1] not in below)


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


@functools.lru_cache(maxsize=None)
def _raises(n: int, d: int) -> tuple:
    """The packet state of the search in bruhat._masks, carried along raising
    steps.  A consistent mask's state is, per packet in _packets order, the
    number of its flag pattern among the sorted keys of _blocked, and, per
    bit, the number of packets that block it.  Gives the empty mask's state,
    its counts by _blocking, and, per bit of Z(n,d), per packet through it:
    (packet number, per pattern number the triple (number of the pattern
    with the bit added, the bits it no longer blocks, the bits it newly
    blocks), None where the bit is already set or blocked)."""
    size = d + 2
    blocked = _blocked(size)
    patterns = sorted(blocked)
    number = {r: i for i, r in enumerate(patterns)}
    steps = [[] for _ in range(comb(n, d + 1))]
    for j, (members, _) in enumerate(_packets(n, d).values()):
        for i, k in enumerate(members):
            row = []
            for r in patterns:
                up = r[:i] + ("1",) + r[i + 1:]
                if r[i] == "1" or up not in blocked:
                    row.append(None)
                    continue
                old = {members[x] for x in blocked[r]}
                new = {members[x] for x in blocked[up]}
                row.append((number[up], tuple(sorted(old - new)), tuple(sorted(new - old))))
            steps[k].append((j, tuple(row)))
    empty = bytes([number[("0",) * size]]) * comb(n, d + 2)
    return empty, _blocking(n, d, 0), tuple(map(tuple, steps))


@functools.lru_cache(maxsize=None)
def _through(n: int, d: int) -> tuple:
    """Per bit of Z(n,d), the n-d-1 packets through it, as _packets gives them."""
    out = [[] for _ in range(comb(n, d + 1))]
    for packet in _packets(n, d).values():
        for k in packet[0]:
            out[k].append(packet)
    return tuple(map(tuple, out))


def _blocking(n: int, d: int, inv: int) -> bytes | None:
    """Per bit of the mask inv, the number of packets that block it: whose
    pattern its toggle leaves neither a prefix nor a suffix.  None when inv
    itself is not consistent.  The one fresh scan of every packet."""
    size, table = comb(n, d + 1), _blocked(d + 2)
    flags, count = _flags(inv, size), bytearray(size)
    for members, get in _packets(n, d).values():
        blocked = table.get(get(flags))
        if blocked is None:
            return None
        for i in blocked:
            count[members[i]] += 1
    return bytes(count)


def _steps(n: int, d: int, inv: int) -> int | None:
    """The bits whose toggle keeps the mask inv consistent, that is, meeting
    every packet in a prefix or a suffix (adding one is a raising flip,
    removing one a lowering flip): the bits _blocking counts no packet
    against.  None when inv itself is not consistent."""
    count = _blocking(n, d, inv)
    return None if count is None else _free(count)


def _state(q: Cubillage) -> tuple[int, bytes]:
    """q's inversion mask (certified by _mask_of) and its blocking counts,
    both cached on q; the counts are scanned only for a mask cached
    without them, as _cubillage_of_mask caches it."""
    inv = _mask_of(q)
    count = q._cache.get("blocking")
    if count is None:
        count = q._cache["blocking"] = _blocking(q.n, q.d, inv)
    return inv, count


def _flipped(q: Cubillage, parent: Colors) -> Cubillage | None:
    """q with the parent, a canonical (d+1)-subset of its colors, toggled in
    its inversion set, when no packet blocks it; else None.  The flipped
    cubillage patches a copy of q's roots by _flip and adopts the toggled
    mask and the counts carried from q's (_state): each packet through the
    parent takes off what its old pattern blocked and adds what its new one
    blocks, and no other packet is read."""
    inv, count = _state(q)
    colors, n, d = q.colors, q.n, q.d
    contiguous = colors[-1:] == (n,)
    if not contiguous:
        position = {c: i for i, c in enumerate(colors, 1)}
        parent = tuple(position.get(c, 0) for c in parent)
    k = _bits(n, d).get(parent)
    if k is None or count[k]:
        return None
    flags = _flags(inv, len(count))
    toggled = flags[:k] + "01"[flags[k] == "0"] + flags[k + 1:]
    table, carried = _blocked(d + 2), bytearray(count)
    for members, get in _through(n, d)[k]:
        for i in table[get(flags)]:
            carried[members[i]] -= 1
        for i in table[get(toggled)]:
            carried[members[i]] += 1
    pairs = _flip_rows(n, d, True)[k]
    if not contiguous:
        pairs = [(tuple(colors[x - 1] for x in t), colors[c - 1]) for t, c in pairs]
    roots = dict(q._root_by_type)
    _flip(roots, pairs)
    flipped = Cubillage._adopt(colors, d, roots)
    flipped._cache["mask"], flipped._cache["blocking"] = inv ^ 1 << k, bytes(carried)
    return flipped


@functools.lru_cache(maxsize=None)
def _root_rows(n: int, d: int) -> tuple:
    """The root rule of Z(n,d): c outside a type T is in root(T) exactly
    when (T ∪ {c} is an inversion) == is_even(c, T).  Per type in lex order,
    per such c the triple (index of c among the n, bit of T ∪ {c}, flag
    that puts c in root(T))."""
    bit = _bits(n, d)
    return tuple(tuple((c - 1, bit[add(t, c)], "01"[is_even(c, t)])
                       for c in range(1, n + 1) if c not in t)
                 for t in subsets(range(1, n + 1), d))


def _roots(colors: Colors, d: int, inv: int) -> list[Colors]:
    """The roots, in type order, of the cubillage of Z(colors,d) with the
    consistent inversion mask inv, by the root rule."""
    flags = _flags(inv, comb(len(colors), d + 1))
    return [tuple([colors[i] for i, k, flag in row if flags[k] == flag])
            for row in _root_rows(len(colors), d)]


def _cubes(colors: Colors, d: int, inv: int) -> list[tuple[Colors, Colors]]:
    """(root, type) of every cube of the cubillage of Z(colors,d) with the
    consistent inversion mask inv, types in lex order, by the root rule.
    Also at d = 0, for the plates of a membrane of Z(colors,1): the one
    point, rooted at the colors of the members of inv."""
    return list(zip(_roots(colors, d, inv), _numbering(colors, d)))


def _toggled(root: Colors, c: int) -> Colors:
    return minus(root, (c,)) if c in root else add(root, c)


def _flip(roots, pairs, toggled=_toggled) -> None:
    """The flip rule on a root table, in place: toggling a parent K in the
    inversion set toggles c in the root of the type K - {c}, for each c in
    K, and changes no other root.  pairs lists (key of K - {c} in roots, c)
    per c in K; toggled(root, c) is the root with c toggled."""
    for t, c in pairs:
        roots[t] = toggled(roots[t], c)


@functools.lru_cache(maxsize=None)
def _flip_rows(n: int, d: int, by_type: bool = False) -> tuple:
    """Per bit of an inversion mask of Z(n,d), standing for the (d+1)-subset
    K, the pairs of _flip on roots in type order: (lex number of the type
    K - {c}, c) per c in K; with by_type, (the type K - {c}, c) on the keys
    of _numbering, for a type -> root dict."""
    key = {t: t if by_type else i for t, i in _bits(n, d - 1).items()}
    return tuple(tuple((key[minus(k, (c,))], c) for c in k) for k in _bits(n, d))


def _walk(n: int, d: int, steps: dict[int, int], tables: bool = False) -> dict:
    """The roots of the cubillage of every mask of Z(n,d) in steps, which
    maps each mask to its raising steps (the bits whose addition keeps it
    consistent) and lists every mask after one that reaches it by such a
    step, the empty mask first, as bruhat._masks gives them.  Each mask gets
    a tuple of its roots in type order, or with tables its own type -> root
    dict, in type order, for Cubillage._adopt.  The empty mask's roots come
    by the root rule; every other mask copies the roots of the first mask
    listed that reaches it and patches the d+1 roots of the flip (_flip).
    Equal roots are one tuple object, so comparing root tuples meets an
    equal root as the same object."""
    rows, interned, toggled = _flip_rows(n, d, tables), {}, {}

    def toggle(root: Colors, c: int) -> Colors:
        new = toggled.get((root, c))
        if new is None:
            new = _toggled(root, c)
            new = toggled[root, c] = interned.setdefault(new, new)
        return new

    colors = tuple(range(1, n + 1))
    first = tuple(interned.setdefault(r, r) for r in _roots(colors, d, 0))
    out = {0: dict(zip(_numbering(colors, d), first)) if tables else first}
    copy = dict.copy if tables else list
    for inv, up in steps.items():
        here = out[inv]
        while up:
            b = up & -up
            up ^= b
            if inv | b not in out:
                roots = copy(here)
                _flip(roots, rows[b.bit_length() - 1], toggle)
                out[inv | b] = roots if tables else tuple(roots)
    return out


def _cubillage_of_mask(colors: Colors, d: int, inv: int, table=None) -> Cubillage:
    """The cubillage of Z(colors,d) with the given consistent inversion
    mask; table, when given, is its own type -> root dict (as _walk gives
    it with tables), which the cubillage adopts, else the root rule reads
    the roots."""
    if table is None:
        table = dict(zip(_numbering(colors, d), _roots(colors, d, inv)))
    q = Cubillage._adopt(colors, d, table)
    q._cache["mask"] = inv
    return q


def _mask_of(q: Cubillage) -> int:
    """q's inversion mask, cached on q once q passes a validity certificate
    (else CubillageError, and nothing cached): the type map is exactly the
    d-subsets of the colors, the mask read from the roots is consistent,
    and the root rule gives back every root from it, so q is the cubillage
    of a consistent inversion set.  The blocking counts of the consistency
    check are cached beside the mask, for _state."""
    if "mask" in q._cache:
        return q._cache["mask"]
    colors, d, roots = q.colors, q.d, q._root_by_type
    if q.n < d or len(roots) != comb(q.n, d) or any(t not in roots for t in subsets(colors, d)):
        raise CubillageError("type map is not a bijection onto the d-subsets of the colors")
    inv = _mask(colors, d, lambda k: k[-1] in roots[k[:-1]])
    count = _blocking(q.n, d, inv)
    if count is None:
        raise CubillageError("the inversion set read from the roots is not consistent")
    if any(roots[t] != r for r, t in _cubes(colors, d, inv)):
        raise CubillageError("the roots break the root rule of their inversion set")
    q._cache["mask"], q._cache["blocking"] = inv, count
    return inv


def _mask_of_spectra(n: int, d: int, codes) -> int | None:
    """The inversion mask read off a set system of n colors, its members
    given as position codes in the colors (colors._encode).

    The restriction of the spectrum of a cubillage of Z(colors,d) to a
    (d+1)-subset K = {k_1 < ... < k_{d+1}} is the spectrum of its
    restriction to Z(K,d): the standard cubillage when K is no inversion,
    the antistandard one when it is, and only the standard one misses the
    subset {k_{d+1}, k_{d-1}, ...} of K.  So K is read as an inversion when
    some member meets K in exactly that subset.  The members are transposed
    once into one bitset per color, the members holding it, and its
    complement, the members lacking it; K then takes d+1 ands, position i
    of K (from 0) holding its color when d - i is even and lacking it when
    odd.  None when the mask read is not consistent.  Not a certificate on
    its own: the caller compares the spectrum codes of the cubillage of the
    mask with the input's, which decides every input.
    """
    rows = [format(v, f"0{n}b") for v in codes]
    full = (1 << len(rows)) - 1
    holding = [int("".join(column), 2) for column in zip(*rows)][::-1]
    lacking = [full ^ members for members in holding]
    roles = [lacking if (d - i) % 2 else holding for i in range(d + 1)]

    def inverted(k: Colors) -> bool:
        meet = full
        for role, c in zip(roles, k):
            meet &= role[c]
        return meet != 0

    inv = _mask(range(n), d, inverted)
    return inv if _steps(n, d, inv) is not None else None
