"""Inversion masks: a cubillage of Z(n,d) as a bitmask over the (d+1)-subsets
of its colors, which fixes it, the packet state behind consistency and
flips, the root rule of cubillages and their membranes, the flip rule on
root tables (a flip of the parent K changes only the d+1 roots of the types
K - {c}, c in K), and the lift rule of the canonical extension
(Manin-Schechtman 1989; Ziegler, Topology 1993).  The natural order reads
its tunnel chains off the roots of a cubillage this module certifies
(order._chain_covers).
A consistent mask's packet state is one bytearray: per bit, the number of
packets that block its toggle, then, per packet, the number of its
prefix or suffix flag pattern (_blocked).  _blocking is the one fresh scan
of every packet; a bit is free to toggle when no packet blocks it (_free,
_steps).  A toggle of the bit K changes only the n-d-1 packets through K,
so _toggle, the one carry, copies a state and updates those packets from
the transition table _toggles, in either direction.  The rank-by-rank
search of bruhat._masks carries each mask's state along its raising
steps, and _flipped, the flip of apply_flip, carries the state _mask_of
keeps on a cubillage, so no cubillage of a flip walk has its packets
scanned again.
The flip rule is written once, in _flip: _flipped patches a copy of its
input's table with it, and _walk carries the roots of every mask of
an enumeration along its raising steps, one parent's roots copied and
d+1 patched per mask, so no mask's roots are read again.  The walk
carries either root tuples in type order or one type -> root dict per
mask, which an enumerated cubillage adopts as it is: a dict copy keeps
its keys' hashes, so no type tuple is hashed again per cubillage.  Bit
k of a mask stands for the (d+1)-subset of lex number k, the numbering of
the types of Z(n,d+1) (cubillage._numbering), and this is the one module
that reads masks by bit and knows the packet state: its functions take
and give colored sets.  Tables are cached per (n, d), index colors by
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

# a state byte to its flag among the free bits: a count of 0 to "1", else
# "0"; pattern numbers start at 1, so a packet's byte never reads as free
_UNBLOCKED = bytes.maketrans(bytes(range(256)), b"1" + b"0" * 255)
# a flag to its selector for itertools.compress: "0" to 0, "1" to 1
_SELECT = bytes.maketrans(b"01", b"\0\1")


@functools.lru_cache(maxsize=None)
def _bits(n: int, d: int) -> dict[Colors, int]:
    """Bit k of an inversion mask stands for the k-th (d+1)-subset of [n] in
    lex order: the lex numbering of the cube types of Z(n,d+1)."""
    return _lex(n, d + 1)


def _flags(inv: int, size: int) -> str:
    return bin(inv)[:1:-1].ljust(size, "0")


def _mask(colors: Colors, d: int, inverted) -> int:
    """The mask of the (d+1)-subsets K of the colors for which inverted(K) holds."""
    return int("".join("01"[inverted(k)] for k in subsets(colors, d + 1))[::-1] or "0", 2)


def _sets(colors: Colors, d: int, inv: int) -> list[Colors]:
    """The (d+1)-subsets of the colors in the mask inv, in lex order."""
    select = bin(inv)[:1:-1].encode().translate(_SELECT)
    return list(itertools.compress(_numbering(colors, d + 1), select))


def _free(state) -> int:
    """The mask of the bits of a packet state whose blocking count is 0."""
    return int(state.translate(_UNBLOCKED)[::-1] or b"0", 2)


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
    its lex order (as a _packets getter reads them), its pattern number,
    from 1, and the members whose toggle leaves neither; flags missing
    here are inconsistent."""
    ends = {"1" * i + "0" * (size - i) for i in range(size + 1)}
    ends |= {r[::-1] for r in ends}
    get = operator.itemgetter(*range(size))
    return {get(r): (number, tuple(i for i in range(size)
                                   if r[:i] + "01"[r[i] == "0"] + r[i + 1:] not in ends))
            for number, r in enumerate(sorted(ends), 1)}


def _blocking(n: int, d: int, inv: int) -> bytearray | None:
    """The packet state of the mask inv: per bit, the number of packets that
    block it, whose pattern its toggle leaves neither a prefix nor a suffix,
    then per packet in _packets order its pattern number (_blocked).  None
    when inv itself is not consistent.  The one fresh scan of every packet."""
    size, table = comb(n, d + 1), _blocked(d + 2)
    flags, state = _flags(inv, size), bytearray(size)
    for members, get in _packets(n, d).values():
        pattern = table.get(get(flags))
        if pattern is None:
            return None
        state.append(pattern[0])
        for i in pattern[1]:
            state[members[i]] += 1
    return state


@functools.lru_cache(maxsize=None)
def _toggles(n: int, d: int) -> tuple:
    """The transition table of the packet state of Z(n,d): per bit, per
    packet through it, (the packet's offset in a state, its members, per
    pattern number the triple (number of the pattern with the bit toggled,
    the positions of the members it no longer blocks, of those it newly
    blocks), None where the packet blocks the bit).  A row depends only on
    the bit's position in the packet, so packets share their rows."""
    table, offset = _blocked(d + 2), comb(n, d + 1)
    rows = []
    for i in range(d + 2):
        row = [None] * (len(table) + 1)
        for r, (number, old) in table.items():
            toggled = table.get(r[:i] + ("01"[r[i] == "0"],) + r[i + 1:])
            if toggled is not None:
                new = toggled[1]
                row[number] = (toggled[0], tuple(x for x in old if x not in new),
                               tuple(x for x in new if x not in old))
        rows.append(tuple(row))
    out = [[] for _ in range(offset)]
    for j, (members, _) in enumerate(_packets(n, d).values(), offset):
        for k, row in zip(members, rows):
            out[k].append((j, members, row))
    return tuple(map(tuple, out))


def _toggle(state, through) -> bytearray:
    """A copy of the packet state with a free bit toggled, through being
    the bit's row of _toggles: each packet through the bit takes its new
    pattern, and the members it frees and newly blocks are counted off and
    on.  The one carry of packet state."""
    state = bytearray(state)
    for j, members, row in through:
        state[j], freed, blocked = row[state[j]]
        for i in freed:
            state[members[i]] -= 1
        for i in blocked:
            state[members[i]] += 1
    return state


def _steps(n: int, d: int, inv: int) -> int | None:
    """The bits whose toggle keeps the mask inv consistent, that is, meeting
    every packet in a prefix or a suffix (adding one is a raising flip,
    removing one a lowering flip): the bits _blocking counts no packet
    against.  None when inv itself is not consistent."""
    state = _blocking(n, d, inv)
    return None if state is None else _free(state)


def _state(q: Cubillage) -> tuple[int, bytearray]:
    """q's inversion mask (certified by _mask_of) and its packet state, both
    cached on q; the state is scanned only for a mask cached without it,
    as _cubillage_of_mask caches it."""
    inv = _mask_of(q)
    state = q._cache.get("packets")
    if state is None:
        state = q._cache["packets"] = _blocking(q.n, q.d, inv)
    return inv, state


def _flipped(q: Cubillage, parent: Colors) -> Cubillage | None:
    """q with the parent, a canonical (d+1)-subset of its colors, toggled in
    its inversion set, when no packet blocks it; else None.  The flipped
    cubillage patches a copy of q's roots by _flip and adopts the toggled
    mask and the packet state _toggle carries from q's (_state), which
    reads no packet away from the parent."""
    inv, state = _state(q)
    colors, n, d = q.colors, q.n, q.d
    contiguous = colors[-1:] == (n,)
    if not contiguous:
        position = {c: i for i, c in enumerate(colors, 1)}
        parent = tuple(position.get(c, 0) for c in parent)
    k = _bits(n, d).get(parent)
    if k is None or state[k]:
        return None
    pairs = _flip_rows(n, d, True)[k]
    if not contiguous:
        pairs = [(tuple(colors[x - 1] for x in t), colors[c - 1]) for t, c in pairs]
    roots = dict(q._root_by_type)
    _flip(roots, pairs)
    flipped = Cubillage._adopt(colors, d, roots)
    flipped._cache["mask"] = inv ^ 1 << k
    flipped._cache["packets"] = _toggle(state, _toggles(n, d)[k])
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
    of a consistent inversion set.  The packet state of the consistency
    check is cached beside the mask, for _state."""
    if "mask" in q._cache:
        return q._cache["mask"]
    colors, d, roots = q.colors, q.d, q._root_by_type
    if q.n < d or len(roots) != comb(q.n, d) or any(t not in roots for t in subsets(colors, d)):
        raise CubillageError("type map is not a bijection onto the d-subsets of the colors")
    inv = _mask(colors, d, lambda k: k[-1] in roots[k[:-1]])
    state = _blocking(q.n, d, inv)
    if state is None:
        raise CubillageError("the inversion set read from the roots is not consistent")
    if any(roots[t] != r for r, t in _cubes(colors, d, inv)):
        raise CubillageError("the roots break the root rule of their inversion set")
    q._cache["mask"], q._cache["packets"] = inv, state
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
