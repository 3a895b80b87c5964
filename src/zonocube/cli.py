"""Command line front end.

Every command reads JSON (from a file argument, stdin as "-", or inline
--sets) and writes JSON, DOT or SVG to stdout or -o; output is
byte-deterministic for fixed input.  Exit codes: 0 success, 1 validation or
diagnostic failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .colors import SetSystem, colorset, is_weakly_k_separated, separation_blocks
from .cubillage import Cubillage, CubillageError, point_cubillage, validate
from . import (
    AdmissibleOrder,
    ScaleGuardError,
    antistandard,
    apply_flip,
    bruhat_poset,
    contract,
    embed_subcubillage,
    enumerate_cubillages,
    enumerate_stacks,
    expand,
    extension_search,
    find_flips,
    from_consistent,
    from_order,
    from_spectra,
    garland,
    inversions,
    membrane_of_stack,
    natural_order,
    order_of,
    reduce,
    render_svg,
    sec,
    sec_surjectivity_experiment,
    standard,
    standardize,
    weak_separation_suite,
)
from .geom import Realization
from .masks import _mask_of


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    out = getattr(args, "output", None) or getattr(args, "svg", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_cubillage(args, certify: bool = True) -> Cubillage:
    """The cubillage of the input file; unless told not to, it must pass the
    validity certificate of the inversion masks, else CubillageError with
    validate's diagnostic."""
    q = Cubillage.from_json(_read_text(args.input))
    if certify:
        try:
            _mask_of(q)
        except CubillageError as exc:
            raise CubillageError(validate(q) or str(exc)) from None
    return q


def _load_sets(args) -> list:
    if getattr(args, "sets", None):
        data = json.loads(args.sets)
        if not isinstance(data, list):
            raise ValueError("--sets must be a JSON list of color lists")
        return [colorset(s) for s in data]
    if getattr(args, "input", None):
        return list(SetSystem.from_json(_read_text(args.input)).sets)
    raise ValueError("no sets given: pass --sets or an input file")


def _t_params(args):
    raw = getattr(args, "t_params", None)
    if not raw:
        return None
    return [Fraction(part) for part in raw.split(",")]


def _facet_json(plates):
    return [{"root": list(p.root), "type": list(p.type)}
            for p in sorted(plates, key=lambda p: (p.type, p.root))]


def _setsystem_json(n: int, sets) -> str:
    return SetSystem(n, sets).to_json()


def _pairwise_violations(sets, violation) -> list:
    """One entry per pair a before b for which violation(a, b) returns a
    dict of extra fields rather than None."""
    out = []
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            extra = violation(a, b)
            if extra is not None:
                out.append({"x": list(a), "y": list(b), **extra})
    return out


def _ambient_n(q: Cubillage) -> int:
    return q.colors[-1] if q.colors else 0


def cmd_standard(args):
    _emit(args, standard(range(1, args.n + 1), args.d).to_json())


def cmd_antistandard(args):
    _emit(args, antistandard(range(1, args.n + 1), args.d).to_json())


def cmd_validate(args):
    diagnostic = validate(_load_cubillage(args, certify=False))
    if diagnostic is None:
        _emit(args, "ok")
        return 0
    print(diagnostic, file=sys.stderr)
    return 1


def cmd_spectra(args):
    q = _load_cubillage(args)
    _emit(args, _setsystem_json(_ambient_n(q), sorted(q.vertices())))


def cmd_reduce(args):
    red = reduce(_load_cubillage(args), args.color)
    _emit(args, json.dumps({
        "cubillage": json.loads(red.cubillage.to_json()),
        "seam": _facet_json(red.seam),
        "below": [list(t) for t in sorted(red.below)],
    }))


def cmd_expand(args):
    q = _load_cubillage(args)
    stack = [colorset(s) for s in json.loads(args.sets)] if args.sets else q.types()
    _emit(args, expand(q, stack, args.color).to_json())


def cmd_contract(args):
    _emit(args, contract(_load_cubillage(args), args.color).to_json())


def cmd_flips(args):
    q = _load_cubillage(args)
    _emit(args, json.dumps([
        {"parent": list(parent), "direction": direction}
        for parent, direction in find_flips(q)
    ]))


def cmd_flip(args):
    q = _load_cubillage(args)
    _emit(args, apply_flip(q, json.loads(args.parent)).to_json())


def cmd_standardize(args):
    seq = standardize(_load_cubillage(args))
    _emit(args, json.dumps([json.loads(q.to_json()) for q in seq]))


def cmd_membranes(args):
    q = _load_cubillage(args)
    stacks = enumerate_stacks(q)
    out = []
    for stack in stacks:
        plates = membrane_of_stack(q, stack)
        out.append({
            "stack": [list(t) for t in sorted(stack)],
            "plates": _facet_json(plates),
        })
    _emit(args, json.dumps({"count": len(stacks), "membranes": out}))


def cmd_garland(args):
    g = garland(_load_cubillage(args))
    _emit(args, json.dumps({
        "chords": [{"type": list(t), "tail": list(tail), "head": list(head)}
                   for t, (tail, head) in sorted(g.chords.items())],
        "map": [[list(a), list(b)] for a, b in sorted(g.mapping.items())],
    }))


def cmd_inversions(args):
    q = _load_cubillage(args)
    _emit(args, _setsystem_json(_ambient_n(q), sorted(inversions(q))))


def cmd_order(args):
    q = _load_cubillage(args)
    if args.dot:
        _emit(args, natural_order(q).to_dot())
    else:
        _emit(args, order_of(q).to_json())


def cmd_from_spectra(args):
    sets = _load_sets(args)
    n = args.n or max((max(s) for s in sets if s), default=0)
    _emit(args, from_spectra(sets, range(1, n + 1), args.d).to_json())


def cmd_from_consistent(args):
    witness = from_consistent(_load_sets(args), args.n, args.d)
    _emit(args, json.dumps({
        "plates": _facet_json(witness.plates),
        "projected": json.loads(witness.projected.to_json()) if witness.projected else None,
        "ambient": json.loads(witness.ambient.to_json()),
        "stack": [list(t) for t in sorted(witness.stack)],
    }))


def cmd_from_order(args):
    order = AdmissibleOrder.from_json(_read_text(args.input))
    _emit(args, from_order(order).to_json())


def cmd_enumerate(args):
    qs = enumerate_cubillages(args.n, args.d, max_states=args.max_states)
    if args.count:
        _emit(args, str(len(qs)))
    else:
        _emit(args, json.dumps([json.loads(q.to_json()) for q in qs]))


def cmd_poset(args):
    poset = bruhat_poset(args.n, args.d, max_states=args.max_states)
    if args.dot:
        _emit(args, poset.to_dot())
        return
    _emit(args, json.dumps({
        "size": len(poset),
        "ranks": list(poset.ranks),
        "covers": [list(c) for c in poset.covers],
        "minimal": list(poset.minimal_elements()),
        "maximal": list(poset.maximal_elements()),
        "graded": poset.is_graded(),
    }))


def cmd_sec(args):
    q = _load_cubillage(args)
    realization = Realization(q.colors, q.d, _t_params(args)) if args.t_params else None
    _emit(args, sec(q, realization).to_json())


def cmd_sec_surjectivity(args):
    _emit(args, json.dumps(sec_surjectivity_experiment(args.n, args.d,
                                                       max_states=args.max_states)))


def cmd_check_separated(args):
    sets = _load_sets(args)
    r = args.r if args.r is not None else args.d - 1
    if r < 0:
        raise ValueError("separation order r must be >= 0")
    violations = _pairwise_violations(
        sets, lambda a, b: {"blocks": m} if (m := separation_blocks(a, b)) > r + 1 else None)
    _emit(args, json.dumps({
        "r": r,
        "pairwise_separated": not violations,
        "violations": violations,
    }))


def cmd_extend(args):
    mode = "certify-maximal" if args.certify else "complete"
    report = extension_search(_load_sets(args), args.n, args.d, mode)
    payload = {
        "n": report.n,
        "d": report.d,
        "base_size": report.base_size,
        "bound": report.bound,
        "completable": report.completable,
        "completion": [list(s) for s in report.completion] if report.completion else None,
    }
    if report.maximal_sizes is not None:
        payload["maximal_sizes"] = list(report.maximal_sizes)
        payload["gap"] = report.gap
        payload["maximal_completions"] = [
            [list(s) for s in comp] for comp in report.maximal_completions]
    _emit(args, json.dumps(payload))


def cmd_weak_sep(args):
    if args.sets:
        violations = _pairwise_violations(
            _load_sets(args),
            lambda a, b: None if is_weakly_k_separated(a, b, args.k) else {})
        _emit(args, json.dumps({
            "k": args.k,
            "pairwise_weakly_separated": not violations,
            "violations": violations,
        }))
        return
    if args.n is None:
        raise ValueError("weak-sep needs -n unless --sets is given")
    _emit(args, json.dumps(weak_separation_suite(args.n, args.k)))


def cmd_render_svg(args):
    q = _load_cubillage(args)
    width, height = (int(part) for part in args.size.split("x"))
    membrane = None
    if args.sets:
        stack = [colorset(s) for s in json.loads(args.sets)]
        membrane = membrane_of_stack(q, stack)
    realization = Realization(q.colors, q.d, _t_params(args)) if args.t_params else None
    _emit(args, render_svg(q, size=(width, height), labels=args.labels,
                           arrows=args.arrows, membrane=membrane,
                           realization=realization))


def cmd_embed(args):
    sets = _load_sets(args)
    if len(sets) != 1:
        raise ValueError("embed expects exactly one vertex set in --sets")
    q = embed_subcubillage(point_cubillage(args.d), sets[0], range(1, args.n + 1))
    _emit(args, q.to_json())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonocube",
        description="cubillages of cyclic zonotopes: construction, flips, posets, separation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_out(p):
        p.add_argument("-o", "--output", help="write to this path instead of stdout")

    def with_input(p):
        p.add_argument("input", nargs="?", default="-",
                       help="cubillage JSON file, or - for stdin")
        common_out(p)

    for name, fn in (("standard", cmd_standard), ("antistandard", cmd_antistandard)):
        p = sub.add_parser(name, help=f"emit the {name} cubillage of Z(n,d)")
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-d", type=int, required=True)
        common_out(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("validate", help="check the structural tiling conditions")
    with_input(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("spectra", help="vertex spectra as a set system")
    with_input(p)
    p.set_defaults(fn=cmd_spectra)

    p = sub.add_parser("reduce", help="delete a color; reports seam and below-stack")
    with_input(p)
    p.add_argument("--color", type=int, required=True)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("expand", help="insert a new top color along a stack membrane")
    with_input(p)
    p.add_argument("--color", type=int, required=True)
    p.add_argument("--sets", help="stack as a JSON list of types (default: full stack)")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("contract", help="project a color layer one dimension down")
    with_input(p)
    p.add_argument("--color", type=int, required=True)
    p.set_defaults(fn=cmd_contract)

    p = sub.add_parser("flips", help="list flippable parents and directions")
    with_input(p)
    p.set_defaults(fn=cmd_flips)

    p = sub.add_parser("flip", help="apply the flip at a parent")
    with_input(p)
    p.add_argument("--parent", required=True, help="JSON list of d+1 colors")
    p.set_defaults(fn=cmd_flip)

    p = sub.add_parser("standardize", help="canonical avalanche sequence to the standard cubillage")
    with_input(p)
    p.set_defaults(fn=cmd_standardize)

    p = sub.add_parser("membranes", help="all stacks with their membranes")
    with_input(p)
    p.set_defaults(fn=cmd_membranes)

    p = sub.add_parser("garland", help="chords and the front-to-back vertex bijection")
    with_input(p)
    p.set_defaults(fn=cmd_garland)

    p = sub.add_parser("inversions", help="inversion system of the cubillage")
    with_input(p)
    p.set_defaults(fn=cmd_inversions)

    p = sub.add_parser("order", help="induced admissible order on types")
    with_input(p)
    p.add_argument("--dot", action="store_true", help="emit GraphViz DOT instead of JSON")
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("from-spectra", help="rebuild a cubillage from its vertex spectra")
    p.add_argument("input", nargs="?", help="set system JSON file")
    p.add_argument("--sets", help="inline JSON list of spectra")
    p.add_argument("-n", type=int, help="ambient color count (default: max color)")
    p.add_argument("-d", type=int, help="dimension (default: inferred from the size)")
    common_out(p)
    p.set_defaults(fn=cmd_from_spectra)

    p = sub.add_parser("from-consistent", help="membrane realizing a consistent system")
    p.add_argument("input", nargs="?", help="set system JSON file")
    p.add_argument("--sets", help="inline JSON list of inverted parents")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    common_out(p)
    p.set_defaults(fn=cmd_from_consistent)

    p = sub.add_parser("from-order", help="rebuild a cubillage from an admissible order")
    p.add_argument("input", nargs="?", default="-", help="admissible order JSON file")
    common_out(p)
    p.set_defaults(fn=cmd_from_order)

    p = sub.add_parser("enumerate", help="all cubillages of Z(n,d) via raising flips")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument("--max-states", type=int, default=200000)
    common_out(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("poset", help="higher Bruhat poset B(n,d)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--max-states", type=int, default=200000)
    common_out(p)
    p.set_defaults(fn=cmd_poset)

    p = sub.add_parser("sec", help="slice triangulation of the cyclic polytope")
    with_input(p)
    p.add_argument("--t-params", help="comma separated curve parameters")
    p.set_defaults(fn=cmd_sec)

    p = sub.add_parser("sec-surjectivity", help="compare the sec image with all triangulations")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--max-states", type=int, default=200000)
    common_out(p)
    p.set_defaults(fn=cmd_sec_surjectivity)

    p = sub.add_parser("check-separated", help="pairwise separation report for a set system")
    p.add_argument("input", nargs="?", help="set system JSON file")
    p.add_argument("--sets", help="inline JSON list of sets")
    p.add_argument("-d", type=int, help="check (d-1)-separation")
    p.add_argument("-r", type=int, help="check r-separation directly")
    common_out(p)
    p.set_defaults(fn=cmd_check_separated)

    p = sub.add_parser("extend", help="complete or certify a separated system")
    p.add_argument("input", nargs="?", help="set system JSON file")
    p.add_argument("--sets", help="inline JSON list of sets")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--certify", action="store_true",
                   help="enumerate maximal-by-inclusion completions")
    common_out(p)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("weak-sep", help="weak separation suite or pairwise check")
    p.add_argument("-n", type=int)
    p.add_argument("-k", type=int, required=True, help="odd separation parameter")
    p.add_argument("--sets", help="inline JSON list of sets to check pairwise")
    common_out(p)
    p.set_defaults(fn=cmd_weak_sep)

    p = sub.add_parser("render-svg", help="draw a d=2 cubillage")
    with_input(p)
    p.add_argument("--size", default="640x480", help="viewport as WxH")
    p.add_argument("--labels", action="store_true", help="label vertex spectra")
    p.add_argument("--arrows", action="store_true", help="overlay precedence arrows")
    p.add_argument("--sets", help="stack whose membrane to overlay, as JSON types")
    p.add_argument("--svg", help="alias for -o")
    p.add_argument("--t-params", help="comma separated curve parameters")
    p.set_defaults(fn=cmd_render_svg)

    p = sub.add_parser("embed", help="cubillage of Z(n,d) through a given vertex")
    p.add_argument("--sets", required=True, help="JSON list holding one vertex set")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    common_out(p)
    p.set_defaults(fn=cmd_embed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.fn(args)
        return 0 if result is None else result
    except (CubillageError, ScaleGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
