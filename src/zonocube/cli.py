"""Command line front end.

Every command reads JSON (from a file argument, stdin as "-", or inline
--sets) and writes JSON, DOT or SVG to stdout or -o; output is
byte-deterministic for fixed input.  Exit codes: 0 success, 1 validation or
diagnostic failure, 2 malformed input.

COMMANDS maps each command name to its handler, help line and argument
specs; build_parser makes from it the parser of one command or the full
parser of all.  main parses with the parser of the command named first,
which costs a small fraction of building the full one.  When the first
argument names no command, or the command leaves arguments it does not
know, main parses again with the full parser, which prints the same usage,
help or error and exits with the same code as it always has.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .colors import SetSystem, _blocks, _check_weak_k, _failing_pairs, _set_system_json, _weak
from .colors import colorset, separation_blocks
from .cubillage import Cubillage, CubillageError, _data, _numbering, point_cubillage, validate
from . import (
    AdmissibleOrder,
    ScaleGuardError,
    antistandard,
    apply_flip,
    bruhat_poset,
    contract,
    embed_subcubillage,
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
    order_of,
    reduce,
    render_svg,
    sec,
    sec_surjectivity_experiment,
    standard,
    standardize,
    weak_separation_suite,
)
from .bruhat import MAX_STATES, _masks
from .geom import Realization
from .masks import _mask_of, _walk
from .order import _plates


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    _write(args, (text,))


def _write(args, chunks) -> None:
    """Write the strings of chunks one at a time to the -o (or --svg) file,
    opened at the first write, else to stdout."""
    out = getattr(args, "output", None) or getattr(args, "svg", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _load_cubillage(args) -> Cubillage:
    """The cubillage of the input file; it must pass the validity
    certificate of the inversion masks, else CubillageError with validate's
    diagnostic."""
    q = Cubillage.from_json(_read_text(args.input))
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
        sets = [colorset(s) for s in data]
        if len(set(sets)) != len(sets):  # as SetSystem refuses it in an input file
            raise ValueError("duplicate member sets")
        return sets
    if getattr(args, "input", None):
        return list(SetSystem.from_json(_read_text(args.input)).sets)
    raise ValueError("no sets given: pass --sets or an input file")


def _t_params(args):
    raw = getattr(args, "t_params", None)
    if not raw:
        return None
    try:
        return [Fraction(part) for part in raw.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"--t-params has a zero denominator: {raw}") from None


def _facet_json(plates):
    return [{"root": list(p.root), "type": list(p.type)}
            for p in sorted(plates, key=lambda p: (p.type, p.root))]


def _cubillage_sets_json(q: Cubillage, sets) -> str:
    return _set_system_json(q.colors[-1] if q.colors else 0, sets)


def cmd_standard(args):
    _emit(args, standard(range(1, args.n + 1), args.d).to_json())


def cmd_antistandard(args):
    _emit(args, antistandard(range(1, args.n + 1), args.d).to_json())


def cmd_validate(args):
    diagnostic = validate(Cubillage.from_json(_read_text(args.input)))
    if diagnostic is None:
        _emit(args, "ok")
        return 0
    print(diagnostic, file=sys.stderr)
    return 1


def cmd_spectra(args):
    q = _load_cubillage(args)
    _emit(args, _cubillage_sets_json(q, sorted(q.vertices())))


def cmd_reduce(args):
    red = reduce(_load_cubillage(args), args.color)
    _emit(args, json.dumps({
        "cubillage": red.cubillage._data(),
        "seam": _facet_json(red.seam),
        "below": [list(t) for t in sorted(red.below)],
    }))


def cmd_expand(args):
    q = _load_cubillage(args)
    stack = json.loads(args.sets) if args.sets else q.types()
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
    _emit(args, json.dumps([q._data() for q in seq]))


def cmd_membranes(args):
    q = _load_cubillage(args)
    stacks = enumerate_stacks(q)  # canonical order ideals, so _plates need not check them
    # json writes the color tuples as lists
    out = [{"stack": sorted(stack), "plates": [{"root": r, "type": t} for r, t in _plates(q, stack)]}
           for stack in stacks]
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
    _emit(args, _cubillage_sets_json(q, sorted(inversions(q))))


def cmd_order(args):
    order = order_of(_load_cubillage(args))
    _emit(args, order.to_dot() if args.dot else order.to_json())


def cmd_from_spectra(args):
    sets = _load_sets(args)
    n = max((max(s) for s in sets if s), default=0) if args.n is None else args.n
    _emit(args, from_spectra(sets, range(1, n + 1), args.d).to_json())


def cmd_from_consistent(args):
    witness = from_consistent(_load_sets(args), args.n, args.d)
    _emit(args, json.dumps({
        "plates": _facet_json(witness.plates),
        "projected": witness.projected._data() if witness.projected else None,
        "ambient": witness.ambient._data(),
        "stack": [list(t) for t in sorted(witness.stack)],
    }))


def cmd_from_order(args):
    order = AdmissibleOrder.from_json(_read_text(args.input))
    _emit(args, from_order(order).to_json())


def cmd_enumerate(args):
    if args.count:
        _emit(args, str(len(_masks(args.n, args.d, args.max_states))))
        return
    # enumerate_cubillages' order and JSON, written one cubillage at a time
    # from the walk's root tuples, sorted before the first byte; none is built
    n, d = args.n, args.d
    roots = sorted(_walk(n, d, _masks(n, d, args.max_states)).values())
    colors = tuple(range(1, n + 1))
    types = tuple(_numbering(colors, d))

    def chunks():
        for k, r in enumerate(roots):
            yield ", " if k else "["
            yield json.dumps(_data(colors, d, zip(types, r)))
        yield "]\n"

    _write(args, chunks())


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
    if args.r is None and args.d is None:
        raise ValueError("check-separated needs -d or -r")
    r = args.r if args.r is not None else args.d - 1
    if r < 0:
        raise ValueError("separation order r must be >= 0")
    violations = [{"x": list(a), "y": list(b), "blocks": separation_blocks(a, b)}
                  for a, b in _failing_pairs(sets, lambda x, y: _blocks(x, y) > r + 1)]
    _emit(args, json.dumps({"r": r, "pairwise_separated": not violations,
                            "violations": violations}))


def cmd_extend(args):
    mode = "certify-maximal" if args.certify else "complete"
    report = extension_search(_load_sets(args), args.n, args.d, mode)
    payload = {
        "n": report.n,
        "d": report.d,
        "base_size": report.base_size,
        "bound": report.bound,
        "completable": report.completable,
        "completion": report.completion,
    }
    if report.maximal_sizes is not None:
        payload["maximal_sizes"] = report.maximal_sizes
        payload["gap"] = report.gap
        payload["maximal_completions"] = report.maximal_completions
    _emit(args, json.dumps(payload))


def cmd_weak_sep(args):
    if args.sets:
        sets, k = _load_sets(args), _check_weak_k(args.k)
        violations = [{"x": list(a), "y": list(b)}
                      for a, b in _failing_pairs(sets, lambda x, y: not _weak(x, y, k))]
        _emit(args, json.dumps({"k": k, "pairwise_weakly_separated": not violations,
                                "violations": violations}))
        return
    if args.n is None:
        raise ValueError("weak-sep needs -n unless --sets is given")
    _emit(args, json.dumps(weak_separation_suite(args.n, args.k)))


def cmd_render_svg(args):
    q = _load_cubillage(args)
    width, height = (int(part) for part in args.size.split("x"))
    membrane = None
    if args.sets:
        membrane = membrane_of_stack(q, json.loads(args.sets))
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


def _arg(*flags, **options):
    return flags, options


_OUTPUT = _arg("-o", "--output", help="write to this path instead of stdout")
_CUBILLAGE = (_arg("input", nargs="?", default="-", help="cubillage JSON file, or - for stdin"),
              _OUTPUT)
_SET_SYSTEM = _arg("input", nargs="?", help="set system JSON file")
_N = _arg("-n", type=int, required=True)
_D = _arg("-d", type=int, required=True)
_COLOR = _arg("--color", type=int, required=True)
_MAX_STATES = _arg("--max-states", type=int, default=MAX_STATES)
_T_PARAMS = _arg("--t-params", help="comma separated curve parameters")

# name -> (help, arguments in the order they are added); the handler of
# "from-spectra" is cmd_from_spectra
COMMANDS = {
    "standard": ("emit the standard cubillage of Z(n,d)", (_N, _D, _OUTPUT)),
    "antistandard": ("emit the antistandard cubillage of Z(n,d)", (_N, _D, _OUTPUT)),
    "validate": ("check the structural tiling conditions", _CUBILLAGE),
    "spectra": ("vertex spectra as a set system", _CUBILLAGE),
    "reduce": ("delete a color; reports seam and below-stack", (*_CUBILLAGE, _COLOR)),
    "expand": ("insert a new top color along a stack membrane", (
        *_CUBILLAGE, _COLOR,
        _arg("--sets", help="stack as a JSON list of types (default: full stack)"))),
    "contract": ("project a color layer one dimension down", (*_CUBILLAGE, _COLOR)),
    "flips": ("list flippable parents and directions", _CUBILLAGE),
    "flip": ("apply the flip at a parent", (
        *_CUBILLAGE, _arg("--parent", required=True, help="JSON list of d+1 colors"))),
    "standardize": ("canonical avalanche sequence to the standard cubillage", _CUBILLAGE),
    "membranes": ("all stacks with their membranes", _CUBILLAGE),
    "garland": ("chords and the front-to-back vertex bijection", _CUBILLAGE),
    "inversions": ("inversion system of the cubillage", _CUBILLAGE),
    "order": ("induced admissible order on types", (
        *_CUBILLAGE, _arg("--dot", action="store_true", help="emit GraphViz DOT instead of JSON"))),
    "from-spectra": ("rebuild a cubillage from its vertex spectra", (
        _SET_SYSTEM, _arg("--sets", help="inline JSON list of spectra"),
        _arg("-n", type=int, help="ambient color count (default: max color)"),
        _arg("-d", type=int, help="dimension (default: inferred from the size)"), _OUTPUT)),
    "from-consistent": ("membrane realizing a consistent system", (
        _SET_SYSTEM, _arg("--sets", help="inline JSON list of inverted parents"), _N, _D, _OUTPUT)),
    "from-order": ("rebuild a cubillage from an admissible order", (
        _arg("input", nargs="?", default="-", help="admissible order JSON file"), _OUTPUT)),
    "enumerate": ("all cubillages of Z(n,d) via raising flips", (
        _N, _D, _arg("--count", action="store_true", help="print only the count"), _MAX_STATES,
        _OUTPUT)),
    "poset": ("higher Bruhat poset B(n,d)", (
        _N, _D, _arg("--dot", action="store_true"), _MAX_STATES, _OUTPUT)),
    "sec": ("slice triangulation of the cyclic polytope", (*_CUBILLAGE, _T_PARAMS)),
    "sec-surjectivity": ("compare the sec image with all triangulations",
                         (_N, _D, _MAX_STATES, _OUTPUT)),
    "check-separated": ("pairwise separation report for a set system", (
        _SET_SYSTEM, _arg("--sets", help="inline JSON list of sets"),
        _arg("-d", type=int, help="check (d-1)-separation"),
        _arg("-r", type=int, help="check r-separation directly"), _OUTPUT)),
    "extend": ("complete or certify a separated system", (
        _SET_SYSTEM, _arg("--sets", help="inline JSON list of sets"), _N, _D,
        _arg("--certify", action="store_true", help="enumerate maximal-by-inclusion completions"),
        _OUTPUT)),
    "weak-sep": ("weak separation suite or pairwise check", (
        _arg("-n", type=int), _arg("-k", type=int, required=True, help="odd separation parameter"),
        _arg("--sets", help="inline JSON list of sets to check pairwise"), _OUTPUT)),
    "render-svg": ("draw a d=2 cubillage", (
        *_CUBILLAGE, _arg("--size", default="640x480", help="viewport as WxH"),
        _arg("--labels", action="store_true", help="label vertex spectra"),
        _arg("--arrows", action="store_true", help="overlay precedence arrows"),
        _arg("--sets", help="stack whose membrane to overlay, as JSON types"),
        _arg("--svg", help="alias for -o"), _T_PARAMS)),
    "embed": ("cubillage of Z(n,d) through a given vertex", (
        _arg("--sets", required=True, help="JSON list holding one vertex set"), _N, _D, _OUTPUT)),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of one command, as add_parser makes it for the full
    parser, or with no command the full parser of every command."""
    if command is not None:
        return _add_command(argparse.ArgumentParser(prog=f"zonocube {command}"), command)
    parser = argparse.ArgumentParser(
        prog="zonocube",
        description="cubillages of cyclic zonotopes: construction, flips, posets, separation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def _add_command(parser, name):
    for flags, options in COMMANDS[name][1]:
        parser.add_argument(*flags, **options)
    # the handler is looked up now, not when the table is made, so that a
    # replacement of cmd_* in this module (a tracing wrapper) is what runs
    parser.set_defaults(command=name, fn=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = rest = None
    if argv and argv[0] in COMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or rest:
        # not a command, or arguments the command does not know: the full
        # parser prints the usage, help or error and exits as it always has
        args = build_parser().parse_args(argv)
    return _run(args)


def _run(args) -> int:
    """Run the parsed command: exit 1 for a diagnostic or a guard, 2 for bad input."""
    try:
        result = args.fn(args)
        return 0 if result is None else result
    except (CubillageError, ScaleGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # a backstop: the scale guards are meant to refuse first
        print("error: out of memory", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
