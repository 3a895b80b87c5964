"""The benchmark's workloads: seeded inputs, timed passes and correctness gates.

Run as a script, this is the worker process that `bench/run.py` starts once
per workload run, so lru caches, per-object caches and peak RSS never leak
between workloads.  It imports zonocube from the checkout's `src`, builds
the inputs from the seed (that is set-up), then repeats timed passes over
the inputs for the given number of seconds and prints one JSON object.

Every call into the library is one operation: its time is taken around the
call alone, and its answer is checked afterwards against an expected value
fixed in advance (a known count, a theorem's bound, or the input the call
must reconstruct).  A wrong answer or an exception counts as a failed
operation, never as a timing.  Between operations a fixed reference
computation is timed, so that each time can also be given in host-normalized
seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the Z(6,4) purity counterexample of acceptance criterion 04 and its lifts
CLOCK = ((2, 4, 6), (2, 3, 5), (1, 3, 6))
CLOCK_LIFTS = (
    ("clock_6_4", CLOCK, 6, 4),
    ("clock_7_4", CLOCK, 7, 4),
    ("clock_7_5", CLOCK + tuple(t + (7,) for t in CLOCK), 7, 5),
)


@dataclass(frozen=True)
class Profile:
    """Input sizes and the answers they must give."""

    flip_jobs: tuple    # (metric, "poset" | "enumerate", n, d, expected count)
    weak: tuple         # (metric, n, k, expected maximum = C(n, <=k+1))
    count: tuple        # (metric, n, d, expected = number of cubillages of Z(n,d))
    sep_n: int
    sep_dims: tuple
    sep_per_dim: int    # random cubillages per dimension for the seeded searches
    sep_fraction: float  # share of the non-peripheral spectra kept as the search input
    rt_n: int
    rt_dims: tuple
    rt_per_dim: int     # random cubillages per dimension for the round trips
    walk: int           # raising flips per random walk from the standard cubillage


FULL = Profile(
    flip_jobs=(("poset_6_2_s", "poset", 6, 2, 908),
               ("poset_7_4_s", "poset", 7, 4, 338),
               ("enum_8_5_s", "enumerate", 8, 5, 752)),
    weak=("weak_7_1_s", 7, 1, 29),
    count=("count_8_5_s", 8, 5, 752),
    sep_n=8, sep_dims=(3, 4), sep_per_dim=4, sep_fraction=0.3,
    rt_n=8, rt_dims=(3, 4), rt_per_dim=24, walk=24,
)

# seconds-long version for the benchmark's own tests
TINY = Profile(
    flip_jobs=(("poset_4_2_s", "poset", 4, 2, 8),
               ("poset_5_3_s", "poset", 5, 3, 10),
               ("enum_6_4_s", "enumerate", 6, 4, 12)),
    weak=("weak_5_1_s", 5, 1, 16),
    count=("count_6_4_s", 6, 4, 12),
    sep_n=6, sep_dims=(2, 3), sep_per_dim=1, sep_fraction=0.3,
    rt_n=6, rt_dims=(2, 3), rt_per_dim=2, walk=6,
)

PROFILES = {"full": FULL, "tiny": TINY}


def import_zonocube():
    """Import zonocube from this checkout's src, and prove that it did."""
    sys.path.insert(0, str(SRC))
    import zonocube

    got = Path(zonocube.__file__).resolve().parent
    if got != (SRC / "zonocube").resolve():
        raise RuntimeError(f"zonocube was imported from {got}, not from {SRC}")
    return zonocube


# The host this was tuned on (2 vCPUs, shared) changes speed by up to 2x
# within seconds, for minutes at a time (the reference below took 8 ms,
# then 17 ms).  Over ten seeded 30-second runs per workload, raw wall time
# spread by 20-33% (quartile distance over median).  So a fixed reference
# computation is timed between operations, at least every REF_EVERY_S, and
# each operation is also reported in host-normalized seconds: its time
# times REF_NOMINAL_S over the mean of the reference samples around it.
# On the same runs that spread fell to 4-11%.
REF_NOMINAL_S = 0.008    # the reference's time on the unloaded host
REF_EVERY_S = 0.25


def reference() -> int:
    """Fixed pure-Python work shaped like the library's: small sorted tuples,
    dict and set traffic.  It never calls zonocube, so no change to the
    program can move it."""
    counts = {}
    for i in range(12000):
        key = tuple(sorted((i * 7919 % 101, i % 13, i % 29)))
        counts[key] = counts.get(key, 0) + 1
    return len(counts) + len({key[:2] for key in counts})


def reference_seconds() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Log:
    """Timings, reference samples and gate results of one pass, in call order."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []       # (job, group, seconds, index of the reference before it)
        self.refs = []      # reference samples, seconds
        self.failures = []
        self.group = None   # tag for the ops that follow, e.g. the input object
        self._last_ref = -math.inf

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def sample_reference(self):
        self.refs.append(reference_seconds())
        self._last_ref = time.perf_counter()

    def op(self, job: str, call, check):
        """Time call(), then gate its result; returns (result, seconds).

        check(result) returns None when the answer is right, else a message.
        """
        if time.perf_counter() - self._last_ref >= REF_EVERY_S:
            self.sample_reference()
        if self.tracer is not None:
            self.tracer.op = f"{job}#{len(self.ops)}"
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a crash is a failed operation, not a lost run
            result, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        seconds = time.perf_counter() - start
        self.ops.append((job, self.group, seconds, len(self.refs) - 1))
        if problem is None:
            problem = check(result)
        if problem is not None:
            self.failures.append(f"{job}: {problem}")
        return result, seconds

    def close(self):
        """End the pass with a reference sample, so every op has one after it."""
        self.sample_reference()

    def normalized(self, i: int) -> float:
        _, _, seconds, k = self.ops[i]
        return seconds * REF_NOMINAL_S / ((self.refs[k] + self.refs[k + 1]) / 2)


def op_seconds(passes, normalized=True):
    """(job, group, median seconds over the passes) for each operation.

    Every pass runs the same operations in the same order, so the median is
    taken per operation.
    """
    return [(job, group, statistics.median(
                log.normalized(i) if normalized else log.ops[i][2] for log in passes))
            for i, (job, group, *_) in enumerate(passes[0].ops)]


def job_seconds(ops, job) -> float:
    return math.fsum(s for j, _, s in ops if j == job)


def wall_seconds(ops) -> float:
    return math.fsum(s for _, _, s in ops)


def expect(cond: bool, message: str):
    return None if cond else message


def raising_walk(zc, n: int, d: int, steps: int, rng: random.Random):
    """A random walk of raising flips from the standard cubillage of Z(n,d)."""
    q = zc.standard(range(1, n + 1), d)
    parents = []
    for _ in range(steps):
        up = [p for p, direction in zc.find_flips(q) if direction == "raising"]
        parent = rng.choice(up)
        parents.append(parent)
        q = zc.apply_flip(q, parent)
    return q, tuple(parents)


def metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def tail(samples):
    """(value, percentile, n): the highest percentile with >= 10 samples above it.

    Falls back to the median when there are too few samples for any tail.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n
    return statistics.median(ordered), 50, n


# ---------------------------------------------------------------------------
# flipgraph: the flip-graph BFS and nothing else


class FlipGraph:
    name = "flipgraph"

    def setup(self, zc, profile, seed):
        # inputs are fixed by (n,d); the seed is accepted and ignored
        return {"jobs": profile.flip_jobs}, {
            "seed_used": False,
            "jobs": [{"metric": m, "call": kind, "n": n, "d": d, "expected": want}
                     for m, kind, n, d, want in profile.flip_jobs],
        }

    def run_pass(self, zc, inputs, log):
        for job, kind, n, d, want in inputs["jobs"]:
            if kind == "poset":
                log.op(job, lambda: zc.bruhat_poset(n, d), lambda p: poset_problem(p, want))
            else:
                log.op(job, lambda: zc.enumerate_cubillages(n, d),
                       lambda qs: expect(len(qs) == want, f"{len(qs)} states, want {want}"))

    def metrics(self, ops, inputs):
        jobs = inputs["jobs"]
        states = sum(want for *_, want in jobs)
        named = {m: metric(job_seconds(ops, m), "s") for m, *_ in jobs}
        named["states_per_s"] = metric(states / wall_seconds(ops), "1/s")
        return named, tuple(m for m, *_ in jobs)


def poset_problem(poset, want):
    if len(poset) != want:
        return f"{len(poset)} elements, want {want}"
    if not poset.is_graded():
        return "poset is not graded"
    if poset.minimal_elements() != (0,):
        return f"minimal elements {poset.minimal_elements()}, want (0,)"
    if poset.maximal_elements() != (len(poset) - 1,):
        return f"maximal elements {poset.maximal_elements()}, want ({len(poset) - 1},)"
    return None


# ---------------------------------------------------------------------------
# separation: clique searches and the separation predicates


class Separation:
    name = "separation"

    def setup(self, zc, profile, seed):
        from zonocube.colors import is_peripheral

        rng = random.Random(seed)
        n = profile.sep_n
        searches = []
        for d in profile.sep_dims:
            for _ in range(profile.sep_per_dim):
                q, _ = raising_walk(zc, n, d, profile.walk, rng)
                spectra = sorted(v for v in q.vertices() if not is_peripheral(v, n, d))
                size = round(profile.sep_fraction * len(spectra))
                sample = tuple(sorted(rng.sample(spectra, size)))
                searches.append((sample, n, d))
        inputs = {"weak": profile.weak, "count": profile.count, "searches": searches}
        return inputs, {
            "seed_used": True,
            "weak": dict(zip(("metric", "n", "k", "expected"), profile.weak)),
            "count": dict(zip(("metric", "n", "d", "expected"), profile.count)),
            "certify": [{"name": label, "n": n, "d": d, "sets": len(sets)}
                        for label, sets, n, d in CLOCK_LIFTS],
            "seeded": {"n": n, "dims": list(profile.sep_dims),
                       "cubillages_per_dim": profile.sep_per_dim, "walk": profile.walk,
                       "fraction": profile.sep_fraction,
                       "sample_sizes": [len(s) for s, _, _ in searches],
                       "modes": ["complete", "certify-maximal"]},
        }

    def run_pass(self, zc, inputs, log):
        job, n, k, bound = inputs["weak"]
        log.op(job, lambda: zc.weak_separation_suite(n, k),
               lambda r: expect(r["max_size"] == r["bound"] == bound and r["meets_bound"],
                                f"max {r['max_size']}, bound {r['bound']}, want {bound}"))
        job, n, d, want = inputs["count"]
        log.op(job, lambda: zc.bruhat.separated_system_count(n, d),
               lambda c: expect(c == want, f"{c} systems, want {want}"))
        for label, sets, n, d in CLOCK_LIFTS:
            log.op("extend_clock_s", lambda: zc.extension_search(sets, n, d, "certify-maximal"),
                   lambda r: clock_problem(r, label))
        for sample, n, d in inputs["searches"]:
            for mode in ("complete", "certify-maximal"):
                log.op("extend_seeded_s", lambda: zc.extension_search(sample, n, d, mode),
                       lambda r: completion_problem(r, sample))

    def metrics(self, ops, inputs):
        # the seeded searches are heavy-tailed (one sample can have thousands of
        # maximal completions), so their sum moves with the seed; the fixed
        # purity-counterexample searches give the seed-independent figure
        jobs = (inputs["weak"][0], inputs["count"][0], "extend_clock_s")
        named = {m: metric(job_seconds(ops, m), "s") for m in jobs + ("extend_seeded_s",)}
        named["extend_s"] = metric(named["extend_clock_s"]["value"]
                                   + named["extend_seeded_s"]["value"], "s")
        return named, jobs


def clock_problem(report, label):
    """The purity counterexample and its lifts (acceptance criterion 04)."""
    if report.completable or report.maximal_sizes is None:
        return f"{label}: reported completable"
    if label == "clock_6_4" and (report.bound, report.maximal_sizes) != (57, (55,)):
        return f"{label}: bound {report.bound}, maximal sizes {report.maximal_sizes}"
    want = {"clock_6_4": 57, "clock_7_4": 99, "clock_7_5": 120}[label]
    if report.bound != want or max(report.maximal_sizes) >= want:
        return f"{label}: bound {report.bound}, largest maximal {max(report.maximal_sizes)}"
    return None


def completion_problem(report, sample):
    """A sample of a cubillage's spectra must complete to a maximum system."""
    if not report.completable:
        return "seeded sample reported not completable"
    if len(report.completion) != report.bound or not set(sample) <= set(report.completion):
        return "completion is not a maximum system holding the sample"
    return None


# ---------------------------------------------------------------------------
# roundtrip: the single-object API and the CLI


CLI_COMMANDS = ("validate", "spectra", "inversions", "flips")


class RoundTrip:
    name = "roundtrip"

    def setup(self, zc, profile, seed):
        import zonocube.cli  # noqa: F401  (timed calls go through zc.cli.main)
        from zonocube.colors import SetSystem

        rng = random.Random(seed)
        n = profile.rt_n
        objects = []
        for d in profile.rt_dims:
            for _ in range(profile.rt_per_dim):
                q, parents = raising_walk(zc, n, d, profile.walk, rng)
                inv = zc.inversions(q)
                text = q.to_json()
                cli_out = {
                    "validate": "ok\n",
                    "spectra": SetSystem(n, sorted(q.vertices())).to_json() + "\n",
                    "inversions": SetSystem(n, sorted(inv)).to_json() + "\n",
                    "flips": json.dumps([{"parent": list(p), "direction": way}
                                         for p, way in zc.find_flips(q)]) + "\n",
                }
                objects.append({"n": n, "d": d, "parents": parents, "want": q,
                                "inversions": inv, "json": text, "cli": cli_out})
        rng.shuffle(objects)
        return {"objects": objects}, {
            "seed_used": True,
            "objects": [{"n": n, "d": d, "count": profile.rt_per_dim} for d in profile.rt_dims],
            "walk": profile.walk, "shuffled": True, "cli_commands": list(CLI_COMMANDS),
            "sec_for_d": 3,
        }

    def run_pass(self, zc, inputs, log):
        for index, obj in enumerate(inputs["objects"]):
            n, d, want = obj["n"], obj["d"], obj["want"]
            colors = tuple(range(1, n + 1))

            def walk():
                q = zc.standard(colors, d)
                for parent in obj["parents"]:
                    q = zc.apply_flip(q, parent)
                return q

            def same(what):
                return lambda r: expect(r == want, f"{what} differs from the input")

            log.group = index
            q, _ = log.op("walk", walk, same("walk end"))
            log.op("validate", lambda: zc.validate(q), lambda diagnostic: diagnostic)
            inv, _ = log.op("inversions", lambda: zc.inversions(q),
                            lambda r: expect(r == obj["inversions"], "inversion set differs"))
            log.op("from_spectra", lambda: zc.from_spectra(q.vertices(), colors, d),
                   same("from_spectra"))
            log.op("from_order", lambda: zc.from_order(zc.order_of(q)), same("from_order"))
            log.op("from_consistent", lambda: zc.from_consistent(inv, n, d + 1).projected,
                   same("from_consistent"))
            if d == 3:
                log.op("sec", lambda: zc.sec(q),
                       lambda t: expect(zc.triangulation_shape_ok(t),
                                        "slice is not a polygon triangulation"))
            for cmd in CLI_COMMANDS:
                log.op("cli", lambda: run_cli(zc.cli.main, [cmd, "-"], obj["json"]),
                       lambda got: cli_problem(got, obj["cli"][cmd]))

    def metrics(self, ops, inputs):
        per_object = [0.0] * len(inputs["objects"])
        for job, index, seconds in ops:
            if job != "cli":
                per_object[index] += seconds
        value, pct, count = tail(per_object)
        return {
            "objects_per_s": metric(len(per_object) / math.fsum(per_object), "1/s"),
            "object_p50_ms": metric(1000 * statistics.median(per_object), "ms"),
            "object_tail_ms": metric(1000 * value, "ms", percentile=pct, samples=count),
            "cli_p50_ms": metric(1000 * statistics.median(
                s for job, _, s in ops if job == "cli"), "ms"),
        }, ("object_p50_ms", "object_tail_ms", "cli_p50_ms")


def run_cli(main, argv, stdin_text):
    """cli.main in-process on the given stdin; returns (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def cli_problem(got, want):
    code, text = got
    if code != 0:
        return f"exit {code}"
    return expect(text == want, "stdout differs from the library's answer")


WORKLOADS = {w.name: w for w in (FlipGraph(), Separation(), RoundTrip())}


# ---------------------------------------------------------------------------
# worker process


def timed_passes(zc, workload, inputs, seconds):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        log = Log()
        workload.run_pass(zc, inputs, log)
        log.close()
        passes.append(log)
    return passes


def end_to_end(workload, passes, inputs) -> dict:
    """Named metrics in host-normalized units, each with its raw value beside it."""
    named, jobs = workload.metrics(op_seconds(passes), inputs)
    raw, _ = workload.metrics(op_seconds(passes, normalized=False), inputs)
    for name, m in named.items():
        m["raw"] = raw[name]["value"]
    return {"named": named, "jobs": list(jobs),
            "wall_s": wall_seconds(op_seconds(passes)),
            "wall_raw_s": wall_seconds(op_seconds(passes, normalized=False))}


def traced_passes(zc, workload, inputs, seconds, spans_path):
    """Alternate untraced and traced passes; per-layer numbers come from the traced ones."""
    from tracer import Tracer

    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    tracer = None
    while not traced or time.perf_counter() - start < seconds:
        log = Log()
        workload.run_pass(zc, inputs, log)
        log.close()
        plain.append(log)
        tracer = Tracer()
        log = Log(tracer)
        tracer.install(zc)
        try:
            workload.run_pass(zc, inputs, log)
        finally:
            tracer.uninstall()
        log.close()
        traced.append(log)
        summaries.append(tracer.summary())
    tracer.write_spans(spans_path)
    layer = {}
    for name in summaries[0]:
        values = [s.get(name, 0) for s in summaries]
        layer[name] = statistics.median(values) if name.endswith(".self_s") else values[0]
    untraced = wall_seconds(op_seconds(plain))
    traced_wall = wall_seconds(op_seconds(traced))
    layer["trace.overhead_s"] = traced_wall - untraced
    return plain + traced, layer, {"untraced_wall_s": untraced, "traced_wall_s": traced_wall,
                                   "traced_passes": len(traced)}


def main(argv=None) -> int:
    before = reference_seconds()
    start_setup = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(PROFILES), default="full")
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    args = ap.parse_args(argv)

    zc = import_zonocube()
    workload = WORKLOADS[args.workload]
    inputs, record = workload.setup(zc, PROFILES[args.size], args.seed)
    setup_raw = time.perf_counter() - start_setup
    after = reference_seconds()
    out = {"setup_s": setup_raw * REF_NOMINAL_S / ((before + after) / 2),
           "setup_raw_s": setup_raw, "inputs": record}
    if args.phase == "run":
        if args.trace:
            passes, layer, info = traced_passes(zc, workload, inputs, args.seconds,
                                                Path(args.spans))
            out.update(per_layer=layer, **info)
        else:
            passes = timed_passes(zc, workload, inputs, args.seconds)
            out.update(end_to_end(workload, passes, inputs),
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        refs = sorted(1000 * r for log in passes for r in log.refs)
        failures = [f for log in passes for f in log.failures]
        out.update(passes=len(passes), attempted=sum(log.attempted for log in passes),
                   failed=len(failures), failures=failures[:20],
                   reference_ms={"min": refs[0], "median": statistics.median(refs),
                                 "max": refs[-1], "samples": len(refs),
                                 "nominal": 1000 * REF_NOMINAL_S})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
