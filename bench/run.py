"""Benchmark of zonocube: one workload per run, every answer checked.

    python3 bench/run.py --workload flipgraph --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process (`bench/workloads.py`) that imports zonocube from the checkout's
`src`, builds its inputs from the seed, and repeats timed passes for the
given seconds.  Set-up is repeated in two more fresh processes, so `setup_s`
is a median of three.

Times are host-normalized seconds: each operation's time is scaled by a
fixed reference computation timed next to it (see `workloads.REF_NOMINAL_S`),
then the median over passes is taken per operation.  The raw seconds sit
beside every time in the record.  Per-layer self times are raw seconds.

stdout ends with two JSON lines.  The first, {"record": ...}, holds the
seed, the inputs, every named end-to-end metric with its unit, the gates
that failed, the reference samples, the host and the measured source.  The
last holds the metrics declared in BENCHMARK.json: with --trace 0 the
end-to-end ones, measured untraced; with --trace 1 the per-layer ones, from
passes traced by `bench/tracer.py` alternating with untraced passes, whose
difference is the tracing overhead.  Spans of the last traced pass go to
.bench_out/.

Exit status is 0 when a result was printed, whether or not gates failed
(`correct` and `failed` say that), and nonzero when no result could be
measured, e.g. when the directory holds no zonocube source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "zonocube"
DEADLINE_S = 170     # a run must end within 180 s
SETUP_SAMPLES = 3

WORKLOADS = ("flipgraph", "separation", "roundtrip")
# every workload fills these from its three headline jobs (see its `why`)
JOB_SLOTS = ("job1_s", "job2_s", "job3_s")
NO_WAIT = "none: one thread, no queues or locks, so no layer has a wait time"


def worker(args, phase: str, deadline: float) -> dict:
    """Run bench/workloads.py in a fresh process and return its JSON line."""
    cmd = [sys.executable, "-s", str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--phase", phase,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(spans_path(args))]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({phase}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spans_path(args) -> Path:
    return ROOT / ".bench_out" / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl.gz"


def host() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def measured_source() -> dict:
    """The commit when the checkout is a git work tree, and a hash of src either way."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(run: dict, setup_s: float) -> dict:
    """All end-to-end metrics: the named ones and the generic slots they fill."""
    named = dict(run["named"])
    attempted, failed = run["attempted"], run["failed"]
    named.update(
        setup_s={"value": setup_s, "unit": "s"},
        wall_s={"value": run["wall_s"], "unit": "s", "raw": run["wall_raw_s"]},
        peak_rss_mb={"value": run["peak_rss_mb"], "unit": "MB"},
        ops_failed_ratio={"value": failed / attempted, "unit": "ratio",
                          "failed": failed, "attempted": attempted},
        ops_attempted={"value": attempted, "unit": "count"},
    )
    for slot, job in zip(JOB_SLOTS, run["jobs"]):
        m = named[job]
        scale = {"s": 1.0, "ms": 1e-3}[m["unit"]]
        named[slot] = {"value": m["value"] * scale, "unit": "s", "raw": m["raw"] * scale,
                       "from": job}
    return named


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the benchmark's own smoke tests in seconds")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no zonocube source at {PACKAGE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        run = worker(args, "run", deadline)
        setups = [run]
        if not args.trace:
            setups += [worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_s = statistics.median(s["setup_s"] for s in setups)
    if args.trace:
        declared = spec["per_layer"]
        values = dict(run["per_layer"])
        named = {}
    else:
        declared = spec["end_to_end"]
        named = end_to_end(run, setup_s)
        values = {k: m["value"] for k, m in named.items()}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "inputs": run["inputs"], "passes": run["passes"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_samples_raw_s": [s["setup_raw_s"] for s in setups],
        "metrics": named, "failures": run["failures"], "wait_time": NO_WAIT,
        "reference_ms": run["reference_ms"],
        "host": host(), "source": measured_source(),
        "excluded": json.loads((BENCH / "excluded.json").read_text(encoding="utf-8")),
    }
    if args.trace:
        record.update(untraced_wall_s=run["untraced_wall_s"],
                      traced_wall_s=run["traced_wall_s"],
                      traced_passes=run["traced_passes"],
                      per_layer_all=run["per_layer"],
                      spans=str(spans_path(args).relative_to(ROOT)))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
