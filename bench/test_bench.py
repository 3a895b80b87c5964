"""The benchmark's own tests: python3 -m pytest bench -q"""

import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace

import pytest

import run
import workloads
from tracer import Tracer
from workloads import TINY, Log, import_zonocube

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

NAMED = {
    "flipgraph": {"poset_4_2_s", "poset_5_3_s", "enum_6_4_s", "states_per_s"},
    "separation": {"weak_5_1_s", "count_6_4_s", "extend_s"},
    "roundtrip": {"objects_per_s", "object_p50_ms", "object_tail_ms", "cli_p50_ms"},
}
COMMON = {"setup_s", "wall_s", "peak_rss_mb", "ops_failed_ratio", "ops_attempted"}


@pytest.fixture(scope="module")
def zc():
    return import_zonocube()


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                 "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads(record_line)["record"]
    assert record["seed"] == 3 and record["inputs"]
    if trace == "0":
        named = record["metrics"]
        assert NAMED[workload] | COMMON <= set(named)
        assert all(m["unit"] for m in named.values())
        assert named["ops_failed_ratio"]["value"] == 0
    else:
        assert (run.ROOT / record["spans"]).is_file()


def test_wrong_expected_answer_is_a_failed_operation(zc):
    (job, kind, n, d, want), *rest = TINY.flip_jobs
    profile = replace(TINY, flip_jobs=((job, kind, n, d, want + 1), *rest))
    flipgraph = workloads.WORKLOADS["flipgraph"]
    inputs, _ = flipgraph.setup(zc, profile, seed=0)
    passes = workloads.timed_passes(zc, flipgraph, inputs, seconds=0)
    outcome = workloads.end_to_end(flipgraph, passes, inputs)
    outcome.update(attempted=passes[0].attempted, failed=len(passes[0].failures),
                   peak_rss_mb=1.0)
    ratio = run.end_to_end(outcome, setup_s=0.0)["ops_failed_ratio"]
    assert (ratio["failed"], ratio["attempted"]) == (1, 3)
    assert ratio["value"] == pytest.approx(1 / 3)


def test_wrong_cli_answer_fails_only_that_call(zc):
    roundtrip = workloads.WORKLOADS["roundtrip"]
    inputs, _ = roundtrip.setup(zc, TINY, seed=5)
    inputs["objects"][0]["cli"]["spectra"] += " "
    log = Log()
    roundtrip.run_pass(zc, inputs, log)
    assert log.failures == ["cli: stdout differs from the library's answer"]


def test_seed_fixes_the_inputs(zc):
    roundtrip = workloads.WORKLOADS["roundtrip"]

    def walks(seed):
        inputs, _ = roundtrip.setup(zc, TINY, seed)
        return [obj["parents"] for obj in inputs["objects"]]

    assert walks(11) == walks(11)
    assert walks(11) != walks(12)


def test_traced_self_times_are_exact_and_nested(zc):
    tracer = Tracer()
    log = Log(tracer)
    tracer.install(zc)
    try:
        for name in ("roundtrip", "flipgraph"):
            w = workloads.WORKLOADS[name]
            inputs, _ = w.setup(zc, TINY, seed=2)
            w.run_pass(zc, inputs, log)
    finally:
        tracer.uninstall()
    assert not log.failures
    child_ns = defaultdict(int)
    spans = {sid: (parent, end - start, own) for sid, parent, _op, _n, start, end, own
             in tracer.spans}
    for parent, duration, _own in spans.values():
        if parent is not None:
            child_ns[parent] += duration
    for sid, (_parent, duration, own) in spans.items():
        assert own >= 0
        assert child_ns[sid] <= duration
        assert own == duration - child_ns[sid]
    top = sum(d for parent, d, _ in spans.values() if parent is None)
    assert sum(own for *_, own in spans.values()) <= top
    summary = tracer.summary()
    assert summary["cli.build_parser.calls"] > 0 and summary["order.find_flips.calls"] > 0


def test_patches_reach_every_name_and_come_off(zc):
    import zonocube.cli

    modules = [zc, zc.bruhat, zc.order, zonocube.cli]
    before = [m.find_flips for m in modules]
    tracer = Tracer()
    tracer.install(zc)
    try:
        wrapped = {m.find_flips for m in modules}
        assert len(wrapped) == 1 and wrapped.pop().__wrapped__ is before[0]
        assert all(getattr(m.colorset, "__wrapped__", None) is zc.colors.colorset.__wrapped__
                   for m in (zc.colors, zc.cubillage, zc.order, zc.systems, zc.bruhat))
        zc.Cubillage((1, 2), 2, [((), (1, 2))])
        assert tracer.calls["cubillage.Cubillage"] == 1
    finally:
        tracer.uninstall()
    assert [m.find_flips for m in modules] == before
    assert not hasattr(zc.colors.colorset, "__wrapped__")


def test_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "flipgraph", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
