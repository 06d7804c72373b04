"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

They run the smoke mode (the first job of each job group), so together they
take about half a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import oracle  # noqa: E402
from jobs import run_job  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seconds", "0", "--trace", str(trace), "--seed", "7"],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    return proc


def last_json(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def printed_digest(proc):
    return next(line.split()[1] for line in proc.stdout.splitlines() if line.startswith("digest "))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_and_untraced_runs_agree(workload):
    plain, traced = run_bench(workload, 0), run_bench(workload, 1)
    assert plain.returncode == 0, plain.stdout[-3000:] + plain.stderr[-3000:]
    assert traced.returncode == 0, traced.stdout[-3000:] + traced.stderr[-3000:]
    assert printed_digest(plain) == printed_digest(traced)
    plain_res, traced_res = last_json(plain), last_json(traced)
    assert plain_res["correct"] and traced_res["correct"]
    assert set(plain_res) == {"correct", "attempted", "failed", "metrics"}
    assert list(plain_res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(traced_res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    # the smoke subset of chains certifies nothing, so its certified_ratio is 0
    assert all(m["value"] > 0 for k, m in plain_res["metrics"].items() if k != "certified_ratio")


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("kernel", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_leaf_oracle_rejects_a_wrong_monomial():
    job = corpus.Job("named", "monomialize", (corpus.parse("y1^2 - x1^3", 1, 1),))
    report = run_job(job, {}).output[0]
    for chain, leaf in report.tree.branches():
        if leaf.payload.get("kind") != "normal":
            continue
        sig = report.tree.leaf_sig(chain)
        f = job.args[0]
        assert oracle.check_factor(f, chain, f.sig, sig, leaf.payload, random.Random(1)) == []
        wrong = dict(leaf.payload, monomial={"x": [str(int(leaf.payload["monomial"]["x"][0]) + 1)],
                                             "y": leaf.payload["monomial"]["y"]})
        found = oracle.check_factor(f, chain, f.sig, sig, wrong, random.Random(1))
        assert found and all(msg.startswith("leaf_value") for msg in found)


def test_self_times_add_up_to_the_outer_span():
    import gpseries as gp

    args = corpus.build("kernel")[0].args
    tracer = Tracer()
    tracer.install()
    try:
        gp.weierstrass_divide(*args)
    finally:
        tracer.uninstall()
    outer = tracer.stats["division.weierstrass_divide"]
    assert outer.calls == 1
    assert tracer.stats["series.mul"].calls > 0
    # every nested second is the self time of exactly one span
    assert sum(s.self_s for s in tracer.stats.values()) == pytest.approx(outer.total_s, rel=1e-6)
    assert not hasattr(gp.weierstrass_divide, "__wrapped__")
