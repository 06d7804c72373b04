"""gpseries benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 20 --trace 0

Workloads: kernel, monomialize, chains, sets (see perfbench/README.md).  The
run executes whole passes over the workload's jobs, in an order drawn from
``--seed``, until the next pass would end past ``--seconds``; every pass runs
the same jobs, so counts per pass repeat exactly.  Each job starts only after
the previous one returned; there are no worker threads or processes besides
the engine's own worker thread and, on ``monomialize``, one CLI process at a
time.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (plus one untraced pass, to state the tracing overhead).  The run
fails (exit 1) when an output check fails, when the passes disagree, or when
the output digest differs from the one recorded in perfbench/expected.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from fractions import Fraction
from random import Random
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

SETUP_PROBES = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs beyond it
# Job times are rescaled to the CPU speed at which calibration_task takes
# CAL_REF_MS (see calibrate); the speed is measured again after every
# CALIBRATE_EVERY_S CPU seconds of jobs.
CAL_REF_MS = 2.0
CALIBRATE_EVERY_S = 0.25


# -- run header ------------------------------------------------------------------


def loadavg_1m():
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "gpseries").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def calibration_task():
    """A fixed product of two sparse exact-rational polynomials, the kind of
    work the package does, written without it."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6 - i)}
    acc = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            key = (i1 + i2, j1 + j2)
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def calibrate():
    """CPU milliseconds of calibration_task, median of 3.

    The CPU speed of the shared machine the benchmark was built on switches
    between levels up to 1.8 times apart for tens of seconds at a time, and
    the package's Fraction- and dict-heavy work follows it.  Job times are
    therefore rescaled by CAL_REF_MS / calibrate(), measured next to them."""
    times = []
    for _ in range(3):
        start = process_time()
        calibration_task()
        times.append(process_time() - start)
    return statistics.median(times) * 1000


def header():
    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "loadavg_1m_start": loadavg_1m(),
        "calibration_ms_start": calibrate(),
    }


# -- set-up time -------------------------------------------------------------------


def children_cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(workload, smoke):
    """Median CPU time of fresh interpreters that import the package and
    generate the workload's inputs, rescaled like the job times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload]
    if smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        speed = calibrate()
        start = children_cpu_seconds()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append((children_cpu_seconds() - start) * CAL_REF_MS / speed)
    return statistics.median(times)


# -- the closed loop -----------------------------------------------------------------


def run_pass(jobs, rng, budget_factor, tracer=None):
    """One pass over every job; the parametrisations run first."""
    from jobs import FIRST_KINDS, run_job

    first = [j for j in jobs if j.kind in FIRST_KINDS]
    rest = [j for j in jobs if j.kind not in FIRST_KINDS]
    rng.shuffle(first)
    rng.shuffle(rest)
    index = {j.id: k for k, j in enumerate(jobs)}
    state, results = {}, {}
    speed, since = calibrate(), 0.0
    for job in first + rest:
        if since >= CALIBRATE_EVERY_S:
            speed, since = calibrate(), 0.0
        # Every job starts with an empty young generation, and the outputs
        # kept for the oracle are frozen out of the collector's scans: a job's
        # collection pauses then depend on its own allocations only, not on
        # the job order or on what the benchmark holds.
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.begin_job(index[job.id])
        res = run_job(job, state, budget_factor)
        since += res.seconds
        res.raw_seconds, res.seconds = res.seconds, res.seconds * CAL_REF_MS / speed
        results[job.id] = res
    return results


def run_passes(jobs, seconds, rng, budget_factor, tracer=None):
    """Whole passes until the next one would end past ``seconds`` (at least
    one).  Outputs are kept for the first pass only, for the oracle."""
    passes = []
    start = perf_counter()
    while True:
        results = run_pass(jobs, rng, budget_factor, tracer)
        if passes:
            for res in results.values():
                res.output = None
        passes.append(results)
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def job_hash(res):
    return hashlib.sha256(f"{res.outcome}\n{res.canonical}".encode()).hexdigest()[:16]


def digest(results):
    """sha256 over every job's outcome class and canonical result."""
    h = hashlib.sha256()
    for job_id in sorted(results):
        res = results[job_id]
        h.update(f"{job_id}\n{res.outcome}\n{res.canonical}\n".encode())
    return h.hexdigest()


def outcome_counts(results):
    from jobs import OUTCOMES

    return {o: sum(r.outcome == o for r in results.values()) for o in OUTCOMES}


def busy_seconds(results):
    return sum(r.seconds for r in results.values())


# -- CLI ------------------------------------------------------------------------------


def run_cli(jobs, first_pass):
    """Run the named inputs through ``gpseries.cli monomialize --json``, one
    process at a time; the bytes must equal the in-process JSON."""
    from jobs import dumps

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, problems = [], []
    for job in jobs:
        if not job.cli_text:
            continue
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "gpseries.cli", "monomialize", "-", "--json"],
            input=job.cli_text.encode(), capture_output=True, env=env, cwd=ROOT, timeout=120,
        )
        times.append((perf_counter() - start) * 1000)
        res = first_pass[job.id]
        if res.outcome != "certified" or proc.returncode != 0:
            problems.append(f"{job.id}: CLI exit {proc.returncode}, in-process {res.outcome}")
        elif proc.stdout != (dumps(res.output[2]) + "\n").encode():
            problems.append(f"{job.id}: CLI JSON differs from the in-process JSON")
    return times, problems


# -- expected digests ----------------------------------------------------------------------


def load_expected(mode, workload):
    if not EXPECTED.exists():
        return None
    return json.loads(EXPECTED.read_text()).get(mode, {}).get(workload)


def record_expected(mode, workload, results):
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    data.setdefault(mode, {})[workload] = {
        "digest": digest(results),
        "outcomes": outcome_counts(results),
        "jobs": {job_id: f"{results[job_id].outcome} {job_hash(results[job_id])}"
                 for job_id in sorted(results)},
    }
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def compare_expected(expected, results):
    """Ids of jobs whose outcome or result differs from the recorded one."""
    if expected is None:
        return []
    recorded = expected["jobs"]
    changed = [job_id for job_id, res in results.items()
               if recorded.get(job_id) != f"{res.outcome} {job_hash(res)}"]
    return sorted(changed + [job_id for job_id in recorded if job_id not in results])


# -- metrics ---------------------------------------------------------------------------


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, so that a gap between neighbouring jobs' times does not make
    the estimate jump from one job to the next."""
    import mpmath

    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    return sum(float(mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True)) * x
               for i, x in enumerate(xs))


def latency_metrics(passes):
    """Median per job across passes, then p50 and tail over jobs; the tail
    is the order statistic with TAIL_BEYOND jobs beyond it."""
    per_job = [statistics.median(p[j].seconds for p in passes) for j in passes[0]]
    n = len(per_job)
    tail_rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {
        "p50_ms": hd_quantile(per_job, 0.5) * 1000,
        "tail_ms": hd_quantile(per_job, tail_rank / (n + 1)) * 1000,
        "tail_percentile": 100 * tail_rank / n,
        "jobs": n,
    }


def raw_time_metrics(passes):
    """The time metrics from the CPU times as measured, before rescaling."""
    raw = [{j: dataclasses.replace(r, seconds=r.raw_seconds) for j, r in p.items()} for p in passes]
    lat = latency_metrics(raw)
    return {
        "jobs_per_s": statistics.median(len(p) / busy_seconds(p) for p in raw),
        "job_ms.p50": lat["p50_ms"],
        "job_ms.tail": lat["tail_ms"],
    }


def group_seconds(jobs, passes):
    """Median busy seconds per pass of each job group."""
    from corpus import job_group

    groups = {}
    for job in jobs:
        groups.setdefault(job_group(job), []).append(job.id)
    return {g: statistics.median(sum(p[j].seconds for j in ids) for p in passes)
            for g, ids in groups.items()}


def pass_counts(results):
    from jobs import COUNTS

    return {c: sum(r.counts.get(c, 0) for r in results.values()) for c in COUNTS}


def layer_metrics(tracer, setup_tracer, passes, cli_ms, overhead_ratio):
    from tracing import TRANSFORM_KINDS, Stat

    n = len(passes)

    def stat(name, source=tracer):
        return source.stats.get(name) or Stat()

    m = {}
    for op in ("mul", "add", "substitute_y", "invert_unit"):
        s = stat(f"series.{op}")
        m[f"series.{op}.calls"] = s.calls / n
        m[f"series.{op}.self_s"] = s.self_s / n
    m["series.construct.count"] = tracer.constructed / n
    m["series.terms.peak"] = tracer.terms_peak
    for kind in TRANSFORM_KINDS:
        s = stat(f"transforms.pullback.{kind}")
        m[f"transforms.pullback.{kind}.calls"] = s.calls / n
        m[f"transforms.pullback.{kind}.self_s"] = s.self_s / n
    m["transforms.pullback_chain.calls"] = stat("transforms.pullback_chain").calls / n
    m["transforms.pullback_chain.edges"] = tracer.chain_edges / n
    m["transforms.pullback_chain.useful_ratio"] = (
        tracer.chain_distinct / tracer.chain_edges if tracer.chain_edges else 0.0
    )
    s = stat("transforms.point_map")
    m["transforms.point_map.calls"] = s.calls / n
    m["transforms.point_map.self_s"] = s.self_s / n
    for fn in ("weierstrass_divide", "solve_implicit", "tschirnhausen_center", "unit_root"):
        s = stat(f"division.{fn}")
        m[f"division.{fn}.calls"] = s.calls / n
        m[f"division.{fn}.self_s"] = s.self_s / n
    counts = pass_counts(passes[0])
    m["monomialize.monomialize.s"] = stat("monomialize.monomialize").total_s / n
    m["monomialize.division_chain.s"] = stat("monomialize.division_chain").total_s / n
    m["monomialize.leaf_results.s"] = stat("monomialize.leaf_results").total_s / n
    s = stat("monomialize.normal_form")
    m["monomialize.normal_form.calls"] = s.calls / n
    m["monomialize.normal_form.self_s"] = s.self_s / n
    m["monomialize.audit_entries"] = counts["audit_entries"]
    m["monomialize.leaves"] = counts["leaves"]
    m["monomialize.height"] = counts["height"]
    s = stat("trees.branches")
    m["trees.branches.calls"] = s.calls / n
    m["trees.branches.s"] = s.total_s / n
    m["trees.nodes"] = counts["nodes"]
    m["geometry.parametrize_basic.s"] = stat("geometry.parametrize_basic").total_s / n
    s = stat("geometry.piece_covers")
    m["geometry.piece_covers.calls"] = s.calls / n
    m["geometry.piece_covers.self_s"] = s.self_s / n
    m["geometry.covering_fraction_for.s"] = stat("geometry.covering_fraction_for").total_s / n
    s = stat("geometry.membership")
    m["geometry.membership.calls"] = s.calls / n
    m["geometry.membership.s"] = s.total_s / n
    m["geometry.pieces"] = counts["pieces"]
    s = stat("parser.parse_series", setup_tracer)
    m["parser.parse_series.calls"] = s.calls
    m["parser.parse_series.s"] = s.total_s
    m["parser.parse_basic_set.s"] = stat("parser.parse_basic_set", setup_tracer).total_s
    m["cli.ms.p50"] = statistics.median(cli_ms) if cli_ms else 0.0
    m["trace.overhead_ratio"] = overhead_ratio
    return m


# -- main --------------------------------------------------------------------------------


def parse_args(argv):
    from corpus import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="orders the jobs and picks oracle points")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="first job of each job group only")
    ap.add_argument("--budget-factor", type=int, default=1,
                    help="multiply every step budget; outcomes must not change at 10")
    ap.add_argument("--record", action="store_true",
                    help="write this run's per-job results to perfbench/expected.json")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure(args, jobs):
    """The timed loop.  A traced run makes one untraced pass first, so that
    it states its own overhead; returns the passes and, when traced, the
    tracer and the overhead in busy seconds per pass."""
    rng = Random(args.seed)
    if not args.trace:
        return run_passes(jobs, args.seconds, rng, args.budget_factor), None, None
    from tracing import Tracer

    start = perf_counter()
    untraced = run_passes(jobs, 0, rng, args.budget_factor)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(jobs, args.seconds - (perf_counter() - start), rng,
                            args.budget_factor, tracer)
    finally:
        tracer.uninstall()
    overhead_s = statistics.median(busy_seconds(p) for p in traced) - busy_seconds(untraced[0])
    return untraced + traced, tracer, overhead_s


def check(args, mode, jobs, passes):
    """Every output check.  Jobs whose output fails the oracle become
    internal errors in every pass, then the first pass is compared with the
    recorded results."""
    from jobs import INTERNAL_ERROR, dumps
    import oracle

    first = passes[0]
    disagree = sorted({j for p in passes[1:] for j in p if p[j].canonical != first[j].canonical
                       or p[j].outcome != first[j].outcome})
    cli_ms, cli_problems = run_cli(jobs, first)
    start = perf_counter()
    findings, unchecked, set_problems = oracle.check_all(jobs, first)
    oracle_s = perf_counter() - start
    for job_id, found in findings.items():
        kinds = sorted({msg.split(":")[0] for msg in found})
        for p in passes:
            p[job_id].outcome = INTERNAL_ERROR
            p[job_id].canonical = dumps({"oracle": kinds}) + p[job_id].canonical
    problems = cli_problems + set_problems
    if args.record:
        if problems or disagree:
            raise SystemExit("perfbench: not recording a run whose checks failed")
        record_expected(mode, args.workload, first)
    expected = load_expected(mode, args.workload)
    changed = compare_expected(expected, first) if expected else sorted(findings)
    return {
        "digest": digest(first),
        "expected_digest": expected and expected["digest"],
        "passes_disagree": disagree,
        "changed_vs_expected": changed,
        "oracle_findings": findings,
        "oracle_unchecked_points": unchecked,
        "oracle_s": oracle_s,
        "problems": problems,
        "cli_ms": cli_ms,
        "failed_jobs": sorted({p.split(":")[0] for p in problems} | set(disagree) | set(changed)),
    }


def print_summary(report, checks, units):
    print(f"perfbench {report['workload']} ({report['mode']}) seed={report['seed']} "
          f"trace={report['trace']} passes={report['passes']} jobs/pass={report['jobs_per_pass']}")
    print("header " + json.dumps(report["header"], sort_keys=True))
    print(f"outcomes {report['outcomes']} fail_ratio={report['fail_ratio']:.4f} "
          f"internal_error_ratio={report['internal_error_ratio']:.4f}")
    if checks["expected_digest"] is None:
        state = "unrecorded"
    elif checks["digest"] == checks["expected_digest"]:
        state = "matches recorded"
    else:
        state = "DIFFERS from recorded"
    print(f"digest {checks['digest']} ({state})")
    print(f"tail = p{report['tail']['percentile']:.1f} of {report['tail']['jobs']} jobs")
    raw = report["raw_metrics"]
    print(f"unscaled CPU time: jobs_per_s {raw['jobs_per_s']:.6g}, job_ms.p50 "
          f"{raw['job_ms.p50']:.6g}, job_ms.tail {raw['job_ms.tail']:.6g}")
    if checks["cli_ms"]:
        print(f"cli_ms.p50 {statistics.median(checks['cli_ms']):.3f} ms "
              f"over {len(checks['cli_ms'])} CLI runs")
    if "tracing_overhead_s" in report:
        print(f"tracing overhead {report['tracing_overhead_s']:.3f} s per pass "
              f"({report['metrics']['trace.overhead_ratio']:+.1%})")
    findings = checks["oracle_findings"]
    print(f"oracle {len(findings)} jobs with findings, {checks['oracle_unchecked_points']} "
          f"leaf points unchecked, {checks['oracle_s']:.1f} s")
    for job_id in sorted(findings):
        for msg in findings[job_id][:2]:
            print(f"oracle {job_id}: {msg}")
    for msg in checks["problems"][:20]:
        print(f"problem {msg}")
    if checks["passes_disagree"]:
        print(f"passes disagree on jobs {checks['passes_disagree'][:10]}")
    if checks["changed_vs_expected"]:
        print(f"results differ from perfbench/expected.json on "
              f"{len(checks['changed_vs_expected'])} jobs: {checks['changed_vs_expected'][:10]}")
    for name, value in report["metrics"].items():
        print(f"metric {name} {value:.6g} {units[name]}")


def main(argv=None):
    if not (SRC / "gpseries" / "__init__.py").exists():
        sys.stderr.write(f"perfbench: no package source at {SRC / 'gpseries'}\n")
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    args = parse_args(argv)
    import corpus

    if args.setup_probe:
        corpus.build(args.workload, args.smoke)
        return 0
    head = header()
    mode = "smoke" if args.smoke else "full"
    if args.trace:
        from tracing import Tracer

        setup_tracer = Tracer()
        setup_tracer.install()
        jobs = corpus.build(args.workload, args.smoke)
        setup_tracer.uninstall()
    else:
        setup_s = setup_seconds(args.workload, args.smoke)
        jobs = corpus.build(args.workload, args.smoke)
    passes, tracer, overhead_s = measure(args, jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = check(args, mode, jobs, passes)

    first = passes[0]
    counts = outcome_counts(first)
    n_jobs = len(first)
    timed = passes[1:] if args.trace else passes
    lat = latency_metrics(timed)
    head["loadavg_1m_end"] = loadavg_1m()
    head["calibration_ms_end"] = calibrate()
    if args.trace:
        base = busy_seconds(first)
        metrics = layer_metrics(tracer, setup_tracer, timed, checks["cli_ms"], overhead_s / base)
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {
            "jobs_per_s": statistics.median(len(p) / busy_seconds(p) for p in passes),
            "job_ms.p50": lat["p50_ms"],
            "job_ms.tail": lat["tail_ms"],
            "certified_ratio": counts["certified"] / n_jobs,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = {"jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.tail": "ms",
                 "certified_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
    report = {
        "workload": args.workload,
        "mode": mode,
        "seed": args.seed,
        "trace": args.trace,
        "budget_factor": args.budget_factor,
        "header": head,
        "passes": len(passes),
        "jobs_per_pass": n_jobs,
        "outcomes": counts,
        "fail_ratio": (counts["clean_failure"] + counts["internal_error"]) / n_jobs,
        "internal_error_ratio": counts["internal_error"] / n_jobs,
        "tail": {"percentile": lat["tail_percentile"], "jobs": lat["jobs"]},
        "group_busy_s": group_seconds(jobs, passes),
        "job_seconds": {j: [p[j].seconds for p in passes] for j in sorted(first)},
        "raw_metrics": raw_time_metrics(timed),
        **checks,
        "metrics": metrics,
    }
    if args.trace:
        report["tracing_overhead_s"] = overhead_s
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{mode}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{stem}.tsv.gz")

    print_summary(report, checks, units)
    correct = not checks["failed_jobs"]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p) for p in passes) + len(checks["cli_ms"]),
        "failed": len(checks["failed_jobs"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_unit(name):
    if name.endswith(".calls") or name.endswith(".count") or name.endswith(".peak") \
            or name.endswith(".edges") or name.split(".")[-1] in (
                "audit_entries", "leaves", "height", "nodes", "pieces"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".p50"):
        return "ms"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
