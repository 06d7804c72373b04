"""Run one job against the public API and reduce its output to canonical JSON.

A job ends in one of three outcome classes, decided by step budgets only
(``EngineOptions``), never by wall time:

* ``certified``: the call returned (the oracle checks the result later);
* ``clean_failure``: ``PrecisionExhausted`` or ``CapExceeded``;
* ``internal_error``: any other exception.

The canonical form of a failure records the exception class only, so that the
digest does not depend on the budget quoted in the message.
"""

from __future__ import annotations

import dataclasses
import json
from time import process_time

import gpseries as gp

from corpus import SIG11, SWEEP_MAX_STEPS

CERTIFIED, CLEAN_FAILURE, INTERNAL_ERROR = "certified", "clean_failure", "internal_error"
OUTCOMES = (CERTIFIED, CLEAN_FAILURE, INTERNAL_ERROR)

# Output counts summed per pass; they must repeat exactly.
COUNTS = ("audit_entries", "leaves", "height", "nodes", "pieces")


def engine_options(kind, budget_factor=1):
    """The job's step budgets, scaled by ``budget_factor``."""
    base = gp.EngineOptions()
    max_steps = SWEEP_MAX_STEPS if kind == "sweep" else base.max_steps
    return dataclasses.replace(
        base,
        max_steps=max_steps * budget_factor,
        princ_cap=base.princ_cap * budget_factor,
    )


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _series(s):
    return [gp.render(s), str(s.precision)]


def _tree_counts(tree):
    """Nodes, leaves and height, walked here so that no traced call is made."""
    todo, nodes, leaves, height = [(tree.root, 0)], 0, 0, 0
    while todo:
        node, depth = todo.pop()
        nodes += 1
        height = max(height, depth)
        if node.children:
            todo.extend((c, depth + 1) for c in node.children)
        else:
            leaves += 1
    return {"nodes": nodes, "leaves": leaves, "height": height}


# -- the calls ---------------------------------------------------------------------
# Each returns the output object; ``canonical`` and ``counts`` below read it.


def call_weierstrass(job, opts, state):
    f, g, d = job.args
    return gp.weierstrass_divide(f, g, d)


def call_implicit(job, opts, state):
    return gp.solve_implicit(job.args[0])


def call_root(job, opts, state):
    u, k = job.args
    return gp.unit_root(u, k)


def call_pullback(job, opts, state):
    t, f, g = job.args
    pf, pg = t.pullback(f), t.pullback(g)
    return {
        "f+g": f + g, "f*g": f * g, "pf": pf, "pg": pg,
        "p(f+g)": t.pullback(f + g), "p(f*g)": t.pullback(f * g),
        "pf+pg": pf + pg, "pf*pg": pf * pg,
    }


def call_monomialize(job, opts, state):
    report = gp.monomialize(job.args[0], opts)
    return report, report.leaf_results(), report.to_json()


def call_chain(job, opts, state):
    return gp.division_chain(list(job.args[0]), opts)


def call_parametrize(job, opts, state):
    name, bset = job.args
    param = gp.parametrize_basic(bset, opts)
    state[name] = param
    return param


def call_cover(job, opts, state):
    name, side, points = job.args
    param = state[name]
    return gp.geometry.covering_fraction_for(param, points, SIG11, tol=1e-3)


def call_membership(job, opts, state):
    name, side, bset, points = job.args
    return [gp.membership(bset, p) for p in points]


CALLS = {
    "weierstrass": call_weierstrass,
    "implicit": call_implicit,
    "root": call_root,
    "pullback": call_pullback,
    "monomialize": call_monomialize,
    "family": call_chain,
    "sweep": call_chain,
    "parametrize": call_parametrize,
    "cover": call_cover,
    "membership": call_membership,
}

# Jobs whose output later jobs of the same pass read; they run first.
FIRST_KINDS = ("parametrize",)


def canonical(job, out):
    """JSON-compatible summary of a certified job's output."""
    kind = job.kind
    if kind == "weierstrass":
        return {"q": _series(out.quotient), "r": _series(out.remainder), "d": out.order}
    if kind in ("implicit", "root"):
        return _series(out)
    if kind == "pullback":
        return {k: _series(v) for k, v in out.items()}
    if kind == "monomialize":
        report, leaf_results, js = out
        return {
            "json": js,
            "leaf_results": [
                [leaf.kind, None if leaf.unit is None else gp.render(leaf.unit),
                 str(leaf.precision)]
                for leaf in leaf_results
            ],
        }
    if kind in ("family", "sweep"):
        return {"leaves": out.leaves, "audit_entries": len(out.report.audit)}
    if kind == "parametrize":
        return out.to_json()
    if kind == "cover":
        return {"covered": round(out * len(job.args[2])), "points": len(job.args[2])}
    if kind == "membership":
        return {v: out.count(v) for v in sorted(set(out))}
    raise ValueError(kind)


def counts(job, out):
    """Per-layer output counts of a certified job."""
    if job.kind == "monomialize":
        report = out[0]
    elif job.kind in ("family", "sweep"):
        report = out.report
    elif job.kind == "parametrize":
        return {"pieces": len(out.pieces)}
    else:
        return {}
    return {"audit_entries": len(report.audit), **_tree_counts(report.tree)}


@dataclasses.dataclass
class JobResult:
    outcome: str
    seconds: float  # CPU seconds; the runner rescales them to the reference speed
    canonical: str
    counts: dict
    output: object  # the raw output, for the oracle
    raw_seconds: float = 0.0  # CPU seconds as measured


def run_job(job, state, budget_factor=1):
    """Run one job, timed in CPU seconds of the whole process (the engine's
    worker thread included): the loop is single-client and CPU-bound, so on
    an idle machine this equals the wall time, and on a shared one it leaves
    out the time the process waited for a core."""
    opts = engine_options(job.kind, budget_factor)
    call = CALLS[job.kind]
    start = process_time()
    try:
        out = call(job, opts, state)
    except (gp.PrecisionExhausted, gp.CapExceeded) as exc:
        seconds = process_time() - start
        return JobResult(CLEAN_FAILURE, seconds, dumps({"error": type(exc).__name__}), {}, None)
    except Exception as exc:  # an internal error is an outcome, recorded by class
        seconds = process_time() - start
        return JobResult(INTERNAL_ERROR, seconds, dumps({"error": type(exc).__name__}), {}, None)
    seconds = process_time() - start
    return JobResult(CERTIFIED, seconds, dumps(canonical(job, out)), counts(job, out), out)
