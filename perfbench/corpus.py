"""Seeded job corpus for the four benchmark workloads.

Every input is drawn from a recorded corpus seed, so the job set, the outcome
counts and the output digest are the same in every run and can be compared
across commits; the run seed (``--seed``) only orders the jobs.  The
generators draw exactly as the ones in the package's acceptance tests
(``tests/conftest.py`` and ``tests/test_acceptance.py``); they are copied here
so that a later change to the test helpers cannot silently change the
benchmark's inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import gpseries as gp

SIG11 = gp.Signature(1, 1)
PRECISION = Fraction(8)

# Step budget of the (1,1) division-chain sweep; every other job runs at the
# engine defaults.
SWEEP_MAX_STEPS = 100

# Corpus seeds and sizes (numbers of draws, or of points per point set).  A
# pass must fit at least three times into one run.
SEEDS = {
    "weierstrass": 31337,  # acceptance test 3
    "implicit_roots": 888,  # acceptance test 8
    "pullbacks": 20260826,  # acceptance test 1
    "mono_11": 1,
    "mono_21": 1,
    "mono_12": 9,
    "chain_sweep": 5,  # the ROADMAP item-4 sweep
    "sets": 9001,  # acceptance test 7
}
SIZES = {
    "weierstrass": 100,
    "implicit": 30,
    "roots": 30,
    "pullbacks": 400,
    "mono_11": 40,
    "mono_21": 20,
    "mono_12": 10,
    "chain_pairs": 20,
    "set_points": 2500,
}

# The 11 named inputs of tests/test_monomialize.py: the walkthrough corpus
# and the named hard cases.
NAMED_MONOMIALIZE = [
    ("y1^2 - x1^2", 1, 1),
    ("y1^2 - x1^3", 1, 1),
    ("y1^2 - x1^2*y1 - x1^3", 1, 1),
    ("x1^(1/2) + x1^(2/3)*y1", 1, 1),
    ("x1^2*x2 + x1*x2^3", 2, 0),
    ("(1 + y1)*x1^(5/2)", 1, 1),
    ("y1^3 - 3*x1*y1 - x1^2", 1, 1),
    ("y1^4 - x1^3", 1, 1),
    ("(y1^2 - x1^2)*(y1^2 - 4*x1^2)", 1, 1),
    ("y1^2 - x1^2*y2^2", 1, 2),
    ("y1*y2 - x1^2", 1, 2),
]

# The three families of acceptance test 5.
CHAIN_FAMILIES = [
    ["y1^2 - x1^2", "x1", "y1"],
    ["y1^2 - x1^3", "y1 - x1", "x1^2"],
    ["x1 + y1", "x1 - y1", "x1*y1"],
]

# The two basic sets of acceptance test 7.
CONE = "y1^2 - x1^2 = 0 & x1 > 0 & y1 > 0"
CUSP = "y1^2 - x1^3 = 0 & x1 > 0"

# Points per covering job and per membership job in the sets workload.
COVER_BATCH = 250
MEMBERSHIP_BATCH = 500


@dataclass(frozen=True)
class Job:
    """One closed-loop request: ``kind`` selects the call, ``args`` holds the
    generated inputs, ``cli_text`` the CLI input file for the named inputs."""

    id: str
    kind: str
    args: tuple
    cli_text: str = ""


# -- generators (same draws as the acceptance tests) ---------------------------


def random_series(rng, sig, prec=8, nterms=4, max_den=2, fractional_x=True):
    terms = {}
    for _ in range(nterms):
        xs = tuple(
            Fraction(rng.randint(0, 4), rng.randint(1, max_den) if fractional_x else 1)
            for _ in range(sig.m)
        )
        ys = tuple(rng.randint(0, 4) for _ in range(sig.n))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        terms[(xs, ys)] = terms.get((xs, ys), Fraction(0)) + coeff
    return gp.Series(sig, terms, Fraction(prec))


def random_unit(rng, sig, prec=8, nterms=3):
    s = random_series(rng, sig, prec, nterms)
    zero_exp = (tuple([Fraction(0)] * sig.m), tuple([0] * sig.n))
    terms = dict(s.terms)
    terms[zero_exp] = Fraction(rng.randint(1, 5))
    return gp.Series(sig, terms, Fraction(prec))


def random_regular(rng, d, prec=8):
    terms = {((Fraction(0),), (d,)): Fraction(rng.choice([1, 2, -1]))}
    for _ in range(3):
        terms[((Fraction(rng.randint(1, 3)),), (rng.randint(0, d - 1),))] = Fraction(
            rng.randint(-3, 3)
        )
    for _ in range(2):
        terms[((Fraction(0),), (d + rng.randint(1, 2),))] = Fraction(rng.randint(-2, 2))
    return gp.Series(SIG11, terms, Fraction(prec))


def parse(text, m, n):
    return gp.parse_series(text, gp.Signature(m, n), PRECISION)


def transform_variants():
    """One representative of every transform family and chart type."""
    h = parse("x1 + x1^2", 1, 0)
    inf, neg_inf = gp.transforms.INF, gp.transforms.NEG_INF
    return [
        (gp.BlowUpXX(2, 1, 0), gp.Signature(2, 1)),
        (gp.BlowUpXX(2, 1, Fraction(1, 2)), gp.Signature(2, 1)),
        (gp.BlowUpXX(2, 1, inf), gp.Signature(2, 1)),
        (gp.BlowUpYX(1, 1, Fraction(1, 2)), SIG11),
        (gp.BlowUpYX(1, 1, 0), SIG11),
        (gp.BlowUpYX(1, 1, inf), SIG11),
        (gp.BlowUpYX(1, 1, neg_inf), SIG11),
        (gp.BlowUpYY(1, 2, Fraction(2)), gp.Signature(1, 2)),
        (gp.BlowUpYY(1, 2, inf), gp.Signature(1, 2)),
        (gp.Tschirnhausen(h), SIG11),
        (gp.Linear(2, (Fraction(-1),)), gp.Signature(0, 2)),
        (gp.RamifyX(1, Fraction(1, 2)), SIG11),
        (gp.RamifyX(1, Fraction(3)), SIG11),
        (gp.RamifyY(1, 2, -1), SIG11),
        (gp.SignChart(1, -1), SIG11),
    ]


# -- workloads -----------------------------------------------------------------


def kernel_jobs():
    jobs = []
    rng = random.Random(SEEDS["weierstrass"])
    for k in range(SIZES["weierstrass"]):
        d = rng.randint(1, 4)
        g = random_regular(rng, d)
        f = random_series(rng, SIG11, nterms=4, fractional_x=False)
        jobs.append(Job(f"weierstrass-{k:03d}", "weierstrass", (f, g, d)))
    rng = random.Random(SEEDS["implicit_roots"])
    for k in range(SIZES["implicit"]):
        terms = {((Fraction(0),), (1,)): Fraction(rng.choice([1, -1, 2]))}
        for _ in range(3):
            xdeg = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            terms[((xdeg,), (rng.randint(0, 3),))] = Fraction(rng.randint(-3, 3))
        terms[((Fraction(0),), (rng.randint(2, 3),))] = Fraction(rng.randint(-2, 2))
        jobs.append(Job(f"implicit-{k:03d}", "implicit", (gp.Series(SIG11, terms, Fraction(6)),)))
    for k in range(SIZES["roots"]):
        e = rng.randint(2, 3)
        u = random_unit(rng, SIG11, nterms=3)
        terms = dict(u.terms)
        terms[((Fraction(0),), (0,))] = Fraction(rng.randint(1, 3)) ** e
        jobs.append(Job(f"root-{k:03d}", "root", (gp.Series(SIG11, terms, u.precision), e)))
    rng = random.Random(SEEDS["pullbacks"])
    variants = transform_variants()
    for k in range(SIZES["pullbacks"]):
        t, sig = variants[k % len(variants)]
        f = random_series(rng, sig, nterms=3, fractional_x=False)
        g = random_series(rng, sig, nterms=3, fractional_x=False)
        jobs.append(Job(f"pullback-{k:04d}", "pullback", (t, f, g)))
    return jobs


def cli_text(text, m, n):
    return f"vars x:{m} y:{n}\n{text};\n"


def monomialize_jobs():
    jobs = [
        Job(f"named-{k:02d}", "monomialize", (parse(text, m, n),), cli_text(text, m, n))
        for k, (text, m, n) in enumerate(NAMED_MONOMIALIZE)
    ]
    for key, sig in (("mono_11", (1, 1)), ("mono_21", (2, 1)), ("mono_12", (1, 2))):
        rng = random.Random(SEEDS[key])
        drawn = 0
        while drawn < SIZES[key]:
            f = random_series(rng, gp.Signature(*sig), nterms=3)
            if f.is_zero():
                continue
            jobs.append(Job(f"draw{sig[0]}{sig[1]}-{drawn:02d}", "monomialize", (f,)))
            drawn += 1
    return jobs


def chains_jobs():
    jobs = [
        Job(f"family-{k}", "family", (tuple(parse(t, 1, 1) for t in texts),))
        for k, texts in enumerate(CHAIN_FAMILIES)
    ]
    rng = random.Random(SEEDS["chain_sweep"])
    for k in range(SIZES["chain_pairs"]):
        pair = tuple(
            random_series(rng, SIG11, nterms=2, fractional_x=False) for _ in range(2)
        )
        if any(s.is_zero() for s in pair):
            continue  # as in the sweep: a pair with a zero member is not a job
        jobs.append(Job(f"sweep-{k:02d}", "sweep", (pair,)))
    return jobs


def set_points(n_points):
    """On-set and off-set points of acceptance test 7, drawn in its order."""
    rng = random.Random(SEEDS["sets"])
    cone_on = [[t, t] for t in (rng.uniform(1e-4, 0.01) for _ in range(n_points))]
    cone_off = []
    for _ in range(n_points):
        x = rng.uniform(1e-3, 0.01)
        cone_off.append([x, x * rng.choice([0.5, 2.0, -1.0])])
    cusp_on = []
    for _ in range(n_points):
        x = rng.uniform(1e-4, 0.01)
        cusp_on.append([x, rng.choice([1.0, -1.0]) * x**1.5])
    cusp_off = []
    for _ in range(n_points):
        x = rng.uniform(1e-3, 0.01)
        cusp_off.append([x, rng.choice([2.0, -0.5]) * x**1.5])
    return {"cone": (cone_on, cone_off), "cusp": (cusp_on, cusp_off)}


def sets_jobs():
    """Parametrise each set, then check covering and membership in batches.

    The covering and membership jobs need the set's parametrisation, so they
    name it and the runner looks it up; the parametrisation jobs run first in
    every pass."""
    points = set_points(SIZES["set_points"])
    jobs = []
    for name, text in (("cone", CONE), ("cusp", CUSP)):
        bset = gp.parse_basic_set(text, SIG11, PRECISION)
        jobs.append(Job(f"{name}-parametrize", "parametrize", (name, bset)))
        on, off = points[name]
        for side, pts in (("on", on), ("off", off)):
            for b in range(0, len(pts), COVER_BATCH):
                jobs.append(
                    Job(f"{name}-cover-{side}-{b // COVER_BATCH:02d}", "cover",
                        (name, side, pts[b:b + COVER_BATCH]))
                )
            for b in range(0, len(pts), MEMBERSHIP_BATCH):
                jobs.append(
                    Job(f"{name}-member-{side}-{b // MEMBERSHIP_BATCH:02d}", "membership",
                        (name, side, bset, pts[b:b + MEMBERSHIP_BATCH]))
                )
    return jobs


BUILDERS = {
    "kernel": kernel_jobs,
    "monomialize": monomialize_jobs,
    "chains": chains_jobs,
    "sets": sets_jobs,
}
WORKLOADS = tuple(BUILDERS)


def job_group(job):
    """``weierstrass-007`` -> ``weierstrass``; ``cone-cover-on-03`` -> ``cone-cover-on``."""
    return job.id.rsplit("-", 1)[0]


def build(workload, smoke=False):
    """The workload's jobs; the smoke mode keeps the first job of each group."""
    jobs = BUILDERS[workload]()
    if smoke:
        seen = set()
        jobs = [j for j in jobs if not (job_group(j) in seen or seen.add(job_group(j)))]
    return jobs
