"""Output checks, run after the timed loop on the first pass's outputs.

None of them reuses the code path it checks:

* kernel identities (``f = Q*g + R``, ``g(x, a) = 0``, ``v^k = u`` and the
  ring-homomorphism identities of the pullbacks) are recomputed with sympy's
  sparse polynomial rings over QQ, x-exponents scaled to integers;
* every certified leaf or factor is checked numerically, in the style of
  acceptance test 2: at seeded leaf points ``q`` the input evaluated at
  ``forward_chain(chain, q)`` must match monomial x unit up to a discrepancy
  that vanishes to the claimed truncation order (measured by scaling ``q``,
  since the truncated tail's coefficients are not known).  The evaluation is
  plain float arithmetic over the terms, and the unit is read back from the
  rendered output text;
* the sets must cover at least 0.99 of the on-set points, claim no off-set
  point, and ``membership`` must never say IN for an off-set point.

A job whose output fails a check ends as an internal error whose recorded
result names the kinds of check it failed; the workload-wide checks on the
sets fail the run.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from random import Random

import gpseries as gp

LEAF_POINTS = 2  # seeded points per certified leaf or factor
POINT_RADIUS = 0.05  # as in acceptance test 2
# Leaf points stay within RADIUS_MARGIN / (GROWTH_SAFETY * G) of the origin,
# G the per-degree growth of the unit's coefficients, so that the lowest-order
# part of a discrepancy dominates it there.
GROWTH_SAFETY = 4.0
RADIUS_MARGIN = 0.05
SCALE = 4  # the second point shrinks each leaf coordinate's root by SCALE
MAX_DIGITS = 200  # decimal digits of a leaf coordinate's denominator
UNCHECKED = "leaf_unchecked"
MIN_COVERED = 0.99


# -- sympy rings ---------------------------------------------------------------


class Rings:
    """sympy rings over QQ, keyed by signature and x-exponent scale."""

    def __init__(self):
        from sympy import QQ
        from sympy.polys.rings import ring

        self.qq, self._ring, self._cache = QQ, ring, {}

    def get(self, m, n, scale):
        key = (m, n, scale)
        if key not in self._cache:
            names = [f"x{i}" for i in range(1, m + 1)] + [f"y{j}" for j in range(1, n + 1)]
            self._cache[key] = self._ring(",".join(names), self.qq)[0]
        return self._cache[key]

    def element(self, s, scale):
        """The series' terms as a ring element, x-exponents times ``scale``."""
        R = self.get(s.sig.m, s.sig.n, scale)
        qq = self.qq
        return R.from_dict({
            tuple(int(e * scale) for e in xs) + tuple(ys): qq(c.numerator, c.denominator)
            for (xs, ys), c in s.terms.items()
        })


def x_scale(*series):
    dens = [e.denominator for s in series for (xs, _), _c in s.terms.items() for e in xs]
    return math.lcm(1, *dens)


def order(s):
    return min((sum(xs, Fraction(0)) + sum(ys) for xs, ys in s.terms), default=None)


def mul_precision(a, b):
    oa, ob = order(a), order(b)
    cands = [p for p in (a.precision + ob if ob is not None else None,
                         b.precision + oa if oa is not None else None) if p is not None]
    return min(cands) if cands else min(a.precision, b.precision)


def low_terms(diff, m, scale, prec):
    """Terms of a ring element below total degree ``prec``."""
    bad = []
    for monom, coeff in diff.terms():
        deg = Fraction(sum(monom[:m]), scale) + sum(monom[m:])
        if deg < prec:
            bad.append((monom, coeff))
    return bad


def check_kernel(job, out, rings):
    kind = job.kind
    if kind == "weierstrass":
        f, g, d = job.args
        q, r = out.quotient, out.remainder
        scale = x_scale(f, g, q, r)
        F, G, Q, Rm = (rings.element(s, scale) for s in (f, g, q, r))
        prec = min(f.precision, r.precision, mul_precision(q, g))
        bad = low_terms(F - (Q * G + Rm), 1, scale, prec)
        problems = [f"kernel_identity: f - (Q*g + R) has {len(bad)} terms below degree {prec}"] if bad else []
        if any(ys[-1] >= d for _, ys in r.terms):
            problems.append(f"kernel_identity: remainder has y-degree >= {d}")
        return problems
    if kind == "implicit":
        g = job.args[0]
        a = out
        scale = x_scale(g, a)
        A = rings.element(a, scale)
        R = A.ring
        total, powers = R.zero, {0: R.one}
        for (xs, ys), c in g.terms.items():
            k = ys[-1]
            if k not in powers:
                powers[k] = A ** k
            xmon = R.from_dict({(int(xs[0] * scale),): rings.qq(1)})
            total += rings.qq(c.numerator, c.denominator) * xmon * powers[k]
        oa = order(a)
        prec = min(a.precision, g.precision * min(Fraction(1), oa if oa is not None else 1))
        bad = low_terms(total, 1, scale, prec)
        return [f"kernel_identity: g(x, a(x)) has {len(bad)} terms below degree {prec}"] if bad else []
    if kind == "root":
        u, k = job.args
        v = out
        scale = x_scale(u, v)
        diff = rings.element(v, scale) ** k - rings.element(u, scale)
        prec = min(u.precision, v.precision)
        bad = low_terms(diff, 1, scale, prec)
        return [f"kernel_identity: v^{k} - u has {len(bad)} terms below degree {prec}"] if bad else []
    if kind == "pullback":
        t, f, g = job.args
        problems = []
        checks = [
            ("f+g", f, g, "add", out["f+g"]),
            ("f*g", f, g, "mul", out["f*g"]),
            ("p(f+g)", out["pf"], out["pg"], "add", out["p(f+g)"]),
            ("p(f*g)", out["pf"], out["pg"], "mul", out["p(f*g)"]),
            ("pf+pg", out["pf"], out["pg"], "add", out["pf+pg"]),
            ("pf*pg", out["pf"], out["pg"], "mul", out["pf*pg"]),
        ]
        for name, a, b, op, actual in checks:
            scale = x_scale(a, b, actual)
            A, B = rings.element(a, scale), rings.element(b, scale)
            if op == "add":
                expected, prec = A + B, min(a.precision, b.precision)
            else:
                expected, prec = A * B, mul_precision(a, b)
            prec = min(prec, actual.precision)
            bad = low_terms(expected - rings.element(actual, scale), actual.sig.m, scale, prec)
            if bad:
                problems.append(f"kernel_identity: {name} ({t.describe()}): {len(bad)} terms differ below {prec}")
        return problems
    raise ValueError(kind)


# -- leaves and factors --------------------------------------------------------

_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_rendered(text):
    """Terms ``(coeff, {variable: exponent})`` of a series in the package's
    render format."""
    if text == "0":
        return []
    pieces = _TERM_SPLIT.split(text)
    signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
    bodies = [pieces[0].lstrip("-")] + pieces[2::2]
    terms = []
    for sign, body in zip(signs, bodies):
        coeff, exps = Fraction(1), {}
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff = Fraction(factor)
                continue
            var, _, exp = factor.partition("^")
            exps[var] = Fraction(exp.strip("()")) if exp else Fraction(1)
        terms.append((-coeff if sign == "-" else coeff, exps))
    return terms


def series_terms(s):
    out = []
    for (xs, ys), c in s.terms.items():
        exps = {f"x{i + 1}": e for i, e in enumerate(xs) if e}
        exps.update({f"y{j + 1}": Fraction(e) for j, e in enumerate(ys) if e})
        out.append((c, exps))
    return out


def iroot(n, k):
    """The integer k-th root of n >= 0 when it is exact, else None."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


def rational_power(base, e):
    """base ** e as an exact rational, or None when it is irrational."""
    if e == 0:
        return Fraction(1)
    if base == 0:
        return Fraction(0)
    if e.denominator == 1:
        return base ** e.numerator
    if base < 0:
        return None
    num, den = iroot(base.numerator, e.denominator), iroot(base.denominator, e.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den) ** e.numerator


def exact_value(terms, point, m):
    """Exact value of ``terms`` at a rational point, or None."""
    names = {f"x{i + 1}": v for i, v in enumerate(point[:m])}
    names.update({f"y{j + 1}": v for j, v in enumerate(point[m:])})
    total = Fraction(0)
    for coeff, exps in terms:
        value = coeff
        for var, e in exps.items():
            factor = rational_power(names[var], e)
            if factor is None:
                return None
            value *= factor
        total += value
    return total


def coefficient_growth(terms):
    """max (|c| / |c0|)^(1/deg) over the terms of a unit, at least 1."""
    c0 = next(abs(c) for c, exps in terms if not exps)
    rates = [float(abs(c) / c0) ** (1 / float(sum(exps.values()))) for c, exps in terms if exps]
    return max([1.0] + rates)


def exponent_scale(chain, terms):
    """L such that leaf x-coordinates that are L-th powers of rationals keep
    every power met along the chain and in ``terms`` rational."""
    scale = 1
    for exps in terms:
        scale = math.lcm(scale, *(e.denominator for e in exps.values()))
    for t in chain:
        if isinstance(t, gp.RamifyX):
            scale *= t.gamma.denominator
        elif isinstance(t, gp.Tschirnhausen):
            scale = math.lcm(scale, x_scale(t.h))
    return scale


def check_factor(f, chain, root_sig, leaf_sig, record, rng):
    """``f`` pulled back along ``chain`` equals monomial x unit to the claimed
    precision P: the discrepancy D(q) = f(forward_chain(chain, q)) -
    monomial(q) * unit(q) must vanish to order at least P.  D is computed
    exactly at rational leaf points q, and its order is read from D(q) and
    D(t q) for a small t."""
    mono = {f"x{i + 1}": Fraction(v) for i, v in enumerate(record["monomial"]["x"])}
    mono.update({f"y{j + 1}": Fraction(v) for j, v in enumerate(record["monomial"]["y"])})
    unit = parse_rendered(record["unit"])
    mono_degree = sum(mono.values())
    claimed = Fraction(record["precision"]) + mono_degree
    up_terms = series_terms(f)
    down_terms = [(c, {v: exps.get(v, 0) + mono.get(v, 0) for v in exps.keys() | mono.keys()})
                  for c, exps in unit]
    scale = exponent_scale(chain, [e for _, e in up_terms + down_terms])
    radius = min(POINT_RADIUS, RADIUS_MARGIN / (GROWTH_SAFETY * coefficient_growth(unit)))
    shrink = Fraction(1, SCALE)

    def discrepancy(xs, ys):
        q = [b**scale for b in xs] + ys
        try:
            p = gp.forward_chain(chain, q, root_sig)
        except OverflowError:  # the point map's exact roots work up to float range
            return None
        if not all(isinstance(v, (int, Fraction)) for v in p):
            return None
        up = exact_value(up_terms, p, root_sig.m)
        down = exact_value(down_terms, q, leaf_sig.m)
        return None if up is None or down is None else up - down

    # keep the denominators of the L-th powers well inside float range
    digits = min(6, MAX_DIGITS // scale)
    if digits < 1:
        return [f"{UNCHECKED}: exponent denominators too large for exact points"] * LEAF_POINTS
    problems = []
    for _ in range(LEAF_POINTS):
        xs = [Fraction(round(rng.uniform(0.5, 1) * radius ** (1 / scale) * 10**digits), 10**digits)
              for _ in range(leaf_sig.m)]
        ys = [Fraction(round(rng.uniform(-1, 1) * radius * 10**6), 10**6)
              for _ in range(leaf_sig.n)]
        d1 = discrepancy(xs, ys)
        d2 = discrepancy([b * shrink for b in xs], [y * shrink**scale for y in ys])
        if d1 is None or d2 is None:
            problems.append(f"{UNCHECKED}: a point map or power left the rationals")
            continue
        if d1 == 0 or d2 == 0:
            continue
        ratio = abs(d1 / d2)
        order = (math.log(ratio.numerator) - math.log(ratio.denominator)) / (scale * math.log(SCALE))
        if order >= claimed - Fraction(1, 2 * scale):
            continue
        # a discrepancy at the monomial's own order means the normal form is
        # wrong; above it, only the certified precision is
        kind = "leaf_value" if order < mono_degree + Fraction(1, 2) else "leaf_precision"
        problems.append(f"{kind}: discrepancy {float(d1):.3e} of order {order:.2f}, "
                        f"claimed {claimed}")
    return problems


def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def check_monomialize(job, out, rng):
    report = out[0]
    f = job.args[0]
    problems = []
    for chain, leaf in report.tree.branches():
        if leaf.payload.get("kind") != "normal":
            continue
        leaf_sig = report.tree.leaf_sig(chain)
        problems += check_factor(f, chain, f.sig, leaf_sig, leaf.payload, rng)
    return problems


def check_chain(job, out, rng):
    inputs = job.args[0]
    problems = []
    branches = list(out.report.tree.branches())
    if len(branches) != len(out.leaves):
        return [f"leaf_count: {len(out.leaves)} leaf records for {len(branches)} branches"]
    for (chain, _leaf), record in zip(branches, out.leaves):
        leaf_sig = gp.Signature(*record["sig"])
        monomials = []
        for s, factor in zip(inputs, record["factors"]):
            if factor["kind"] != "normal":
                continue
            problems += check_factor(s, chain, s.sig, leaf_sig, factor, rng)
            monomials.append(
                [Fraction(v) for v in factor["monomial"]["x"]] + list(factor["monomial"]["y"])
            )
        for i, a in enumerate(monomials):
            for b in monomials[i + 1:]:
                if not (_leq(a, b) or _leq(b, a)):
                    problems.append("unordered: leaf monomials not ordered by division")
    return problems


def check_sets(jobs, results):
    """Covering and membership verdicts summed over each set's batches."""
    covered, total, member_in_off = {}, {}, {}
    for job in jobs:
        res = results[job.id]
        if res.outcome != "certified" or job.kind not in ("cover", "membership"):
            continue
        name, side = job.args[0], job.args[1]
        if job.kind == "cover":
            key = (name, side)
            covered[key] = covered.get(key, 0) + round(res.output * len(job.args[2]))
            total[key] = total.get(key, 0) + len(job.args[2])
        elif side == "off":
            member_in_off[name] = member_in_off.get(name, 0) + res.output.count("IN")
    problems = []
    for (name, side), n in total.items():
        c = covered[(name, side)]
        if side == "on" and c < MIN_COVERED * n:
            problems.append(f"{name}: covers {c} of {n} on-set points")
        if side == "off" and c:
            problems.append(f"{name}: claims {c} of {n} off-set points")
    for name, n_in in member_in_off.items():
        if n_in:
            problems.append(f"{name}: membership says IN for {n_in} off-set points")
    return problems


KERNEL_KINDS = ("weierstrass", "implicit", "root", "pullback")


def check_all(jobs, results):
    """Check the certified outputs of one pass.

    Returns ``(findings, unchecked, problems)``: ``findings`` maps a job id
    to messages ``"<kind>: <detail>"`` about that job's output, ``unchecked``
    counts the leaf points whose chart maps left the rationals (they cannot
    be checked exactly), ``problems`` lists the failures of workload-wide
    checks.  The leaf points of a job are drawn from its id, so nothing here
    depends on the run seed."""
    rings = Rings() if any(j.kind in KERNEL_KINDS for j in jobs) else None
    findings, unchecked = {}, 0
    for job in jobs:
        res = results[job.id]
        if res.outcome != "certified":
            continue
        if job.kind in KERNEL_KINDS:
            found = check_kernel(job, res.output, rings)
        elif job.kind == "monomialize":
            found = check_monomialize(job, res.output, Random(job.id))
        elif job.kind in ("family", "sweep"):
            found = check_chain(job, res.output, Random(job.id))
        else:
            continue
        unchecked += sum(msg.startswith(UNCHECKED) for msg in found)
        found = [msg for msg in found if not msg.startswith(UNCHECKED)]
        if found:
            findings[job.id] = found
    return findings, unchecked, check_sets(jobs, results)
