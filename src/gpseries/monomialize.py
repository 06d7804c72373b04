"""Monomialisation engine.

Given a series over (m, n), builds a tree of elementary transformations such
that on every branch the pullback becomes *normal*: a monomial in (x, y)
times a unit.  The engine keeps an explicit stack of steps, one per node on
the current path, and finishes each child's subtree before its parent's step
resumes.  A step re-derives its state from the node's pulled-back series and
is one of:

  * factor the largest common monomial; stop if the cofactor is a unit;
  * if the cofactor vanishes on {x = 0} (or there are no y-variables),
    principalize one incomparable pair of minimal support elements with a
    blow-up chart family;
  * otherwise make the cofactor regular in the last y-variable (linear
    shear if needed) of some order d, then:
      - d = 1: implicit solve + translation, which exposes a factor y_n;
      - d >= 2: translation killing the Y^{d-1} coefficient, joint
        monomialisation of the lower coefficients in one fewer y-variable,
        then a weighted blow-up family that either monomialises, shrinks
        the critical monomial, or drops the order of regularity.

Every blow-up is one chart family ``src <- tgt * (lam + v)`` over a pair of
axes (i, j), one child per chart parameter lam; the axes pick the chart and
the palette:

  * x_i <- x_j: ``BlowUpXX`` charts, lam in ``palette.nonneg`` with the
    positive critical ratios; x_i is first ramified so that its exponents
    are integers;
  * y_i <- x_j: ``BlowUpYX`` charts, lam in ``palette.signed`` with the
    nonzero critical ratios;
  * y_i <- y_j: ``BlowUpYY`` charts, lam as for y-x but without -inf, which
    is the same chart as +inf.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .series import (
    Exponent,
    Rational,
    Series,
    SeriesError,
    Signature,
    _leq,
    _over_lcm,
    coefficients_in_y,
    common_monomial,
    divide_monomial,
    insert_y,
    min_support,
    monomial as monomial_series,
    render,
    set_to_zero,
    total_degree,
)
from .transforms import (
    NEG_INF,
    BlowUpXX,
    BlowUpYX,
    BlowUpYY,
    ElementaryTransform,
    Linear,
    NeedsRamification,
    RamifyX,
    Tschirnhausen,
    _pull_step,
    chain_to_json,
)
from .trees import AdmissibleTree, DEFAULT_PALETTE, LambdaPalette, TreeNode, tree_to_json
from .division import DivisionError, solve_implicit, tschirnhausen_center


class EngineError(SeriesError):
    pass


class PrecisionExhausted(EngineError):
    """The truncation order is too small to certify the next step."""


class CapExceeded(EngineError):
    """Tree depth or principalization budget exhausted."""


@dataclass(frozen=True)
class EngineOptions:
    palette: LambdaPalette = DEFAULT_PALETTE
    max_depth: int = 64
    princ_cap: int = 200
    max_steps: int = 20000


@dataclass(frozen=True)
class NormalForm:
    monomial: Exponent
    unit: Series

    def to_json(self) -> dict:
        return {
            "kind": "normal",
            "monomial": _monomial_json(self.monomial),
            "unit": render(self.unit),
            "precision": str(self.unit.precision),
        }


@dataclass(frozen=True)
class LeafRecord:
    """The engine's result where it stops at a leaf with series f: the
    leaf's signature, f's precision p, and f's ``NormalForm`` X^beta * unit
    (None at a zero leaf).  ``precision`` is p, read by
    ``LeafResult.precision``; the unit's precision is p - deg beta, the
    payload's ``"precision"`` at a normal leaf."""

    sig: Signature
    precision: Rational
    form: Optional[NormalForm]

    @property
    def kind(self) -> str:
        return "zero" if self.form is None else "normal"

    def to_json(self) -> dict:
        """The leaf's payload."""
        if self.form is None:
            return {"kind": "zero", "precision": str(self.precision)}
        return self.form.to_json()


def normal_form(f: Series) -> Optional[NormalForm]:
    """(monomial, unit) when f is monomial times unit, else None.

    With X^b the common monomial of f's terms, the cofactor f / X^b is a unit
    exactly when f carries the term X^b, which is looked up in ``f.terms``:
    only a normal f is divided."""
    exp = common_monomial(f)
    if exp in f.terms:
        return NormalForm(exp, divide_monomial(f, exp))
    return None


def _monomial_json(exp: Exponent) -> dict:
    return {"x": [str(v) for v in exp[0]], "y": list(exp[1])}


# -- small algebra helpers ----------------------------------------------------


def _coord_get(exp: Exponent, coord) -> int | Fraction:
    axis, idx = coord
    return exp[0][idx - 1] if axis == "x" else exp[1][idx - 1]


def _coords(sig: Signature):
    return [("x", i) for i in range(1, sig.m + 1)] + [("y", j) for j in range(1, sig.n + 1)]


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Nonzero rational roots of ``sum(coeffs[k] * t^k)``, sorted, exact.

    ``f`` is the square-free part of the primitive integer polynomial, of
    degree ``d``.  Every rational root of ``f`` is ``s / a_d`` for an integer
    root ``s`` of the monic polynomial ``a_d^(d-1) * f(s / a_d)``, which
    ``_integer_roots`` isolates.  Only integer arithmetic is used: no integer
    is factored, no float is formed and there is no limit on the size of the
    coefficients.  0 is never reported and each root appears once, whatever
    its multiplicity."""
    coeffs = [Fraction(c) for c in coeffs]
    nonzero = [k for k, c in enumerate(coeffs) if c]
    if len(nonzero) < 2:
        return []
    coeffs = coeffs[nonzero[0] : nonzero[-1] + 1]
    f = _squarefree_part(_primitive(_over_lcm(coeffs)[1]))
    d, ad = len(f) - 1, f[-1]
    g = [c * ad ** (d - 1 - k) for k, c in enumerate(f[:-1])] + [1]
    return sorted(Fraction(s, ad) for s in _integer_roots(g))


def _primitive(a: list[int]) -> list[int]:
    """``a`` divided by the gcd of its coefficients."""
    content = math.gcd(*a)
    return [c // content for c in a] if content else a


def _squarefree_part(f: list[int]) -> list[int]:
    """``f / gcd(f, f')`` for a primitive ``f``; the gcd comes from the
    primitive pseudo-remainder sequence, so every coefficient stays an
    integer."""
    a, b = f, _primitive([k * c for k, c in enumerate(f)][1:])
    while len(b) > 1:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    if b:  # a nonzero constant remainder: f and f' are coprime
        return f
    return _exact_quotient(f, a)


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Remainder of ``lc(b)^k * a`` on division by ``b``, without leading
    zeros (``[]`` when it vanishes)."""
    a = list(a)
    while len(a) >= len(b):
        lead, shift = a.pop(), len(a) + 1 - len(b)
        a = [c * b[-1] for c in a]
        for k, c in enumerate(b[:-1]):
            a[k + shift] -= lead * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _exact_quotient(f: list[int], h: list[int]) -> list[int]:
    """``f / h`` for a primitive ``h`` that divides ``f``; by Gauss's lemma
    the quotient has integer coefficients."""
    r, q = list(f), []
    for i in range(len(f) - len(h), -1, -1):
        c = r[i + len(h) - 1] // h[-1]
        q.append(c)
        for k, hk in enumerate(h):
            r[i + k] -= c * hk
    return q[::-1]


def _integer_roots(g: list[int]) -> list[int]:
    """Integer roots of the monic integer polynomial ``g`` (lowest degree
    first, ``g[0] != 0``), each once.

    Real-root isolation by Descartes' rule of signs with bisection (Collins &
    Akritas): on each side of 0, the interval ``(0, 2^e)`` beyond the
    Fujiwara root bound is halved while the rule allows a root in it.  A node
    is ``(c, w, p)`` with ``p(x) = g(±(c + w*x))``, so halving is a rescaling
    and a Taylor shift by 1, and the value at every integer midpoint is the
    constant term of the right half.  Intervals of width 1 hold no further
    integer and are dropped."""
    d = len(g) - 1
    # 2^e > 2 * |g_k|^(1/(d-k)) for every k: beyond the Fujiwara bound
    e = 1 + max(-(-abs(c).bit_length() // (d - k)) for k, c in enumerate(g[:-1]))
    roots = []
    for sign in (1, -1):
        stack = [(0, 1 << e, [c * sign**k << (e * k) for k, c in enumerate(g)])]
        while stack:
            c, w, p = stack.pop()
            if w == 1 or not _sign_changes(_shift_by_one(p[::-1])):
                continue
            w //= 2
            # p_k is a Taylor coefficient of g times w^k, so 2^k divides it
            left = [a >> k for k, a in enumerate(p)]
            right = _shift_by_one(left)
            if right[0] == 0:
                roots.append(sign * (c + w))
            stack += [(c, w, left), (c + w, w, right)]
    return roots


def _shift_by_one(p: list[int]) -> list[int]:
    """Coefficients of ``p(x + 1)``."""
    p = list(p)
    for i in range(len(p) - 1):
        for k in range(len(p) - 2, i - 1, -1):
            p[k] += p[k + 1]
    return p


def _sign_changes(p: list[int]) -> bool:
    """Whether the nonzero coefficients of ``p`` change sign, i.e. whether
    Descartes' rule allows ``p`` a positive root."""
    signs = {a > 0 for a in p if a}
    return len(signs) == 2


def critical_lambdas(g: Series, src, tgt) -> list[Fraction]:
    """Chart parameters at which the family chart `src <- tgt*(lam + v)`
    degenerates: the nonzero rational roots of the edge polynomial built from
    the terms supported only on the (src, tgt) axes at minimal combined
    degree, sorted.  They are found exactly by ``rational_roots``, in integer
    arithmetic with no limit on coefficient size; 0 is never reported."""
    mu, poly = None, {}
    for exp, c in g.terms.items():
        p = _coord_get(exp, src)
        s = p + _coord_get(exp, tgt)
        if mu is None or s < mu:
            mu, poly = s, {}
        # an edge term lies on the two axes only, so s is its whole degree;
        # its src exponent fixes its tgt exponent, so it has a key of its own
        if s == mu and s == total_degree(exp) and p.denominator == 1:
            poly[int(p)] = c
    if not poly:
        return []
    deg = max(poly)
    return rational_roots([poly.get(k, Fraction(0)) for k in range(deg + 1)])


def _first_incomparable_pair(
    exps: Sequence[Exponent],
) -> Optional[tuple[Exponent, Exponent]]:
    """The first pair of exponents in ``exps`` that neither divides."""
    for k, a in enumerate(exps):
        for b in exps[k + 1 :]:
            if not _leq(a, b) and not _leq(b, a):
                return a, b
    return None


def _x_denominator_lcm(f: Series, i: int) -> int:
    """Least x_i-ramification that makes every x_i-exponent of f an integer."""
    return math.lcm(*(e[0][i - 1].denominator for e in f.terms))


def _child(node: TreeNode, f: Series, t: ElementaryTransform, depth: int):
    """The engine task for a new child of ``node`` (at ``depth``) along ``t``."""
    return node.add_child(t), t.pullback(f), depth + 1


def _ramify_x(node: TreeNode, i: int, gamma: int | Fraction, *series: Series):
    """``(node, *series)`` with x_i <- x_i^gamma added below ``node`` and each
    series pulled back through it; unchanged when gamma is 1."""
    if gamma == 1:
        return (node, *series)
    t = RamifyX(i, gamma)
    return (node.add_child(t), *(t.pullback(s) for s in series))


def _candidate_ints(bound: int):
    yield 0
    for v in range(1, bound + 1):
        yield v
        yield -v


def _find_shear(part: dict, n: int, d0: int) -> Optional[tuple]:
    """The first c in ``_candidate_ints(d0 + 1)``^(n-1) with H(c, 1) != 0, as
    ``Fraction``s, for the degree-d0 part H = ``part`` ({y-exponent: coeff}).

    H(c, 1) is the exact sum of ``coeff * prod_k c_k ** e_k`` over the terms,
    in integer powers; ``0 ** 0 == 1``, so a zero c_k drops exactly the terms
    that involve y_k."""
    for c in itertools.product(_candidate_ints(d0 + 1), repeat=n - 1):
        if sum(coeff * math.prod(map(pow, c, ys)) for ys, coeff in part.items()):
            return tuple(map(Fraction, c))
    return None


# -- the engine ---------------------------------------------------------------


class _Engine:
    def __init__(self, options: EngineOptions):
        self.opt = options
        self.audit: list[dict] = []
        self.princ_used = 0
        self.steps_used = 0

    def log(self, depth: int, action: str, **kw):
        self.audit.append({"depth": depth, "action": action, **kw})

    def run(self, f: Series) -> AdmissibleTree:
        tree = AdmissibleTree(f.sig)
        self.process(tree.root, f, 0)
        return tree

    def process(self, node: TreeNode, f: Series, depth: int) -> None:
        """Grow the subtree at ``node`` until every branch is normal.

        Each step is a generator that yields ``(child, pulled series,
        depth)`` for every child it wants processed; the child's subtree is
        finished before the step resumes, so the tree, the audit and the step
        counts come out in depth-first order, with no Python recursion.
        ``node`` loses any leaf result it held: only the engine sets one."""
        node.payload, node.record = {}, None
        stack = [self._step(node, f, depth)]
        while stack:
            try:
                task = next(stack[-1])
            except StopIteration:
                stack.pop()
            else:
                stack.append(self._step(*task))

    def _step(self, node: TreeNode, f: Series, depth: int):
        if depth > self.opt.max_depth:
            raise CapExceeded(f"tree depth exceeded {self.opt.max_depth}")
        self.steps_used += 1
        if self.steps_used > self.opt.max_steps:
            raise CapExceeded(f"step budget exceeded {self.opt.max_steps}")
        if f.precision <= 0:
            raise PrecisionExhausted("no positive truncation order left")
        if f.is_zero():
            _stop(node, f, None)
            return
        beta = common_monomial(f)
        if beta in f.terms:  # the cofactor is a unit, as in ``normal_form``
            _stop(node, f, NormalForm(beta, divide_monomial(f, beta)))
            self.log(depth, "leaf", monomial=node.payload["monomial"])
            return
        n = f.sig.n
        if n and beta[1][-1]:
            # keep any y_n-monomial factor inside the cofactor: recentering in
            # y_n must account for it, otherwise the translate and the next
            # center extraction undo each other
            beta = (beta[0], beta[1][:-1] + (0,))
        g = divide_monomial(f, beta)
        # the restriction of g to x = 0, as {y-exponent: coeff}
        g0 = {e[1]: c for e, c in g.terms.items() if not any(e[0])}
        if n == 0 or not g0:
            yield from self._principalize(node, f, g, depth)
            return
        d0 = min(map(sum, g0))
        if g.precision <= d0:
            raise PrecisionExhausted(
                f"truncation order {g.precision} cannot certify regularity of order {d0}"
            )
        shear = _find_shear({ys: c for ys, c in g0.items() if sum(ys) == d0}, n, d0)
        if shear is None:
            raise EngineError("no integer shear renders the series regular")
        if any(v != 0 for v in shear):
            self.log(depth, "shear", c=[str(v) for v in shear])
            yield _child(node, f, Linear(n, shear), depth)
            return
        # H(0, ..., 0, 1) != 0: g carries y_n^d0 and no x-free term of lower
        # degree, so g is regular of order d0 in y_n
        if d0 == 1:
            yield from self._order_one(node, f, g, depth)
            return
        yield from self._order_d(node, f, g, beta, d0, depth)

    # -- principalization of the x-monomial part ----------------------------

    def _principalize(self, node: TreeNode, f: Series, g: Series, depth: int):
        pair = _first_incomparable_pair(
            sorted(min_support(g), key=lambda e: (total_degree(e), e[0], e[1]))
        )
        if pair is None:
            raise EngineError("non-unit cofactor with totally ordered support")
        self.princ_used += 1
        if self.princ_used > self.opt.princ_cap:
            raise CapExceeded(f"principalization budget {self.opt.princ_cap} exhausted")
        a, b = pair
        coords = _coords(f.sig)
        gt = [c for c in coords if _coord_get(a, c) > _coord_get(b, c)]
        lt = [c for c in coords if _coord_get(a, c) < _coord_get(b, c)]
        gx = [c for c in gt if c[0] == "x"]
        lx = [c for c in lt if c[0] == "x"]
        gy = [c for c in gt if c[0] == "y"]
        ly = [c for c in lt if c[0] == "y"]
        if gx and lx:
            i, j = max(gx[0][1], lx[0][1]), min(gx[0][1], lx[0][1])
            src, tgt = ("x", i), ("x", j)
        elif gy and ly:
            src, tgt = gy[0], ly[0]
        else:
            # mixed: one side differs in y, the other in x
            src, tgt = (gy[0], lx[0]) if gy and lx else (ly[0], gx[0])
        base = node
        if src[0] == "x":
            base, f, g = _ramify_x(node, src[1], _x_denominator_lcm(f, src[1]), f, g)
        yield from self._chart_family(
            base, f, g, src, tgt, depth, int(base is not node),
            f"principalize_{src[0]}{tgt[0]}", i=src[1], j=tgt[1],
        )

    def _chart_family(self, node, f, g, src, tgt, depth, lift, action, **log):
        """One child of ``node`` per chart of the blow-up family
        ``src <- tgt * (lam + v)``, chart and palette chosen by the axes (see
        the module docstring).  The audit entry is written at the step's
        ``depth``; the children go to ``depth + 1 + lift``, where ``lift``
        counts the ramification edges between the step's node and ``node``."""
        (src_axis, i), (tgt_axis, j) = src, tgt
        crit = critical_lambdas(g, src, tgt)
        if src_axis == "x":
            extras = [r for r in crit if r > 0]
            lams = self.opt.palette.nonneg(extras)
        else:
            extras = [r for r in crit if r != 0]
            lams = self.opt.palette.signed(extras)
            if tgt_axis == "y":
                lams.remove(NEG_INF)
        self.log(depth, action, **log, extras=[str(r) for r in extras])
        chart = BlowUpXX if src_axis == "x" else BlowUpYX if tgt_axis == "x" else BlowUpYY
        for lam in lams:
            yield _child(node, f, chart(i, j, lam), depth + lift)

    # -- regular order 1 ------------------------------------------------------

    def _order_one(self, node, f, g, depth):
        try:
            a = solve_implicit(g)
        except DivisionError as exc:
            raise PrecisionExhausted(f"implicit solve failed: {exc}") from exc
        if a.is_zero():
            # already divisible by y_n; should have been factored out
            raise EngineError("vanishing implicit solution past monomial extraction")
        self.log(depth, "translate_order1", h=render(a))
        yield _child(node, f, Tschirnhausen(a), depth)

    # -- regular order d >= 2 -------------------------------------------------

    def _order_d(self, node, f, g, beta, d, depth):
        n = f.sig.n
        try:
            b = tschirnhausen_center(g, d)
        except DivisionError as exc:
            raise PrecisionExhausted(f"center extraction failed: {exc}") from exc
        if not b.is_zero():
            self.log(depth, "translate_center", d=d, h=render(b))
            yield _child(node, f, Tschirnhausen(b), depth)
            return
        # Y^{d-1} coefficient vanishes; inspect the lower coefficients
        # every coefficient is kept: g.precision > d was checked in _step
        by_power = coefficients_in_y(g, n)
        coeffs = {i: by_power[d - i] for i in range(2, d + 1) if d - i in by_power}
        if not coeffs:
            raise EngineError("pure power of y_n past monomial extraction")
        forms = {i: normal_form(c) for i, c in coeffs.items()}
        minimal = []
        if None not in forms.values():
            mus = {
                i: tuple(tuple(Fraction(v, i) for v in part) for part in nf.monomial)
                for i, nf in forms.items()
            }
            minimal = [
                i for i, mu in mus.items() if all(_leq(mu, other) for other in mus.values())
            ]
        if not minimal:
            yield from self._joint_coefficient_step(node, f, beta, d, coeffs, forms, depth)
            return
        l = max(minimal)
        mono_l = forms[l].monomial
        target = next((c for c in _coords(f.sig) if _coord_get(mono_l, c) != 0), None)
        if target is None:
            raise EngineError("unit coefficient contradicts the regular order")
        axis, v = target
        log = {"d": d, "l": l, "v": v}
        base = node
        if axis == "x":
            gamma = mus[l][0][v - 1]
            log["gamma"] = str(gamma)
            base, f, g = _ramify_x(node, v, 1 / gamma, f, g)
        yield from self._chart_family(
            base, f, g, ("y", n), target, depth, int(base is not node),
            f"weighted_blowup_{axis}", **log,
        )

    def _joint_coefficient_step(self, node, f, beta, d, coeffs, forms, depth):
        """Monomialise the lower Y_n-coefficients jointly (identity on y_n),
        raised to powers that align their critical ratios, then resume.

        ``coeffs`` maps each power i to the Y_n^(d-i) coefficient, in
        increasing i, and ``forms`` to its ``normal_form`` or None.  No
        coefficient involves y_n, so a normal form read over (m, n - 1) is
        the one given with the y_n entry of its monomial, 0, dropped."""
        m, n = f.sig
        lcm_i = math.lcm(*coeffs.keys())
        sub_sig = Signature(m, n - 1)
        family = []
        if None not in forms.values():
            # every coefficient is already a monomial times a unit; align the
            # critical ratios by separating the lcm-powered monomials (single
            # terms, so the joint system stays tiny whatever the lcm is)
            for i, nf in forms.items():
                k = lcm_i // i
                xs = [v * k for v in nf.monomial[0]]
                ys = [v * k for v in nf.monomial[1][:-1]]
                # powered degrees overshoot the working precision; keep each
                # plan monomial alive by granting it a window past its degree
                prec = sum(xs) + sum(ys) + f.precision
                family.append(monomial_series(sub_sig, xs, ys, prec))
        else:
            # separate the coefficients themselves first; the embedded leaves
            # re-derive the state and come back here for the alignment pass
            family.extend(set_to_zero(c, zero_y=(n,)) for c in coeffs.values())
        beta_sub = (beta[0], beta[1][:-1])
        if any(beta_sub[0]) or any(beta_sub[1]):
            family.append(monomial_series(sub_sig, *beta_sub, f.precision))
        parts = [s for s in family if not s.is_zero()]
        if not parts:
            raise EngineError("empty joint family")
        prod = _product(parts + _pairwise_differences(parts))
        prod = prod.truncate((prod.order() or 0) + f.precision)
        self.log(depth, "joint_coefficients", d=d, count=len(family))
        sub_root = TreeNode()
        yield sub_root, prod, depth + 1
        if sub_root.is_leaf():
            # nothing to embed: resuming at this node would rerun this very
            # step, deterministically, until the step budget runs out
            raise CapExceeded(f"joint coefficient step at depth {depth} adds no chart")
        yield from self._embed_subtree(node, f, sub_root, sub_sig, depth)

    def _embed_subtree(self, node, f, sub_root, sub_sig, depth):
        """Copy the finished subtree below ``node``, every transform lifted
        to act as the identity on y_n, and yield each copied leaf with f
        pulled back to it; the copy grows in the subtree's branch order."""
        stack = [(node, f, c, sub_sig, depth) for c in reversed(sub_root.children)]
        while stack:
            parent, fp, sub_node, sig, d = stack.pop()
            t = _embed_transform(sub_node.transform, sig)
            try:
                fc = t.pullback(fp)
            except NeedsRamification:
                # the subtree was planned on the y_n-free coefficient product,
                # whose exponent denominators may be coarser than f's; clear
                # f's denominators for the chart variable and retry
                parent, fp = _ramify_x(parent, t.i, _x_denominator_lcm(fp, t.i), fp)
                fc = t.pullback(fp)
                d += 1
            child = parent.add_child(t)
            d += 1
            if sub_node.is_leaf():
                yield child, fc, d
            sig = sub_node.transform.result_sig(sig)
            stack.extend((child, fc, c, sig, d) for c in reversed(sub_node.children))


def _stop(node: TreeNode, f: Series, form: Optional[NormalForm]) -> None:
    """Make ``node`` a leaf of series ``f`` with normal form ``form``: its
    record and, built from that, its payload."""
    node.record = LeafRecord(f.sig, f.precision, form)
    node.payload = node.record.to_json()


def _embed_transform(t: ElementaryTransform, sub_sig: Signature) -> ElementaryTransform:
    """Lift a transform over (m, n-1) to (m, n) acting as the identity on the
    last y-variable.  Indices agree because that variable stays last; only
    translations need their target index pinned and their center re-embedded."""
    if isinstance(t, Tschirnhausen):
        j = t._index(sub_sig)
        return Tschirnhausen(insert_y(t.h, t.h.sig.n + 1), j)
    return t


def _pairwise_differences(parts: Sequence[Series]) -> list[Series]:
    """The nonzero differences ``parts[a] - parts[b]`` for a < b, in order.
    Monomialising the product of the parts and these differences monomialises
    every part and orders their monomials by division."""
    diffs = (a - b for k, a in enumerate(parts) for b in parts[k + 1 :])
    return [diff for diff in diffs if not diff.is_zero()]


def _product(factors: Sequence[Series]) -> Series:
    prod = factors[0]
    for s in factors[1:]:
        prod = prod * s
    return prod


# -- public entry points ------------------------------------------------------


def _chains_json(chains: Sequence[list]) -> list[list]:
    """``chain_to_json`` of each chain of one tree.  The chains hold each
    edge's transform object, so each edge is serialised once, and its dict is
    shared by every chain through it."""
    edges = {id(t): t for chain in chains for t in chain}  # the objects hold their ids
    edges = {key: t.to_json() for key, t in edges.items()}
    return [[edges[id(t)] for t in chain] for chain in chains]


@dataclass
class LeafResult:
    chain: list
    sig: Signature
    kind: str
    monomial: Optional[Exponent]
    unit: Optional[Series]
    precision: Rational


@dataclass
class MonomialisationReport:
    input: Series
    tree: AdmissibleTree
    audit: list

    def leaf_results(self) -> list[LeafResult]:
        """One result per leaf, in branch order, read from the ``LeafRecord``
        the engine left there: no chain is pulled back and no unit divided
        out again.  On a ``division_chain`` report the leaf series is the
        product of the inputs and their pairwise differences, or below a
        refined leaf the product re-multiplied from its pulled factors."""
        out = []
        for chain, leaf in self.tree.branches():
            rec = leaf.record
            monomial, unit = (rec.form.monomial, rec.form.unit) if rec.form else (None, None)
            out.append(LeafResult(chain, rec.sig, rec.kind, monomial, unit, rec.precision))
        return out

    def to_json(self) -> dict:
        """The report as JSON.  The leaf records share one transform dict per
        tree edge (``_chains_json``): a dict changed in one record's chain
        changes in every record below that edge."""
        branches = list(self.tree.branches())
        chains = _chains_json([chain for chain, _ in branches])
        leaves = [
            {"chain": chain, "sig": list(leaf.record.sig), **leaf.payload}
            for chain, (_, leaf) in zip(chains, branches)
        ]
        return {
            "input": render(self.input),
            "sig": list(self.input.sig),
            "precision": str(self.input.precision),
            "tree": tree_to_json(self.tree),
            "leaves": leaves,
            "audit": self.audit,
            "stats": {
                "leaf_count": len(leaves),
                "height": self.tree.height(),
            },
        }


def monomialize(f: Series, options: EngineOptions = EngineOptions()) -> MonomialisationReport:
    """Monomialisation tree for a single series."""
    engine = _Engine(options)
    return MonomialisationReport(f, engine.run(f), engine.audit)


@dataclass
class DivisionChainResult:
    """``leaves`` holds one JSON record per leaf, in branch order:
    ``{"chain", "sig", "factors": [...]}`` with one factor per input.

    ``branches`` holds, per leaf in the same order, ``(chain, leaf
    signature, forms)``: ``forms`` has the input factors as ``NormalForm``
    objects, one per input, ``None`` where the input pulls back to zero.  It
    is what the factor records were rendered from, for callers that need the
    chains and units themselves; it is not serialised."""

    inputs: list
    report: MonomialisationReport
    leaves: list
    branches: list


def division_chain(
    inputs: Sequence[Series], options: EngineOptions = EngineOptions()
) -> DivisionChainResult:
    """Monomialise several series at once so that, on every branch, each
    input becomes normal and their monomials are totally ordered by division.
    Only the engine writes a node's ``payload`` and ``record``, and it
    clears both on every leaf it refines; the walk that pulls the inputs
    back and refines unresolved leaves writes no node field."""
    if not inputs:
        raise EngineError("no inputs")
    if any(s.sig != inputs[0].sig for s in inputs):
        raise EngineError("inputs must share a signature")
    live = [s for s in inputs if not s.is_zero()]
    if not live:
        raise EngineError("all inputs vanish to the given precision")
    targets = live + _pairwise_differences(live)
    prod = _product(targets)
    engine = _Engine(options)
    tree = engine.run(prod)
    # The product being normal modulo the truncation does not force each
    # factor to be normal there.  One walk pulls each target through each edge
    # once, records a leaf where all are resolved, else refines it and walks
    # on into its new children.  The engine is deterministic, so a refinement
    # that adds no children would add none on any rerun: the leaf is stuck.
    branches = []  # (chain, leaf signature, normal form per input) per final leaf
    stack = [(tree.root, [], targets)]
    while stack:
        node, chain, pulled = stack.pop()
        t = node.transform
        if t is not None:
            chain = chain + [t]
            pulled = [_pull_step(t, len(chain), p) for p in pulled]
        if node.is_leaf():
            forms = [normal_form(p) for p in pulled]
            if all(nf is not None or p.is_zero() for p, nf in zip(pulled, forms)):
                live_forms = iter(forms)
                forms = [None if s.is_zero() else next(live_forms) for s in inputs]
                branches.append((chain, pulled[0].sig, forms))
                continue
            # re-multiplying the pulled factors recovers the precision that a
            # single pullback of the pre-multiplied product loses
            engine.process(node, _product([p for p in pulled if not p.is_zero()]), len(chain))
            if node.is_leaf():
                raise CapExceeded(
                    f"refinement adds no chart to the branch {chain_to_json(chain)}"
                )
        stack.extend((c, chain, pulled) for c in reversed(node.children))
    # The ordering check runs only once refinement has ended, as the leaf
    # records are built: an unordered leaf must not pre-empt a CapExceeded
    # that a later refinement would raise.
    leaves = []
    chains = _chains_json([chain for chain, _, _ in branches])
    for chain, (_, leaf_sig, forms) in zip(chains, branches):
        if _first_incomparable_pair([nf.monomial for nf in forms if nf is not None]):
            raise EngineError("leaf monomials are not ordered by division")
        factors = [{"kind": "zero"} if nf is None else nf.to_json() for nf in forms]
        leaves.append({"chain": chain, "sig": list(leaf_sig), "factors": factors})
    report = MonomialisationReport(prod, tree, engine.audit)
    return DivisionChainResult(list(inputs), report, leaves, branches)
