"""In-memory span tracer installed around the package's public functions.

The tracer replaces functions and methods of ``gpseries`` with timing
wrappers, in every module that binds them (``pullback_chain``, for instance,
is imported by name into ``monomialize`` and ``geometry``), and restores the
originals on ``uninstall``.  Nothing under ``src/`` changes.

There is one span stack for the whole process, not one per thread: the
engine runs on a worker thread that its caller joins (``_run_deep``), so the
caller's span is open while the worker's spans nest under it, and the two
threads never run wrapped code at the same time.

A span's self time is its duration minus the time covered by its child
spans.  Spans are kept in memory and written out by ``write_spans``.  The
series kernel operations and the point maps are too frequent to keep one by
one; they are timed and counted but not stored.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# By module path: the package rebinds the name ``monomialize`` to the function.
division, geometry, monomialize, parser, series, transforms, trees = (
    importlib.import_module(f"gpseries.{name}")
    for name in ("division", "geometry", "monomialize", "parser", "series", "transforms", "trees")
)

TRANSFORM_KINDS = (
    "BlowUpXX", "BlowUpYX", "BlowUpYY", "Tschirnhausen",
    "Linear", "RamifyX", "RamifyY", "SignChart",
)

# (owner, attribute, span name, stored one by one)
FUNCTIONS = [
    (series, "substitute_y", "series.substitute_y", True),
    (series, "invert_unit", "series.invert_unit", True),
    (transforms, "pullback_chain", "transforms.pullback_chain", True),
    (division, "weierstrass_divide", "division.weierstrass_divide", True),
    (division, "solve_implicit", "division.solve_implicit", True),
    (division, "tschirnhausen_center", "division.tschirnhausen_center", True),
    (division, "unit_root", "division.unit_root", True),
    (monomialize, "monomialize", "monomialize.monomialize", True),
    (monomialize, "division_chain", "monomialize.division_chain", True),
    (monomialize, "normal_form", "monomialize.normal_form", True),
    (geometry, "parametrize_basic", "geometry.parametrize_basic", True),
    (geometry, "piece_covers", "geometry.piece_covers", True),
    (geometry, "covering_fraction_for", "geometry.covering_fraction_for", True),
    (geometry, "membership", "geometry.membership", True),
    (parser, "parse_series", "parser.parse_series", True),
    (parser, "parse_basic_set", "parser.parse_basic_set", True),
]
METHODS = [
    (series.Series, "__mul__", "series.mul", False),
    (series.Series, "__add__", "series.add", False),
    (monomialize.MonomialisationReport, "leaf_results", "monomialize.leaf_results", True),
] + [
    (getattr(transforms, kind), "pullback", f"transforms.pullback.{kind}", True)
    for kind in TRANSFORM_KINDS
] + [
    (getattr(transforms, kind), attr, "transforms.point_map", False)
    for kind in TRANSFORM_KINDS
    for attr in ("forward_point_sig", "inverse_point")
]


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Process-wide span stack, per-name statistics and the stored spans."""

    def __init__(self):
        self.stack = []  # one [child seconds] cell per open span
        self.stats = {}
        self.names = []
        self.name_ids = {}
        # stored spans: name id, job index, parent span index, start, end
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.open_ids = []  # stored index of each open span, -1 if not stored
        self.job = -1
        self.constructed = 0
        self.terms_peak = 0
        self.chain_edges = 0
        self.chain_distinct = 0
        self._seen_prefixes = set()
        self._saved = []

    # -- bookkeeping ---------------------------------------------------------

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.stats[name]

    def begin_job(self, index):
        """Spans that follow belong to job ``index``; pullback prefixes are
        counted as distinct within one job."""
        self.job = index
        self._seen_prefixes.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, store):
        stat = self.stat(name)
        name_id = self.name_ids[name]
        stack, open_ids = self.stack, self.open_ids
        tracer = self

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            if store:
                idx = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_job.append(tracer.job)
                tracer.span_parent.append(_parent(open_ids))
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            else:
                idx = -1
            open_ids.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_ids.pop()
                dur = end - start
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - cell[0]
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    tracer.span_start[idx] = start
                    tracer.span_end[idx] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, name):
        """Time each resumption of a generator; the consumer's work between
        items is not the generator's time."""
        stat = self.stat(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            stat.calls += 1

            def timed():
                while True:
                    cell = [0.0]
                    stack.append(cell)
                    start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dur = perf_counter() - start
                        stack.pop()
                        stat.total_s += dur
                        stat.self_s += dur - cell[0]
                        if stack:
                            stack[-1][0] += dur
                    yield item

            return timed()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_pullback_chain(self, fn):
        """Count edge pullbacks made by ``pullback_chain`` and how many of them
        are distinct (input series, chain prefix) pairs within the job."""
        tracer = self

        def counted(chain, f):
            h = hash(f)
            seen = tracer._seen_prefixes
            for t in chain:
                h = hash((h, t))
                tracer.chain_edges += 1
                if h not in seen:
                    seen.add(h)
                    tracer.chain_distinct += 1
            return fn(chain, f)

        return counted

    def _count_construct(self, init):
        tracer = self

        def counted(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracer.constructed += 1
            n = len(obj.terms)
            if n > tracer.terms_peak:
                tracer.terms_peak = n

        return counted

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "gpseries" or name.startswith("gpseries.")]
        for owner, attr, name, store in FUNCTIONS:
            orig = getattr(owner, attr)
            inner = self._count_pullback_chain(orig) if attr == "pullback_chain" else orig
            wrapped = self._wrap(inner, name, store)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)
        for cls, attr, name, store in METHODS:
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name, store))
        self._patch(trees.AdmissibleTree, "branches",
                    self._wrap_generator(trees.AdmissibleTree.branches, "trees.branches"))
        self._patch(series.Series, "__init__", self._count_construct(series.Series.__init__))

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path):
        """One line per stored span: name, job, parent span, start, duration (s)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tjob\tparent\tstart_s\tduration_s\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_job[i]}\t"
                    f"{self.span_parent[i]}\t{self.span_start[i] - t0:.9f}\t"
                    f"{self.span_end[i] - self.span_start[i]:.9f}\n"
                )


def _parent(open_ids):
    """Index of the innermost open stored span, or -1."""
    for idx in reversed(open_ids):
        if idx >= 0:
            return idx
    return -1
