"""Outside-in tracing of the library's public layer functions.

The tracer wraps each function in ``TRACED`` from the benchmark's side and
rebinds the wrapper under every name a ``momentpoly`` module holds for it, so
a call through ``polysys.cholesky_decompose`` or ``cli.build_system`` is seen
as well as one through the defining module.  No per-scalar method is
wrapped.  Spans stay in memory and are written once, at exit.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

#: (module, attribute) of every traced layer function; a dotted attribute is
#: a property on a class
TRACED = (
    ("moments", "make_moments"),
    ("moments", "load_moment_file"),
    ("moments", "HankelMoments.deltas"),
    ("cholesky", "cholesky_decompose"),
    ("cholesky", "invert_lower_triangular"),
    ("cholesky", "tri_multiply"),
    ("polysys", "build_system"),
    ("recurrence", "eta_table"),
    ("recurrence", "tau_table"),
    ("recurrence", "aux_tables"),
    ("recurrence", "partial_solutions"),
    ("recurrence", "moments_from_recurrence"),
    ("connect", "connection_table"),
    ("connect", "rn_expansion"),
    ("connect", "ribbon_check"),
    ("linearize", "linearization_table"),
    ("qkernel", "pm_series"),
    ("qkernel", "pm_product"),
    ("cli", "main"),
)

#: tables whose entry sizes are recorded, keyed by the function returning them
SIZED = {
    "cholesky.cholesky_decompose": "cholesky.L.max_bits",
    "cholesky.invert_lower_triangular": "cholesky.Pi.max_bits",
    "recurrence.eta_table": "recurrence.eta.max_bits",
}

COUNTED = ("polysys.build_system", "recurrence.aux_tables")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def layer_metric_names() -> list:
    names = [f"{span_name(m, a)}.self_s" for m, a in TRACED]
    names += [f"{n}.calls" for n in COUNTED]
    names += ["qkernel.pm_series.terms", "cli.output_bytes"]
    names += list(SIZED.values())
    names.append("trace.overhead_s")
    return names


def scalar_bits(v) -> int:
    """Largest numerator, denominator or radicand bit length of one entry."""
    if isinstance(v, float):
        return 0
    if isinstance(v, (int, Fraction)):
        f = Fraction(v)
        return max(f.numerator.bit_length(), f.denominator.bit_length())
    coef, rad = str(v).split("*sqrt(")
    return max(scalar_bits(Fraction(coef)), scalar_bits(Fraction(rad.rstrip(")"))))


class Tracer:
    """Records spans (name, job, parent, start, end) while installed."""

    def __init__(self):
        self.spans: list = []
        self.job = "setup"
        self._stack: list = []
        self._restore: list = []
        self.pending_tables: list = []
        self.pm_terms = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "momentpoly" or name.startswith("momentpoly.")}
        for module, attr in TRACED:
            owner = modules[f"momentpoly.{module}"]
            name = span_name(module, attr)
            if "." in attr:
                cls_name, prop = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[prop]
                self._restore.append((cls, prop, original))
                setattr(cls, prop, property(self._wrap(name, original.fget)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sized = name in SIZED
        terms = name == "qkernel.pm_series"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.job, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][4] = clock()
                stack.pop()
            if sized:
                self.pending_tables.append((SIZED[name], out))
            elif terms:
                self.pm_terms += out.terms
            return out

        traced.__wrapped__ = fn
        return traced

    # -- reduction --------------------------------------------------------------

    def take_bits(self, into: dict) -> None:
        """Fold the sizes of the tables returned since the last call into ``into``."""
        for metric, table in self.pending_tables:
            bits = max((scalar_bits(v) for row in table.rows for v in row), default=0)
            into[metric] = max(into.get(metric, 0), bits)
        self.pending_tables.clear()

    def self_times(self, factors: dict, setup: bool) -> tuple:
        """Normalised self time and call count per span name, over the set-up
        spans or over the job spans.

        ``factors`` maps each job id to its normalisation factor.
        """
        child = defaultdict(float)
        for name, job, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = defaultdict(float), defaultdict(int)
        for idx, (name, job, parent, start, end) in enumerate(self.spans):
            if (job == "setup") == setup:
                self_s[name] += (end - start - child[idx]) * factors[job]
                calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "job", "parent", "start", "end"],
                       "spans": self.spans}, fh)
            fh.write("\n")
