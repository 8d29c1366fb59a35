#!/usr/bin/env python3
"""Run one benchmark workload of momentpoly and print its metrics.

    python3 bench/run.py --workload exact-build --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the raw wall times and the
reference-loop times.  ``--write-digests`` records the stdout digests of the
seed-free cli-mixed ops instead (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import oracles as orc
import spans
import workloads
from clock import NOMINAL_REF_S, Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: set-ups per end-to-end run; setup_s is their median
SETUP_REPEATS = 5
#: p90 needs at least ten jobs beyond it
MIN_JOBS = 100

E2E_UNITS = {"setup_s": "s", "job_p50_s": "s", "job_p90_s": "s", "jobs_per_s": "1/s",
             "peak_rss_mb": "MB"}


def fresh_import():
    """Import momentpoly from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "momentpoly" or n.startswith("momentpoly.")]:
        del sys.modules[name]
    mp = importlib.import_module("momentpoly")
    importlib.import_module("momentpoly.cli")
    if Path(mp.__file__).resolve().parent != SRC / "momentpoly":
        raise ImportError(f"momentpoly imported from {mp.__file__}, not from {SRC}")
    return mp


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.setup_fn = workloads.WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}
        self.first: dict = {}
        self.peers_first: dict = {}

    def set_up(self, tracer=None):
        def work():
            mp = fresh_import()
            if tracer is not None:
                tracer.install()
            return self.setup_fn(mp, self.seed, self.workdir)

        self.clock.resync()
        return self.clock.call(work)

    def run_pass(self, ops, tracer=None, job_base=0, bits=None) -> list:
        """One timed pass over ``ops``; outputs are checked after the pass."""
        outs, timings = [], []
        self.clock.resync()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.job = job_base + k
            out, timing = self.clock.call(_guarded, op)
            outs.append(out)
            timings.append(timing)
            if tracer is not None and tracer.pending_tables:
                tracer.take_bits(bits)
                self.clock.resync()
        self.check(ops, outs)
        return outs, timings

    def check(self, ops, outs) -> None:
        peers = {op.name: out for op, out in zip(ops, outs)}
        first_pass = not self.first
        for op, out in zip(ops, outs):
            self.attempted += 1
            reason = out.get("error")
            if reason is None:
                out["op"] = op
                for oracle in op.oracles:
                    try:
                        reason = oracle.check(out, peers)
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        reason = f"unreadable output ({type(exc).__name__}: {exc})"
                    if reason:
                        reason = f"{oracle.name}: {reason}"
                        break
            if reason is None and "stdout" in out and not first_pass:
                if out["stdout"] != self.first[op.name]["stdout"]:
                    reason = "stdout differs from the first pass"
            if reason is not None:
                self.failed += 1
                self.failures.setdefault(op.name, reason)
            if first_pass:
                self.first[op.name] = out
        if first_pass:
            self.peers_first = peers

    def self_check(self, ops) -> list:
        """Oracles that accepted a deliberately damaged output (must be empty).

        Every oracle of every op that passed gets its first-pass output
        damaged once.
        """
        return orc.run_self_check(
            (oracle, self.first[op.name], self.peers_first)
            for op in ops if op.name not in self.failures for oracle in op.oracles)


def _guarded(op):
    try:
        return op.run()
    except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
        return {"error": f"{type(exc).__name__}: {exc}"}


def measure(args, runner: Runner) -> tuple:
    setups = [runner.set_up() for _ in range(SETUP_REPEATS)]
    ops = setups[-1][0]
    gc.collect()
    timings = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds or len(timings) < MIN_JOBS:
        timings += runner.run_pass(ops)[1]
        passes += 1
    norms = [t.norm for t in timings]
    walls = [t.wall for t in timings]
    metrics = {
        "setup_s": statistics.median(t.norm for _, t in setups),
        "job_p50_s": statistics.median(norms),
        "job_p90_s": statistics.quantiles(norms, n=10)[8],
        "jobs_per_s": len(norms) / sum(norms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    refs = [t.ref for t in timings]
    detail = {
        "passes": passes,
        "jobs": len(timings),
        "raw": {"setup_s": statistics.median(t.wall for _, t in setups),
                "job_p50_s": statistics.median(walls),
                "job_p90_s": statistics.quantiles(walls, n=10)[8],
                "jobs_per_s": len(walls) / sum(walls)},
        "reference_s": {"nominal": NOMINAL_REF_S, "median": statistics.median(refs),
                        "quartiles": statistics.quantiles(refs, n=4)},
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, detail, ops


def measure_traced(args, runner: Runner, tracer: spans.Tracer) -> tuple:
    bits: dict = {}
    ops, setup_timing = runner.set_up(tracer)
    tracer.uninstall()
    tracer.take_bits(bits)
    setup_terms = tracer.pm_terms
    factors = {"setup": setup_timing.factor}
    traced, plain = [], []
    output_bytes = 0
    start = time.perf_counter()
    passes = 0
    while passes < 2 or passes % 2 or time.perf_counter() - start < args.seconds:
        if passes % 2:
            tracer.install()
            base = len(factors)
            outs, timings = runner.run_pass(ops, tracer, base, bits)
            tracer.uninstall()
            factors.update({base + k: t.factor for k, t in enumerate(timings)})
            traced += [t.norm for t in timings]
            output_bytes += sum(len(o.get("stdout", "").encode("utf-8")) for o in outs)
        else:
            plain += [t.norm for t in runner.run_pass(ops)[1]]
        passes += 1
    tracer.uninstall()
    n_traced = passes // 2
    setup_self, setup_calls = tracer.self_times(factors, setup=True)
    job_self, job_calls = tracer.self_times(factors, setup=False)
    values = {}
    for module, attr in spans.TRACED:
        name = spans.span_name(module, attr)
        values[f"{name}.self_s"] = setup_self[name] + job_self[name] / n_traced
    for name in spans.COUNTED:
        values[f"{name}.calls"] = setup_calls[name] + job_calls[name] // n_traced
    values["qkernel.pm_series.terms"] = (
        setup_terms + (tracer.pm_terms - setup_terms) // n_traced)
    values["cli.output_bytes"] = output_bytes // n_traced
    for metric in spans.SIZED.values():
        values[metric] = bits.get(metric, 0)
    values["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(plain)
    units = {"self_s": "s", "calls": "count", "terms": "count", "output_bytes": "bytes",
             "max_bits": "bits", "overhead_s": "s"}
    metrics = {k: {"value": values[k], "unit": units[k.rsplit(".", 1)[-1]]}
               for k in spans.layer_metric_names()}
    detail = {"passes": passes, "traced_passes": n_traced, "spans": len(tracer.spans),
              "traced_job_mean_s": statistics.mean(traced),
              "untraced_job_mean_s": statistics.mean(plain)}
    return metrics, detail, ops


def write_digests(workdir: Path) -> int:
    runner = Runner("cli-mixed", 0, workdir)
    ops, _ = runner.set_up()
    outs, _ = runner.run_pass(ops)
    digests = {op.name: hashlib.sha256(out["stdout"].encode("utf-8")).hexdigest()
               for op, out in zip(ops, outs) if op.name in workloads.SEED_FREE_OPS}
    workloads.DIGEST_FILE.write_text(json.dumps(dict(sorted(digests.items())), indent=2) + "\n",
                                     encoding="utf-8")
    print(f"wrote {len(digests)} digests to {workloads.DIGEST_FILE}")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-digests", action="store_true",
                   help="record the stdout digests of the seed-free cli-mixed ops")
    args = p.parse_args(argv)
    if not args.write_digests and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momentpoly" / "__init__.py").is_file():
        print(f"error: no momentpoly package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_digests:
            return write_digests(workdir)
        runner = Runner(args.workload, args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        if tracer is None:
            metrics, detail, ops = measure(args, runner)
        else:
            metrics, detail, ops = measure_traced(args, runner, tracer)
        slack = runner.self_check(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  failures=runner.failures, self_check_accepted_damage=slack)
    result = {"correct": not slack, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
