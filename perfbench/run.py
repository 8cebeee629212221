#!/usr/bin/env python3
"""Seeded benchmark of barnesg, run from the root of a repository checkout.

    python3 perfbench/run.py --workload {table,scatter,verify,cold-cli}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh imports, each with input generation and warm-up), then a
closed loop with one client for S seconds, then output checks; times are
scaled to a reference machine speed (see CAL_REF_NS). ``--trace 1``
runs a fixed, seed-determined op list twice, untraced and then with spans
around every layer function, adds a coverage phase for layers the workload
does not reach and the kernel-size sweep, and reports per-layer metrics.

Both print a human-readable report, write a result file under
``perfbench/out/`` and end with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The library is imported from the checkout's ``src``; the benchmark exits
with status 2 when there is none.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from array import array

from sweep import kernel_sweep
from tracing import Tracer, layer_metrics, span_hit_ratio
from workloads import WORKLOADS, eval_argv, run_cli_process

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
# accuracy reference: fixed high truncation, cross-checked by quadrature
REF_N, REF_M = 2 ** 14, 16
QUAD_MAX_ARG = 1.2
# accuracy subsample: a seeded reservoir of at most this many checked
# outputs (each reference costs ~0.2 s)
ACCURACY_SAMPLE = 32
# an output with fewer correct digits than this counts as a wrong op
MIN_DIGITS = 9.0
# the tail percentile leaves at least this many samples above it
TAIL_BEYOND = 10
# Machine-speed calibration. Other work on a shared host changes the speed
# of this process by up to 2x for tens of seconds at a time, alike for all
# CPU-bound Python, so no statistic over one run can remove it. Every time
# this benchmark reports is therefore scaled to a reference speed: multiplied
# by CAL_REF_NS over the duration of a fixed pure-Python loop (calibration_ns)
# measured next to it. CAL_REF_NS is that loop's duration on an unloaded
# 2.0 GHz x86-64 core under CPython 3.11. Raw figures go to the result file.
CAL_REF_NS = 500_000
# an op is bracketed by calibrations at most this far apart (unless it runs longer)
CAL_EVERY_NS = 100_000_000
TIME_UNITS = ("ns", "us", "ms", "ns/term")


def _calibration_work():
    acc = 0
    for k in range(4000):
        acc += (k * k) % 7
    return acc, [complex(k, 1) * complex(1, k) for k in range(800)]


def calibration_ns() -> int:
    """Duration of the fixed calibration loop now (fastest of three)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter_ns()
        _calibration_work()
        best = min(best, time.perf_counter_ns() - t0)
    return best


class Calibration:
    """Calibration readings over a stretch of time, to scale the durations
    measured between them to the reference speed."""

    def __init__(self):
        self.times, self.readings = [], []
        self.read()

    def read(self) -> None:
        self.times.append(time.perf_counter_ns())
        self.readings.append(calibration_ns())

    def due(self) -> bool:
        return time.perf_counter_ns() - self.times[-1] > CAL_EVERY_NS

    def scale(self, start_ns: int, duration_ns: int) -> float:
        """duration_ns at the reference speed, from the mean of the last
        reading before start_ns and the first one after it (read() must
        have been called after the measured interval)."""
        k = bisect.bisect_right(self.times, start_ns)
        local = 0.5 * (self.readings[k - 1] + self.readings[k])
        return duration_ns * CAL_REF_NS / local


class Reservoir:
    """Uniform seeded sample of at most k items from a stream (algorithm R),
    so what the harness keeps does not grow with the op count."""

    def __init__(self, k: int, rng: random.Random):
        self.k, self.rng, self.seen, self.items = k, rng, 0, []

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.k:
            self.items.append(item)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.k:
                self.items[j] = item


class Outcomes:
    """Checks each op's output as soon as the op returns, outside the timed
    interval, and keeps only the failure messages and the accuracy
    subsample, not the outputs themselves."""

    def __init__(self, wl, sample_k: int):
        self.wl, self.failures, self.attempted = wl, [], 0
        self.rng = random.Random(f"{wl.seed}-accuracy")
        self.sample = Reservoir(sample_k, self.rng)

    def error(self, i: int, msg: str) -> None:
        self.attempted += 1
        self.failures.append(f"op {i}: {msg}")

    def result(self, inp, out) -> None:
        self.attempted += 1
        try:
            rec = self.wl.collect(inp, out)
            msg = self.wl.check(inp, rec)
            if not msg:
                for point in self.wl.accuracy_candidates(inp, rec, self.rng):
                    self.sample.offer(point)
        except Exception as exc:  # a malformed output is a wrong op
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            self.failures.append(f"input {inp!r}: {msg}")


def closed_loop(wl, outcomes, *, seconds=None, n_ops=None, tracer=None):
    """One client: op i+1 starts when op i returned. Runs n_ops ops, or until
    `seconds` of wall time have passed, with calibration readings between
    ops; each op's output goes to `outcomes` when the op has returned.
    Returns (latency_ns at the reference speed, raw latency_ns,
    calibration)."""
    cal = Calibration()
    starts, lat = array("q"), array("q")  # 16 bytes an op
    deadline = time.perf_counter() + seconds if seconds is not None else math.inf
    i = 0
    while i < n_ops if n_ops is not None else time.perf_counter() < deadline:
        inp = wl.input(i)
        if tracer is not None:
            tracer.op = i
        if cal.due():
            cal.read()
        t0 = time.perf_counter_ns()
        starts.append(t0)
        try:
            out = wl.run(inp)
        except Exception as exc:  # an op that raises is a failed op
            lat.append(time.perf_counter_ns() - t0)
            outcomes.error(i, f"{type(exc).__name__}: {exc}")
        else:
            lat.append(time.perf_counter_ns() - t0)
            if tracer is not None:  # a check may call the library itself
                tracer.paused = True
            outcomes.result(inp, out)
            if tracer is not None:
                tracer.paused = False
        i += 1
    cal.read()
    return [cal.scale(t, d) for t, d in zip(starts, lat)], lat, cal


def accuracy(wl, outcomes):
    """accuracy_digits: the minimum over the subsample of
    -log10(|exp(log - ref) - 1| / max(1, |ref|)), the relative error of G
    against the fixed high-truncation reference, in units of the scale of
    log G (so it is the relative error of G itself where |log G| <= 1).
    Double precision resolves log G only to a unit roundoff of
    max(1, |log G|), so the division keeps large-|log G| outputs from
    setting the minimum at that resolution and hiding losses elsewhere; an
    error below it counts as that resolution. Outputs with fewer than
    MIN_DIGITS correct digits of G join outcomes.failures.

    Where the independent quadrature route log_G_via_integral applies
    (Re z > 0, Re tau > 0; here with |arg| <= QUAD_MAX_ARG for both, as the
    integrand decays too slowly near the imaginary axis for the quadrature
    to converge) the reference itself is checked against it. A log_value of
    None is evaluated here by the auto-truncated engine. Returns (digits,
    reference problems)."""
    bg = wl.bg
    digits, ref_problems = math.inf, []
    for z, tau, log_value in outcomes.sample.items:
        if log_value is None:
            log_value = bg.log_double_gamma(z, tau).log_value
        ref = bg.log_double_gamma(z, tau, bg.ComputeParams(N=REF_N, M=REF_M)).log_value
        if (abs(cmath.phase(z)) <= QUAD_MAX_ARG and abs(cmath.phase(tau)) <= QUAD_MAX_ARG
                and abs(z) <= 10.0):
            try:
                quad = bg.log_G_via_integral(z, tau)
            except bg.ConvergenceError as exc:
                ref_problems.append(f"quadrature at ({z}, {tau}): {exc}")
                continue
            if not abs(cmath.exp(quad - ref) - 1.0) <= 1e-9:
                ref_problems.append(f"reference at ({z}, {tau}) disagrees with quadrature")
        scale = max(1.0, abs(ref))
        err = max(abs(cmath.exp(log_value - ref) - 1.0), 2.0 ** -53 * scale)
        if not -math.log10(err) >= MIN_DIGITS:
            outcomes.failures.append(f"({z}, {tau}): {-math.log10(err):.2f} correct digits")
        digits = min(digits, -math.log10(err / scale))
    return digits, ref_problems


def latency_metrics(lat_ns):
    s = sorted(lat_ns)
    n = len(s)
    j = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "ops_per_s": (n / (sum(s) * 1e-9), "1/s"),
        "latency_p50_ms": (statistics.median(s) * 1e-6, "ms"),
        "latency_tail_ms": (s[j] * 1e-6, "ms"),
    }, {"tail_percentile": 100.0 * (j + 1) / n, "samples": n}


def untraced_run(wl, seconds: int, sample: int):
    cal = Calibration()
    setup_raw = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        wl.setup()
        setup_raw.append((t0, time.perf_counter_ns() - t0))
        cal.read()
    setup = [cal.scale(t, d) * 1e-9 for t, d in setup_raw]
    outcomes = Outcomes(wl, sample)
    lat, raw, loop_cal = closed_loop(wl, outcomes, seconds=seconds)
    rss = wl.peak_rss_mb()
    digits, ref_problems = accuracy(wl, outcomes)
    failures = outcomes.failures
    metrics, tail = latency_metrics(lat)
    metrics = {"setup_s": (statistics.median(setup), "s"), **metrics,
               "accuracy_digits": (digits, "digits"), "peak_rss_mb": (rss, "MB")}
    report = {"fail_ratio": (len(failures) / outcomes.attempted, "ratio"),
              **wl.extra_metrics()}
    info = {**tail, "setup_samples_s": setup, "reference_problems": ref_problems,
            "accuracy_sample": len(outcomes.sample.items),
            "raw": {"setup_s": statistics.median(d * 1e-9 for _, d in setup_raw),
                    **{k: v for k, (v, _) in latency_metrics(raw)[0].items()}},
            "calibration_ns": loop_cal.readings}
    return metrics, report, info, outcomes.attempted, failures


# large-|z| points in the admissible sectors for the asymptotic route, which
# no workload op reaches
ASYMPTOTIC_TAU = 1.5
ASYMPTOTIC_Z = (50 + 10j, 80 - 20j, 30 + 40j, 120 + 5j, 60 - 45j, 200 + 70j)


def coverage(wl, tracer, seed: int) -> None:
    """Traced calls into the layers the workload's ops did not reach."""
    reached = {rec[0] for rec in tracer.spans if rec[4] >= 0}
    tracer.op = -1
    if "identities.run_suite" not in reached:
        wl.bg.run_suite(seed)
    wl.bg.log_G_via_integral(1.5 + 0.5j, 1.2 + 0.3j)
    coeffs = wl.bg.asymptotic_coeffs(ASYMPTOTIC_TAU, 8)
    for z in ASYMPTOTIC_Z:
        wl.bg.log_double_gamma_asymptotic(z, ASYMPTOTIC_TAU, 8, coeffs)
    if "cold.import" not in reached:
        path = os.path.join(OUT, f"coverage-child-s{seed}.jsonl")
        run_cli_process(ROOT, SRC, eval_argv(1.5 + 0.5j, 2.0), path)
        with open(path) as fh:
            tracer.extend([json.loads(line) for line in fh], -2)


def traced_run(wl, seconds: int, sample: int):
    wl.setup()
    n = wl.trace_ops(seconds)
    outcomes = Outcomes(wl, sample)
    wl.reset()
    lat_u, _, _ = closed_loop(wl, outcomes, n_ops=n)

    wl.reset()
    cache = wl.bg.modular.modular_forms_cached
    before = cache.cache_info()
    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        lat_t, _, cal = closed_loop(wl, outcomes, n_ops=n, tracer=tracer)
        after = cache.cache_info()
        wl.tracer = None
        coverage(wl, tracer, wl.seed)
    finally:
        tracer.uninstall()
    tracer.dump(os.path.join(OUT, f"{wl.name}-s{wl.seed}-spans.jsonl"))

    metrics = layer_metrics(tracer.spans, n)
    if wl.name == "cold-cli":  # the cache lives in the child processes
        hit_ratio = span_hit_ratio(tracer.spans)
    else:
        hits, misses = after.hits - before.hits, after.misses - before.misses
        hit_ratio = hits / (hits + misses) if hits + misses else math.nan
    metrics["modular.modular_forms_cached.hit_ratio"] = (hit_ratio, "ratio")
    metrics["tracing.overhead_ratio"] = (sum(lat_t) / sum(lat_u), "ratio")
    metrics.update(kernel_sweep(wl.bg.backend))
    # spans and sweep share one scale: the median calibration of the phase
    cal.read()
    speed = CAL_REF_NS / statistics.median(cal.readings)
    metrics = {k: (v * speed if u in TIME_UNITS else v, u) for k, (v, u) in metrics.items()}

    digits, ref_problems = accuracy(wl, outcomes)
    failures = outcomes.failures
    report = {"fail_ratio": (len(failures) / outcomes.attempted, "ratio"),
              "accuracy_digits": (digits, "digits")}
    info = {"ops_per_pass": n, "spans": len(tracer.spans), "speed_scale": speed,
            "reference_problems": ref_problems}
    return metrics, report, info, outcomes.attempted, failures


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "barnesg", "__init__.py")):
        print(f"error: no barnesg sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    # one CPU, so calibration readings and the work they scale share a core;
    # cold-cli's child processes inherit it
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control on this platform
        pass

    wl = WORKLOADS[args.workload](ROOT, SRC, OUT, args.seed)
    # short runs (the self-test) check a smaller accuracy subsample
    sample = max(2, min(ACCURACY_SAMPLE, 2 * args.seconds))
    run = traced_run if args.trace else untraced_run
    metrics, report, info, attempted, failures = run(wl, args.seconds, sample)

    bg = wl.bg
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": bg.backend_name(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "lru": {"modular.modular_forms_cached":
                bg.modular.modular_forms_cached.cache_info()._asdict(),
                "engine._p_rounded": bg.engine._p_rounded.cache_info()._asdict()},
    }
    nonfinite = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    correct = not failures and not info["reference_problems"] and not nonfinite
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                          for k, (v, u) in metrics.items()}}
    path = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**meta, **info, "result": result,
                   "report_only": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
                   "non_finite": nonfinite, "failures": failures[:50]}, fh, indent=1)

    print(f"barnesg benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} backend={meta['backend']} python={meta['python']} "
          f"nproc={meta['nproc']}")
    for k, (v, u) in {**metrics, **report}.items():
        note = ""
        if k == "latency_tail_ms":
            note = f"  (p{info['tail_percentile']:.1f} of {info['samples']} samples)"
        print(f"  {k:<52} {v:>14.6g} {u}{note}")
    for msg in failures[:10] + info["reference_problems"] + nonfinite:
        print(f"  FAIL {msg}")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
