"""In-memory spans around barnesg's public layer functions.

Tracing lives entirely in the benchmark: ``install`` replaces each layer
function by a recording wrapper at every ``barnesg`` module that binds it
(the defining module, the package namespace and every ``from x import f``
site), and ``uninstall`` puts the originals back. Nothing inside ``src/`` is
instrumented, so untraced runs execute the library unchanged.

A span is ``[name, start_ns, end_ns, parent, op, work]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the operation id the
harness set before the call, and ``work`` an exact work count where the
layer has one (terms summed by ``gn_sum`` / ``cd_sums``), else 0.
"""

from __future__ import annotations

import json
import math
import sys
import time

# (span name, defining module, attribute). Order is irrelevant; every
# module of the package that binds the same function object is patched.
LAYERS = (
    ("backend.gn_sum", "barnesg.backend", "gn_sum"),
    ("backend.cd_sums", "barnesg.backend", "cd_sums"),
    ("kernels.log_gamma", "barnesg.kernels", "log_gamma"),
    ("kernels.polygamma", "barnesg.kernels", "polygamma"),
    ("kernels.q_pochhammer", "barnesg.kernels", "q_pochhammer"),
    ("kernels.elliptic_ke", "barnesg.kernels", "elliptic_ke"),
    ("kernels.integrate_semiaxis", "barnesg.kernels", "integrate_semiaxis"),
    ("engine.log_double_gamma", "barnesg.engine", "log_double_gamma"),
    ("engine.double_gamma_value", "barnesg.engine", "double_gamma_value"),
    ("engine.choose_params", "barnesg.engine", "choose_params"),
    ("engine.lattice_distance", "barnesg.engine", "lattice_distance"),
    ("engine.b0_of_tau", "barnesg.engine", "b0_of_tau"),
    ("engine.gamma2", "barnesg.engine", "gamma2"),
    ("engine.asymptotic_coeffs", "barnesg.engine", "asymptotic_coeffs"),
    ("engine.log_double_gamma_asymptotic", "barnesg.engine",
     "log_double_gamma_asymptotic"),
    ("modular.modular_forms_em", "barnesg.modular", "modular_forms_em"),
    ("modular.modular_forms_cached", "barnesg.modular", "modular_forms_cached"),
    ("modular.d_reflection_residual", "barnesg.modular", "d_reflection_residual"),
    ("polys.p_poly_recursive", "barnesg.polys", "p_poly_recursive"),
    ("identities.run_suite", "barnesg.identities", "run_suite"),
    ("identities.check_functional_equations", "barnesg.identities",
     "check_functional_equations"),
    ("identities.check_reflection", "barnesg.identities", "check_reflection"),
    ("identities.check_modular", "barnesg.identities", "check_modular"),
    ("identities.check_multiplication", "barnesg.identities",
     "check_multiplication"),
    ("identities.check_multiplication_tau_scaled", "barnesg.identities",
     "check_multiplication_tau_scaled"),
    ("identities.check_multiplication_z_scaled", "barnesg.identities",
     "check_multiplication_z_scaled"),
    ("identities.check_product_identity", "barnesg.identities",
     "check_product_identity"),
    ("identities.check_b0_inversion", "barnesg.identities", "check_b0_inversion"),
    ("identities.check_b0_decomposition", "barnesg.identities",
     "check_b0_decomposition"),
    ("identities.check_b0_rational_scaling", "barnesg.identities",
     "check_b0_rational_scaling"),
    ("cli.main", "barnesg.cli", "main"),
)

# Exact work counts: gn_sum(z, tau, N) sums N terms; cd_sums(tau, m, k0)
# sums the m - 1 indices k = 1 .. m-1.
_WORK = {
    "backend.gn_sum": lambda args, kwargs: args[2],
    "backend.cd_sums": lambda args, kwargs: args[1] - 1,
}


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.paused = False  # while True, wrapped calls record nothing
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        work = _WORK.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op,
                   work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a top-level span measured outside a wrapper."""
        self.spans.append([name, start_ns, end_ns, -1, self.op, 0])

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "barnesg" or n.startswith("barnesg."))]
        for name, mod_name, attr in LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(name, original)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, traced)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def extend(self, spans: list[list], op: int) -> None:
        """Append spans recorded by another process, re-based onto this list."""
        base = len(self.spans)
        for name, t0, t1, parent, _, work in spans:
            self.spans.append([name, t0, t1, parent + base if parent >= 0 else -1,
                               op, work])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    child = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


# ------------------------------------------------------- per-layer metrics
#
# Workload ops have op ids >= 0. Layers a workload never reaches are measured
# in a coverage phase (op ids < 0) of the same traced run; a per-call metric
# comes from the workload's spans when it has any, else from the coverage
# spans. Per-op counts always come from the workload's spans alone.

SUITE_CHECKS = tuple(n for n, _, _ in LAYERS if n.startswith("identities.check_")) \
    + ("modular.d_reflection_residual",)


def layer_metrics(spans: list[list], n_ops: int) -> dict:
    """{metric: (value, unit)} derived from one traced run's spans."""
    selft = self_times(spans)
    by_name: dict[str, tuple[list[int], list[int]]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], ([], []))[0 if rec[4] >= 0 else 1].append(i)

    def pick(name):
        wl, cov = by_name.get(name, ([], []))
        return wl or cov

    def dur(i):
        return spans[i][2] - spans[i][1]

    def per_call(name, scale, times=dur):
        ix = pick(name)
        return sum(times(i) for i in ix) / len(ix) * scale if ix else math.nan

    def per_term(name):
        ix = pick(name)
        work = sum(spans[i][5] for i in ix)
        return sum(dur(i) for i in ix) / work if work else math.nan

    def per_op(name, field=None):
        ix = by_name.get(name, ([], []))[0]
        return (sum(spans[i][5] for i in ix) if field else len(ix)) / n_ops

    def ops_of(name):
        return {spans[i][4] for i in pick(name)}

    m = {
        "backend.gn_sum.ns_per_term": (per_term("backend.gn_sum"), "ns/term"),
        "backend.gn_sum.terms_per_op": (per_op("backend.gn_sum", "work"), "terms/op"),
        "backend.cd_sums.ns_per_term": (per_term("backend.cd_sums"), "ns/term"),
        "modular.modular_forms_em.us_per_call":
            (per_call("modular.modular_forms_em", 1e-3), "us"),
        "engine.log_double_gamma.self_us":
            (per_call("engine.log_double_gamma", 1e-3, selft.__getitem__), "us"),
        "engine.b0_of_tau.ms_per_call": (per_call("engine.b0_of_tau", 1e-6), "ms"),
        "engine.gamma2.us_per_call": (per_call("engine.gamma2", 1e-3), "us"),
        "engine.asymptotic_coeffs.ms_per_call":
            (per_call("engine.asymptotic_coeffs", 1e-6), "ms"),
        "engine.log_double_gamma_asymptotic.us_per_call":
            (per_call("engine.log_double_gamma_asymptotic", 1e-3), "us"),
        "kernels.q_pochhammer.us_per_call": (per_call("kernels.q_pochhammer", 1e-3), "us"),
        "kernels.elliptic_ke.us_per_call": (per_call("kernels.elliptic_ke", 1e-3), "us"),
        "kernels.integrate_semiaxis.ms_per_call":
            (per_call("kernels.integrate_semiaxis", 1e-6), "ms"),
        "identities.run_suite.ms_per_call": (per_call("identities.run_suite", 1e-6), "ms"),
        "cli.main.self_ms": (per_call("cli.main", 1e-6, selft.__getitem__), "ms"),
        "cold.import_ms": (per_call("cold.import", 1e-6), "ms"),
    }
    for name in ("engine.choose_params", "engine.lattice_distance",
                 "engine.log_double_gamma", "kernels.log_gamma", "kernels.polygamma"):
        if name != "engine.log_double_gamma":
            m[f"{name}.us_per_call"] = (per_call(name, 1e-3), "us")
        m[f"{name}.calls_per_op"] = (per_op(name), "calls/op")

    # identity checks per run_suite call, from the same ops as the suites
    suite_ops = ops_of("identities.run_suite")
    n_suites = len(pick("identities.run_suite"))
    for name in SUITE_CHECKS:
        t = sum(dur(i) for i, rec in enumerate(spans)
                if rec[0] == name and rec[4] in suite_ops)
        m[f"{name}.ms_per_suite"] = (t * 1e-6 / n_suites if n_suites else math.nan, "ms")

    # exact P_k table build inside each fresh process (ops with cold.import)
    cold_ops = ops_of("cold.import")
    builds = [sum(dur(i) for i, rec in enumerate(spans)
                  if rec[0] == "polys.p_poly_recursive" and rec[4] == op)
              for op in cold_ops]
    m["polys.p_poly_recursive.cold_ms"] = (
        sum(builds) * 1e-6 / len(builds) if builds else math.nan, "ms")
    return m


def span_hit_ratio(spans: list[list]) -> float:
    """Hit ratio of modular_forms_cached over the workload's ops: a call is a
    miss when it has a modular_forms_em child span."""
    calls = {i for i, rec in enumerate(spans)
             if rec[0] == "modular.modular_forms_cached" and rec[4] >= 0}
    misses = {rec[3] for rec in spans
              if rec[0] == "modular.modular_forms_em" and rec[3] in calls}
    return (len(calls) - len(misses)) / len(calls) if calls else math.nan
