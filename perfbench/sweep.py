"""Per-term cost of the kernel backend's hot loops across sizes.

The truncation-size sweep of ``gn_sum`` (the engine's product sum) and
``cd_sums`` (the modular-form partial sums), plus per-call costs of
``loggamma``/``digamma``/``trigamma``, all on the backend ``barnesg``
selected at import. Each size is warmed once and timed as the median of
three calls.
"""

from __future__ import annotations

import math
import statistics
import time

GN_SIZES = (64, 256, 1024, 4096, 16384)
CD_SIZES = (64, 256, 1024, 4096)
Z, TAU = 2 + 1j, math.sqrt(2.0)
REPEAT = 3
# arguments spread over the region the engine feeds the scalar kernels
ARGS = tuple(complex(0.3 + 0.37 * k, -4.0 + 0.29 * k) for k in range(400))


def _median_s(fn) -> float:
    fn()
    samples = []
    for _ in range(REPEAT):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples) * 1e-9


def kernel_sweep(backend) -> dict:
    """{metric name: (value, unit)} for the active backend module."""
    out = {}
    for n in GN_SIZES:
        t = _median_s(lambda: backend.gn_sum(Z, TAU, n))
        out[f"backend.gn_sum.N{n}.ns_per_term"] = (1e9 * t / n, "ns/term")
    for m in CD_SIZES:
        t = _median_s(lambda: backend.cd_sums(TAU, m, 6))
        out[f"backend.cd_sums.m{m}.ns_per_term"] = (1e9 * t / (m - 1), "ns/term")
    for name in ("loggamma", "digamma", "trigamma"):
        fn = getattr(backend, name)
        t = _median_s(lambda: [fn(w) for w in ARGS])
        out[f"backend.{name}.ns_per_call"] = (1e9 * t / len(ARGS), "ns")
    return out
