"""The four benchmark workloads and their seeded inputs.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs are generated from the seed
outside the timed region, and each operation's output is checked as soon as
it returns, also outside the timed region. The library is reached only
through its public API (``barnesg``, ``barnesg.cli``) or as a separate
``python -m barnesg.cli`` process.

Why each workload exists:

* ``table``   - tau repeats, so per-tau state is warm: the workload where
  per-tau kernel caching and cached correction coefficients act;
  ``choose_params`` runs once per 100 points.
* ``scatter`` - tau never repeats, so ``modular_forms_cached`` misses on
  every op: the bypass case for per-tau caching. It pays ``choose_params``,
  ``lattice_distance`` and ``cd_sums`` on every op, and its 15% of points
  with |z| in [20, 200] carry the large-|z| cost.
* ``verify``  - the paper's self-verification workload: engine calls at many
  tau, uncached ``modular_forms_em``, ``b0_of_tau``, ``gamma2``,
  ``q_pochhammer`` and ``elliptic_ke``; it fills the modular-forms LRU in its
  own pattern.
* ``cold-cli`` - the only workload that pays import and the exact P_k table
  build on every op; the in-process workloads hide that cost in set-up.
"""

from __future__ import annotations

import cmath
import importlib
import json
import math
import os
import random
import resource
import subprocess
import sys

# Upper bound on one child process; a healthy cold eval takes ~0.2 s.
CHILD_TIMEOUT_S = 60.0


def import_barnesg(src: str):
    """Import barnesg from `src` in a fresh module state.

    Any earlier import is dropped from sys.modules first, so each call pays
    the full import (module execution and lazily built tables) again.
    """
    for name in [n for n in sys.modules if n == "barnesg" or n.startswith("barnesg.")]:
        del sys.modules[name]
    bg = importlib.import_module("barnesg")
    importlib.import_module("barnesg.cli")
    if not os.path.realpath(bg.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"barnesg imported from {bg.__file__}, not from {src}")
    return bg


def cli_complex(v: complex) -> str:
    """17-significant-digit literal that barnesg.cli.parse_complex reads back
    bit-exactly."""
    return format(v.real, ".17g") + format(v.imag, "+.17g") + "j"


def c17(x: float) -> float:
    return float(format(x, ".17g"))


# ------------------------------------------------------------------ inputs

def _arc_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def near_zero_lattice(z: complex, tau: complex, r: float) -> bool:
    """Whether a zero -m tau - n (m, n >= 0) of G lies within r of z.

    Only the m where Im(z + m tau) is within r of 0 and, for Re tau > 0,
    Re(z + m tau) < r are scanned (independent of barnesg's own
    lattice_distance)."""
    lo, hi = 0.0, math.inf
    if tau.imag:
        a, b = sorted(((-r - z.imag) / tau.imag, (r - z.imag) / tau.imag))
        lo, hi = max(lo, a), b
    elif abs(z.imag) >= r:
        return False
    if tau.real > 0:
        hi = min(hi, (r - z.real) / tau.real)
    for m in range(math.ceil(lo), math.floor(hi) + 1):
        w = z + m * tau
        if abs(w + max(0, round(-w.real))) < r:
            return True
    return False


# ops i with i % 20 in TAIL_SLOTS (15%) are large-|z| points
TAIL_SLOTS = (3, 10, 16)
# R2 sequence steps (powers of the inverse plastic number): a 2-d
# low-discrepancy sequence for the tail's (|z|, |tau|)
R2_STEP = (1.0 / 1.324717957244746, 1.0 / 1.324717957244746 ** 2)


def scatter_point(seed: int, i: int,
                  with_tail: bool = True) -> tuple[complex, complex, bool]:
    """Op i's (z, tau, is_tail), drawn from its own seeded generator.

    tau: |tau| log-uniform in [0.3, 3], arg tau uniform in [-0.8 pi, 0.8 pi]
    (off the cut, Re tau < 0 included). z: uniform in the disk |z| <= 6, or
    for tail ops |z| log-uniform in [20, 200] with arg z at least 0.25 rad
    from both zero-cone directions pi and arg(-tau). Points within 0.1 of
    the zero lattice are redrawn (for tail ops, only the arguments).

    A tail op's cost grows with |z| / |tau|, and the latency tail is made of
    the few dearest of about 300 tail ops in a run, so the tail's (|z|, |tau|)
    follow a seeded shift of the R2 sequence instead of independent draws:
    every run then covers that square evenly and the tail latency reflects
    the program rather than sampling luck.
    """
    rng = random.Random(f"{seed}:{i}")
    tail = with_tail and i % 20 in TAIL_SLOTS
    if tail:
        k = i // 20 * len(TAIL_SLOTS) + TAIL_SLOTS.index(i % 20)
        shift = random.Random(f"{seed}:tail")
        u_z, u_tau = ((shift.random() + k * a) % 1.0 for a in R2_STEP)
    while True:
        if not tail:
            u_z, u_tau = rng.random(), rng.random()
        tau = 0.3 * 10.0 ** u_tau * cmath.exp(0.8j * math.pi * (2.0 * rng.random() - 1.0))
        while True:
            theta = math.pi * (2.0 * rng.random() - 1.0)
            if not tail:
                z = 6.0 * math.sqrt(u_z) * cmath.exp(1j * theta)
                break
            z = 20.0 * 10.0 ** u_z * cmath.exp(1j * theta)
            if _arc_gap(theta, math.pi) > 0.25 and _arc_gap(theta, cmath.phase(-tau)) > 0.25:
                break
        if not near_zero_lattice(z, tau, 0.1):
            return z, tau, tail


# --------------------------------------------------------------- workloads

class Workload:
    """One closed-loop workload. Subclasses define the op and its checks."""

    name = ""

    def __init__(self, root: str, src: str, outdir: str, seed: int):
        self.root, self.src, self.outdir, self.seed = root, src, outdir, seed
        self.bg = None
        self.tracer = None  # set during a traced pass

    def setup(self) -> None:
        """Import, generate inputs and warm up (timed as setup_s)."""
        self.bg = import_barnesg(self.src)
        self.make_inputs()
        self.warm_up()

    def reset(self) -> None:
        """Return caches to the state setup leaves them in."""
        self.bg.modular.modular_forms_cached.cache_clear()
        self.warm_up()

    def make_inputs(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        """The timed operation."""
        raise NotImplementedError

    def collect(self, inp, out):
        """Capture what the op produced, right after it returned (untimed)."""
        return out

    def check(self, inp, rec) -> str | None:
        """None when the op's output is correct, else a description."""
        raise NotImplementedError

    def accuracy_candidates(self, inp, rec, rng) -> list:
        """(z, tau, log_value) outputs of one checked op that may enter the
        accuracy subsample; log_value None means "evaluate after the loop"."""
        raise NotImplementedError

    def trace_ops(self, seconds: int) -> int:
        """Fixed op count of a traced run (so its counts repeat exactly)."""
        raise NotImplementedError

    def extra_metrics(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_trusted(tau: complex, n_auto: int) -> bool:
    """Whether the 2^14-term accuracy reference is the more accurate side:
    it must sum at least 4x the auto truncation, and gn_sum must use its
    stable branch (|arg tau| <= 3pi/4). In the all-direct branch the
    roundoff grows with N, so a long reference is worse than a short sum."""
    return n_auto <= 2 ** 12 and abs(cmath.phase(tau)) <= 0.75 * math.pi


class Table(Workload):
    name = "table"
    TAUS = (2.0, math.sqrt(2.0), 1 + 1j, -0.5 + 1.2j)
    COUNT = 100

    def make_inputs(self) -> None:
        self.path = os.path.join(self.outdir, f"table-s{self.seed}.json")

    def input(self, i: int):
        r = random.Random(f"{self.seed}:{i}")
        start = complex(r.uniform(0.2, 1.0), r.uniform(0.0, 0.8))
        stop = complex(r.uniform(2.5, 4.0), r.uniform(0.2, 1.2))
        grid = f"{cli_complex(start)}:{cli_complex(stop)}:{self.COUNT}"
        return grid, complex(self.TAUS[i % len(self.TAUS)])

    def warm_up(self) -> None:
        for tau in self.TAUS:
            self.run(("1+0.5j:3+1j:5", complex(tau)))

    def run(self, inp):
        grid, tau = inp
        return self.bg.cli.main(["table", f"--grid={grid}",
                                 f"--tau={cli_complex(tau)}", "--out", self.path])

    def collect(self, inp, out):
        with open(self.path) as fh:
            return out, fh.read()

    def check(self, inp, rec) -> str | None:
        code, text = rec
        if code != 0:
            return f"exit code {code}"
        rows = json.loads(text)
        grid, tau = inp
        start, stop, count = grid.split(":")
        start, stop, count = complex(start), complex(stop), int(count)
        if len(rows) != count:
            return f"{len(rows)} rows, expected {count}"
        for k, row in enumerate(rows):
            z = start + (stop - start) * (k / (count - 1))
            if row["index"] != k or row["z"] != {"re": c17(z.real), "im": c17(z.imag)}:
                return f"row {k} is not grid point {z}"
            if row["note"] or row["log"] is None:
                return f"row {k} note {row['note']!r}"
            lv = complex(row["log"]["re"], row["log"]["im"])
            val = complex(row["value"]["re"], row["value"]["im"])
            if not (math.isfinite(lv.real) and math.isfinite(lv.imag)):
                return f"row {k} non-finite log"
            if not row["err_est"] <= 1e-9:
                return f"row {k} error estimate {row['err_est']}"
            if abs(val - cmath.exp(lv)) > 1e-13 * abs(cmath.exp(lv)):
                return f"row {k} value is not exp(log)"
        return None

    def accuracy_candidates(self, inp, rec, rng) -> list:
        row = rng.choice(json.loads(rec[1]))
        return [(complex(row["z"]["re"], row["z"]["im"]), inp[1],
                 complex(row["log"]["re"], row["log"]["im"]))]

    def trace_ops(self, seconds: int) -> int:
        return max(len(self.TAUS), round(1.5 * seconds))


class Scatter(Workload):
    name = "scatter"

    def warm_up(self) -> None:
        # points off the seeded stream, so no op's tau is cached beforehand
        for z, tau in ((1.5 + 0.5j, 2.0), (0.7 - 1.1j, -0.6 + 0.9j)):
            self.bg.log_double_gamma(z, tau)
        self.bg.modular.modular_forms_cached.cache_clear()

    def input(self, i: int):
        return scatter_point(self.seed, i)

    def run(self, inp):
        return self.bg.log_double_gamma(inp[0], inp[1])

    def check(self, inp, rec) -> str | None:
        lv = rec.log_value
        if not (math.isfinite(lv.real) and math.isfinite(lv.imag)):
            return f"non-finite log {lv}"
        if not rec.error_estimate <= 1e-9:
            return f"error estimate {rec.error_estimate} above 1e-9"
        if abs(lv.real) < 700.0:  # exp(log) is representable
            ref = cmath.exp(lv)
            if abs(rec.value - ref) > 1e-13 * abs(ref):
                return f"value {rec.value} is not exp(log) = {ref}"
        return None

    def accuracy_candidates(self, inp, rec, rng) -> list:
        # tail outputs are sampled where |log G| is in [1e4, 3e4]: there the
        # resolution of the log (a unit roundoff of |log G|, ~11.5 digits of
        # G) stays well clear of the MIN_DIGITS gate on a wrong output
        z, tau, tail = inp
        if not reference_trusted(tau, rec.params_used.N):
            return []
        if tail and not 1e4 <= abs(rec.log_value) <= 3e4:
            return []
        return [(z, tau, rec.log_value)]

    def trace_ops(self, seconds: int) -> int:
        return max(20, 30 * seconds)


class Verify(Workload):
    name = "verify"
    N_SEEDS = 24

    def make_inputs(self) -> None:
        rng = random.Random(self.seed)
        self._seeds = [rng.randrange(2 ** 31) for _ in range(self.N_SEEDS)]
        self._margin = math.inf

    def warm_up(self) -> None:
        self.bg.log_double_gamma(1.5 + 0.5j, 2.0)

    def input(self, i: int):
        return self._seeds[i % self.N_SEEDS]

    def run(self, inp):
        return self.bg.run_suite(inp)

    def check(self, inp, rec) -> str | None:
        ids = tuple(r.identity_id for r in rec)
        if ids != self.bg.identities.EXPECTED_IDENTITY_IDS:
            return f"identity ids {ids}"
        bad = [r.identity_id for r in rec if not r.passed or r.notes]
        if bad:
            return f"failed or noted identities {bad}"
        for r in rec:
            self._margin = min(self._margin,
                               math.log10(r.tolerance / max(r.max_residual, 1e-16)))
        return None

    def accuracy_candidates(self, inp, rec, rng) -> list:
        # a (z, tau) point the suite itself evaluated; the engine value there
        # is computed after the loop, so it leaves the caches alone
        rep = rng.choice([r for r in rec if r.identity_id in
                          ("shift-by-one", "modular-inversion", "product-identity")])
        z, tau = rng.choice(rep.points)[:2]
        return [(z, tau, None)]

    def extra_metrics(self) -> dict:
        return {"identity_margin_digits": (self._margin, "digits")}

    def trace_ops(self, seconds: int) -> int:
        return max(1, seconds // 3)


def run_cli_process(root: str, src: str, argv: list[str],
                    spans_path: str | None = None) -> str:
    """Run `python -m barnesg.cli ARGV` in a fresh process and return its
    stdout; with `spans_path`, run the traced stand-in cold_child.py, which
    writes its spans there."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if spans_path is None:
        cmd = [sys.executable, "-m", "barnesg.cli"] + argv
    else:
        cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                            "cold_child.py"), spans_path] + argv
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def eval_argv(z: complex, tau: complex) -> list[str]:
    return ["eval", f"--z={cli_complex(z)}", f"--tau={cli_complex(tau)}"]


class ColdCli(Workload):
    name = "cold-cli"

    def __init__(self, *args):
        super().__init__(*args)
        self.spans_path = os.path.join(self.outdir, f"cold-child-s{self.seed}.jsonl")


    def warm_up(self) -> None:
        self.run((1.5 + 0.5j, 2.0, False))

    def reset(self) -> None:
        pass  # every op is a fresh process

    def input(self, i: int):
        return scatter_point(self.seed, i, with_tail=False)

    def run(self, inp):
        return run_cli_process(self.root, self.src, eval_argv(inp[0], inp[1]),
                               self.spans_path if self.tracer else None)

    def collect(self, inp, out):
        if self.tracer is not None:
            with open(self.spans_path) as fh:
                self.tracer.extend([json.loads(line) for line in fh], self.tracer.op)
        return json.loads(out)

    def check(self, inp, rec) -> str | None:
        # the child's payload must equal the in-process value bit for bit
        r = self.bg.log_double_gamma(inp[0], inp[1])
        want = {"re": c17(r.log_value.real), "im": c17(r.log_value.imag)}
        if rec.get("log") != want:
            return f"payload log {rec.get('log')} != in-process {want}"
        if rec["value"] != {"re": c17(r.value.real), "im": c17(r.value.imag)}:
            return "payload value differs from in-process value"
        return None

    def accuracy_candidates(self, inp, rec, rng) -> list:
        if not reference_trusted(inp[1], rec["N"]):
            return []
        return [(inp[0], inp[1], complex(rec["log"]["re"], rec["log"]["im"]))]

    def trace_ops(self, seconds: int) -> int:
        return max(2, seconds)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (Table, Scatter, Verify, ColdCli)}
