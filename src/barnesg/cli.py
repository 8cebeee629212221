"""Command-line front end.

Subcommands: eval, table, polys, modular-forms, verify, bench.
Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 capacity or non-convergence.

All floating output is printed with 17 significant digits so JSON and CSV
payloads round-trip exactly at binary64.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
from dataclasses import replace

from . import engine, identities, modular, polys
from .errors import CapacityError, ConvergenceError, DomainError, LatticeZeroError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' literals (either part optional, i or j suffix)."""
    s = text.strip().replace("I", "i").replace("i", "j")
    try:
        return complex(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex literal: {text!r}")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _json_default(obj):
    raise TypeError(f"not JSON-serializable: {obj!r}")


def _emit(args, payload_json, csv_header, csv_rows) -> None:
    """Write either the JSON payload or the equivalent CSV rows."""
    if args.format == "json":
        text = json.dumps(payload_json, indent=2, default=_json_default)
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(csv_header)
        for row in csv_rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue().rstrip("\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _round17(x: float) -> float:
    # canonical 17-significant-digit value (identical in JSON and CSV)
    return float(_fmt(x))


def _c17(v: complex) -> dict:
    return {"re": _round17(v.real), "im": _round17(v.imag)}


def _params_from_args(z, tau, args) -> engine.ComputeParams:
    if args.N is not None:
        return engine.ComputeParams(N=args.N, M=args.M or 12, m_cd=args.m)
    params = engine.choose_params(z, tau)
    if args.M is not None:
        params = replace(params, M=args.M)
    if args.m is not None:
        params = replace(params, m_cd=args.m)
    return params


# ---------------------------------------------------------------- commands

def _cmd_eval(args) -> int:
    z, tau = args.z, args.tau
    params = _params_from_args(z, tau, args)
    try:
        result = engine.log_double_gamma(z, tau, params)
    except LatticeZeroError:
        payload = {"log": None, "value": {"re": 0.0, "im": 0.0},
                   "err_est": 0.0, "N": params.N, "M": params.M,
                   "note": "lattice zero"}
        _emit(args, payload,
              ["log_re", "log_im", "value_re", "value_im", "err_est", "N", "M", "note"],
              [["", "", 0.0, 0.0, 0.0, params.N, params.M, "lattice zero"]])
        return EXIT_OK
    d = result.to_json_dict()
    payload = {"log": _c17(result.log_value), "value": _c17(result.value),
               "err_est": _round17(d["err_est"]), "N": d["N"], "M": d["M"]}
    _emit(args, payload,
          ["log_re", "log_im", "value_re", "value_im", "err_est", "N", "M"],
          [[result.log_value.real, result.log_value.imag,
            result.value.real, result.value.imag,
            result.error_estimate, d["N"], d["M"]]])
    return EXIT_OK


def _parse_grid(text: str) -> tuple[complex, complex, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:count, got {text!r}")
    start = parse_complex(parts[0])
    stop = parse_complex(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid count in {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    return start, stop, count


def _cmd_table(args) -> int:
    start, stop, count = args.grid
    tau = args.tau
    zs = [start] if count == 1 else [
        start + (stop - start) * (k / (count - 1)) for k in range(count)]
    params = _params_from_args(max(zs, key=abs), tau, args)
    rows_json, rows_csv = [], []
    for idx, z in enumerate(zs):
        try:
            r = engine.log_double_gamma(z, tau, params)
            log_d, val, err = _c17(r.log_value), _c17(r.value), _round17(r.error_estimate)
            note = ""
        except LatticeZeroError:
            log_d, val, err, note = None, {"re": 0.0, "im": 0.0}, 0.0, "lattice zero"
        rows_json.append({"index": idx, "z": _c17(z), "value": val,
                          "log": log_d, "err_est": err, "note": note})
        rows_csv.append([idx, z.real, z.imag, val["re"], val["im"],
                         log_d["re"] if log_d else "",
                         log_d["im"] if log_d else "", err, note])
    _emit(args, rows_json,
          ["index", "z_re", "z_im", "value_re", "value_im",
           "log_re", "log_im", "err_est", "note"],
          rows_csv)
    return EXIT_OK


def _cmd_polys(args) -> int:
    if args.n > 200:
        print("error: n is capped at 200 (coefficients grow combinatorially)",
              file=sys.stderr)
        return EXIT_USAGE
    payload = {}
    rows = []
    if args.family == "q":
        for n in range(args.n + 1):
            strs = polys.q_poly(n).to_strings()
            payload[f"q{n}"] = strs
            for k, c in enumerate(strs):
                rows.append([f"q{n}", k, c])
        header = ["name", "power", "coefficient"]
    else:
        for n in range(1, args.n + 1):
            strs = polys.p_poly(n).to_strings()
            payload[f"P{n}"] = strs
            for zp, taus in enumerate(strs):
                for k, c in enumerate(taus):
                    rows.append([f"P{n}", zp, k, c])
        header = ["name", "z_power", "tau_power", "coefficient"]
    _emit(args, payload, header, rows)
    return EXIT_OK


def _cmd_modular_forms(args) -> int:
    mf = modular.modular_forms_em(args.tau, args.m)
    d = mf.to_json_dict()
    payload = {k: (_c17(complex(v["re"], v["im"])) if isinstance(v, dict) else
                   (_round17(v) if isinstance(v, float) else v))
               for k, v in d.items()}
    row = []
    header = []
    for key in ("tau", "C", "D", "a", "b", "a_tilde", "b_tilde"):
        header += [f"{key}_re", f"{key}_im"]
        row += [d[key]["re"], d[key]["im"]]
    header += ["m_used", "error_estimate"]
    row += [d["m_used"], d["error_estimate"]]
    _emit(args, payload, header, [row])
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = identities.run_suite(args.seed, args.profile)
    payload = [r.to_json_dict() for r in reports]
    rows = [[r.identity_id, len(r.residuals), r.max_residual, r.tolerance,
             int(r.passed)] for r in reports]
    _emit(args, payload,
          ["id", "n_points", "max_residual", "tolerance", "passed"], rows)
    failed = [r.identity_id for r in reports if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"all {len(reports)} identity checks passed "
          f"(seed={args.seed}, profile={args.profile})", file=sys.stderr)
    return EXIT_OK


def _lstsq_slope(pairs) -> float:
    n = len(pairs)
    sx = sum(p[0] for p in pairs)
    sy = sum(p[1] for p in pairs)
    sxx = sum(p[0] * p[0] for p in pairs)
    sxy = sum(p[0] * p[1] for p in pairs)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def _bench_order_n():
    z, tau = 2 + 1j, math.sqrt(2)
    ref = engine.log_double_gamma(
        z, tau, engine.ComputeParams(N=2 ** 14, M=12, m_cd=256)).log_value
    floor = 20 * 2.22e-16 * (1 + abs(ref))
    rows, slopes = [], {}
    for M in (2, 4, 6):
        pts = []
        for N in (32, 64, 128, 256):
            v = engine.log_double_gamma(
                z, tau, engine.ComputeParams(N=N, M=M, m_cd=256)).log_value
            err = abs(v - ref)
            rows.append([M, N, err])
            if err > floor:
                pts.append((math.log(N), math.log(err)))
        if len(pts) >= 2:
            slopes[M] = _lstsq_slope(pts)
    return rows, slopes


def _bench_order_asym():
    tau = 1 + 1j
    rows, slopes = [], {}
    zero_tail = []
    for absz in (20.0, 40.0, 80.0):
        le = engine.log_double_gamma(absz, tau).log_value
        for n_tail in (0, 2, 4, 8):
            la = engine.log_double_gamma_asymptotic(absz, tau, n_tail)
            err = abs(cmath.exp(la - le) - 1)
            rows.append([absz, n_tail, err])
            if n_tail == 0:
                zero_tail.append((math.log(absz), math.log(err)))
    slopes[0] = _lstsq_slope(zero_tail)
    return rows, slopes


def _cmd_bench(args) -> int:
    if args.mode == "order-N":
        rows, slopes = _bench_order_n()
        payload = {"rows": [{"M": m, "N": n, "error": _round17(e)}
                            for m, n, e in rows],
                   "slopes": {str(k): _round17(v) for k, v in slopes.items()}}
        csv_rows = [[m, n, e] for m, n, e in rows]
        csv_rows += [[f"slope_M{k}", "", v] for k, v in slopes.items()]
        _emit(args, payload, ["M", "N", "error"], csv_rows)
    else:
        rows, slopes = _bench_order_asym()
        payload = {"rows": [{"abs_z": a, "n_tail": n, "error": _round17(e)}
                            for a, n, e in rows],
                   "slopes": {str(k): _round17(v) for k, v in slopes.items()}}
        csv_rows = [[a, n, e] for a, n, e in rows]
        csv_rows += [[f"slope_ntail{k}", "", v] for k, v in slopes.items()]
        _emit(args, payload, ["abs_z", "n_tail", "error"], csv_rows)
    return EXIT_OK


# ------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the flags it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (identical numeric payloads)")
    common.add_argument("--out", help="write output to this path instead of stdout")
    em = argparse.ArgumentParser(add_help=False)
    em.add_argument("--m", type=int, help="Euler-Maclaurin length override")
    truncation = argparse.ArgumentParser(add_help=False, parents=[em])
    truncation.add_argument("--N", type=int, help="product truncation override")
    truncation.add_argument("--M", type=int, help="correction order override (1..16)")

    ap = argparse.ArgumentParser(
        prog="barnesg",
        description="Barnes double gamma function: evaluation, tables, exact "
                    "polynomial families, gamma modular forms, identity "
                    "verification, and convergence benchmarks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common, truncation], help="evaluate G(z;tau)")
    p.add_argument("--z", type=parse_complex, required=True)
    p.add_argument("--tau", type=parse_complex, required=True)

    p = sub.add_parser("table", parents=[common, truncation],
                       help="evaluate G on a line segment of z values")
    p.add_argument("--grid", type=_parse_grid, required=True,
                   metavar="START:STOP:COUNT")
    p.add_argument("--tau", type=parse_complex, required=True)

    p = sub.add_parser("polys", parents=[common],
                       help="emit exact polynomial coefficients")
    p.add_argument("--family", choices=("q", "P"), required=True)
    p.add_argument("--n", type=int, required=True, help="maximum index")

    p = sub.add_parser("modular-forms", parents=[common, em],
                       help="gamma modular forms at tau")
    p.add_argument("--tau", type=parse_complex, required=True)

    p = sub.add_parser("verify", parents=[common], help="run the identity suite")
    p.add_argument("--seed", type=int, default=0, help="verification seed")
    p.add_argument("--profile", choices=("default", "strict"), default="default")

    p = sub.add_parser("bench", parents=[common],
                       help="convergence-order benchmarks")
    p.add_argument("--mode", choices=("order-N", "order-asym"),
                   default="order-N")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "polys":
            return _cmd_polys(args)
        if args.command == "modular-forms":
            return _cmd_modular_forms(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "bench":
            return _cmd_bench(args)
        raise AssertionError("unreachable")
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
