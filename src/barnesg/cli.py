"""Command-line front end.

Subcommands: eval, table, polys, modular-forms, verify, bench.
Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(an --out path that cannot be written too), 3 capacity or non-convergence.

eval and modular-forms print their record's own to_json_dict(). table
prints one row per grid point, built from the EvalResult's log, value and
error estimate: with no --N, --M or --m each row is the automatic
evaluation, as eval's, and with any of them every row runs the one plan
made at the grid's largest |z|. Its JSON comes from a fixed row template
with the bytes of json.dumps(rows, indent=2). Under --format csv alone,
the CSV rows of eval and modular-forms are read off their JSON records
through the headers, and table's off the same rows as its JSON. JSON
prints each float as its shortest round-trip repr and CSV with 17
significant digits; both read back bit-exactly at binary64. main builds the
argument parser once per process.

--out rewrites its file in place: it opens the path without O_TRUNC
(creating it with mode 0o666 less the umask, as open(path, "w") would),
writes the text and, when the target is a regular file, trims it to the
new length, so an existing file keeps its inode, hard links and mode. The
write is not atomic, as it was not before: a reader can see a partly
written file. Why not open(path, "w"): on ext4 without noauto_da_alloc,
truncating a file to zero and writing it again makes close() flush it to
disk, and so does renaming a temporary file over it. On an ext4 root on a
virtual disk (2-CPU x86-64, CPython 3.11), rewriting a 60 KB file took a
median 45-56 ms either way and about 10 us in place, and a table op of 100 rows fell from a median
of about 110 ms to 4.6 ms.
"""

from __future__ import annotations

import argparse
import cmath
import io
import json
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii

from . import backend, engine, identities, modular, polys
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


def _emit(args, payload, csv_header, csv_rows) -> None:
    """Write either the JSON payload or the equivalent CSV rows; csv_rows
    is a function returning the rows, called only under --format csv."""
    if args.format == "json":
        _write(args, json.dumps(payload, indent=2))
    else:
        _write(args, _csv_text(csv_header, csv_rows()))


def _csv_text(header, rows) -> str:
    import csv  # only here: the JSON path never loads it
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([format(v, ".17g") if isinstance(v, float) else v
                    for v in row])
    return buf.getvalue().rstrip("\n")


def _write(args, text: str) -> None:
    if not args.out:
        print(text)
        return
    # in place, without O_TRUNC: see the module docstring for why
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "w") as fh:
        fh.write(text + "\n")
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _csv_rows(header, records) -> list:
    # column "x_re" is record["x"]["re"] and a null x gives an empty cell;
    # every other column is a key of the record
    def cell(record, column):
        if column in record:
            return record[column]
        key, _, part = column.rpartition("_")
        return "" if record[key] is None else record[key][part]
    return [[cell(r, c) for c in header] for r in records]


def _params_from_args(z, tau, args) -> engine.ComputeParams | None:
    # None with no truncation flag: the library then picks the truncations
    if (args.N, args.M, args.m) == (None, None, None):
        return None
    if args.N is not None:
        return engine.ComputeParams(
            N=args.N, M=12 if args.M is None else args.M, m_cd=args.m)
    if args.M is None:
        params = engine.choose_params(z, tau)
    elif 1 <= args.M <= 16:
        # N planned for the given order, not for the one choose_params picks
        params = engine._plan(z, tau, (args.M,))
    else:
        raise DomainError("M must be in 1..16")
    if args.m is not None:
        params = engine.ComputeParams(params.N, params.M, args.m)
    return params


# ---------------------------------------------------------------- commands

def _cmd_eval(args) -> int:
    z, tau = args.z, args.tau
    # with no override the library picks the truncations, so a zero it finds
    # without summing reports N and M as null
    params = _params_from_args(z, tau, args)
    header = ["log_re", "log_im", "value_re", "value_im", "err_est", "N", "M"]
    try:
        record = engine.log_double_gamma(z, tau, params).to_json_dict()
    except LatticeZeroError:
        N, M = (None, None) if params is None else (params.N, params.M)
        # the record of G = 0, in the key order of EvalResult.to_json_dict
        record = {"log": None, "value": {"re": 0.0, "im": 0.0}, "err_est": 0.0,
                  "N": N, "M": M, "note": "lattice zero"}
        header.append("note")
    _emit(args, record, header, lambda: _csv_rows(header, [record]))
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
    if count > backend._N_CAP:
        # refused before a point is built, as every length past the cap is
        raise argparse.ArgumentTypeError(
            f"grid count is capped at {backend._N_CAP}")
    return start, stop, count


# one row of table's JSON as json.dumps(rows, indent=2) spells it, and the
# {"re", "im"} pair of a complex at the depth of a row's keys
_ROW = """  {
    "index": %d,
    "z": %s,
    "value": %s,
    "log": %s,
    "err_est": %s,
    "note": %s
  }"""
_PAIR = """{
      "re": %s,
      "im": %s
    }"""
# json's spelling of the floats that float.__repr__ spells otherwise
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    s = float.__repr__(x)
    return _NON_FINITE.get(s, s)


def _json_pair(w: complex) -> str:
    return _PAIR % (_json_float(w.real), _json_float(w.imag))


def _table_json(rows) -> str:
    """json.dumps(rows, indent=2) of the rows' records, byte for byte, from
    the (z, log, value, err_est, note) tuples of _cmd_table. indent turns
    json's C encoder off, and its pure-Python one walks every row's dicts;
    the template spells each value as json does and nothing else."""
    return "[\n" + ",\n".join([
        _ROW % (k, _json_pair(z), _json_pair(value),
                "null" if log is None else _json_pair(log),
                _json_float(err), encode_basestring_ascii(note))
        for k, (z, log, value, err, note) in enumerate(rows)]) + "\n]"


def _cmd_table(args) -> int:
    start, stop, count = args.grid
    tau = args.tau
    zs = [start] if count == 1 else [
        start + (stop - start) * (k / (count - 1)) for k in range(count)]
    # as in eval: with no override each row is the automatic evaluation,
    # which plans nothing; a truncation flag runs one explicit plan, made
    # at the grid's largest |z|. Rows read the result's fields, not
    # to_json_dict, which would make the automatic plan at every row
    params = _params_from_args(max(zs, key=abs), tau, args)
    rows = []
    for z in zs:
        try:
            r = engine.log_double_gamma(z, tau, params)
            rows.append((z, r.log_value, r.value, r.error_estimate, ""))
        except LatticeZeroError:
            rows.append((z, None, 0j, 0.0, "lattice zero"))
    if args.format == "json":
        _write(args, _table_json(rows))
    else:
        header = ["index", "z_re", "z_im", "value_re", "value_im",
                  "log_re", "log_im", "err_est", "note"]
        _write(args, _csv_text(header, [
            [k, z.real, z.imag, value.real, value.imag,
             *(("", "") if log is None else (log.real, log.imag)), err, note]
            for k, (z, log, value, err, note) in enumerate(rows)]))
    return EXIT_OK


def _cmd_polys(args) -> int:
    if args.n < 0:
        raise DomainError("n must be >= 0")
    if args.n > 200:
        raise DomainError("n is capped at 200 (coefficients grow combinatorially)")
    if args.family == "q":
        payload = {f"q{n}": [str(c) for c in polys.q_poly(n)]
                   for n in range(args.n + 1)}
        header = ["name", "power", "coefficient"]

        def rows():
            return [[name, k, c] for name, strs in payload.items()
                    for k, c in enumerate(strs)]
    else:
        payload = {f"P{n}": [[str(c) for c in row] for row in polys.p_poly(n)]
                   for n in range(1, args.n + 1)}
        header = ["name", "z_power", "tau_power", "coefficient"]

        def rows():
            return [[name, zp, k, c] for name, strs in payload.items()
                    for zp, taus in enumerate(strs) for k, c in enumerate(taus)]
    _emit(args, payload, header, rows)
    return EXIT_OK


def _cmd_modular_forms(args) -> int:
    record = modular.modular_forms_em(args.tau, args.m).to_json_dict()
    header = [f"{key}_{part}"
              for key in ("tau", "C", "D", "a", "b", "a_tilde", "b_tilde")
              for part in ("re", "im")] + ["m_used", "error_estimate"]
    _emit(args, record, header, lambda: _csv_rows(header, [record]))
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = identities.run_suite(args.seed, args.profile)
    payload = [r.to_json_dict() for r in reports]
    _emit(args, payload,
          ["id", "n_points", "max_residual", "tolerance", "passed"],
          lambda: [[r.identity_id, len(r.residuals), r.max_residual,
                    r.tolerance, int(r.passed)] for r in reports])
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
        # the product at the automatic plan: the automatic route may itself
        # be the expansion
        le = engine.log_double_gamma(
            absz, tau, engine.choose_params(absz, tau)).log_value
        for n_tail in (0, 2, 4, 8):
            la = engine.log_double_gamma_asymptotic(absz, tau, n_tail)
            err = abs(cmath.exp(la - le) - 1)
            rows.append([absz, n_tail, err])
            if n_tail == 0:
                zero_tail.append((math.log(absz), math.log(err)))
    slopes[0] = _lstsq_slope(zero_tail)
    return rows, slopes


# mode: (runner, the two columns beside "error", the slope rows' label)
_BENCH_MODES = {"order-N": (_bench_order_n, ("M", "N"), "slope_M"),
                "order-asym": (_bench_order_asym, ("abs_z", "n_tail"), "slope_ntail")}


def _cmd_bench(args) -> int:
    run, (kx, ky), label = _BENCH_MODES[args.mode]
    rows, slopes = run()
    payload = {"rows": [{kx: x, ky: y, "error": e} for x, y, e in rows],
               "slopes": {str(k): v for k, v in slopes.items()}}
    _emit(args, payload, [kx, ky, "error"],
          lambda: rows + [[f"{label}{k}", "", v] for k, v in slopes.items()])
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
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("table", parents=[common, truncation],
                       help="evaluate G on a line segment of z values")
    p.add_argument("--grid", type=_parse_grid, required=True,
                   metavar="START:STOP:COUNT")
    p.add_argument("--tau", type=parse_complex, required=True)
    p.set_defaults(run=_cmd_table)

    p = sub.add_parser("polys", parents=[common],
                       help="emit exact polynomial coefficients")
    p.add_argument("--family", choices=("q", "P"), required=True)
    p.add_argument("--n", type=int, required=True, help="maximum index")
    p.set_defaults(run=_cmd_polys)

    p = sub.add_parser("modular-forms", parents=[common, em],
                       help="gamma modular forms at tau")
    p.add_argument("--tau", type=parse_complex, required=True)
    p.set_defaults(run=_cmd_modular_forms)

    p = sub.add_parser("verify", parents=[common], help="run the identity suite")
    p.add_argument("--seed", type=int, default=0, help="verification seed")
    p.add_argument("--profile", choices=("default", "strict"), default="default")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("bench", parents=[common],
                       help="convergence-order benchmarks")
    p.add_argument("--mode", choices=tuple(_BENCH_MODES), default="order-N")
    p.set_defaults(run=_cmd_bench)
    return ap


# built by the first main call and reused: parse_args leaves a parser as it
# found it, so every call reads only its own argv
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.run(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:  # an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
