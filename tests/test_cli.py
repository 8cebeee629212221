"""CLI behaviour: argument parsing, payload round-trips, exit codes."""

import builtins
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from barnesg import backend, engine
from barnesg.cli import _parse_grid, _table_json, main, parse_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ parsing

def test_parse_complex_forms():
    assert parse_complex("1.5+2i") == 1.5 + 2j
    assert parse_complex("2-0.5i") == 2 - 0.5j
    assert parse_complex("3") == 3
    assert parse_complex("1i") == 1j
    assert parse_complex("-2.5i") == -2.5j
    assert parse_complex("1e-3+2e-4i") == 1e-3 + 2e-4j
    with pytest.raises(Exception):
        parse_complex("nonsense")


# --------------------------------------------------------------------- eval

def test_eval_headline_value(capsys):
    s3 = repr(math.sqrt(3))
    code, out, _ = run_cli(capsys, "eval", "--z", s3, "--tau", s3,
                           "--N", "1000", "--M", "10", "--m", "1000")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"]["re"] - 1.4889283353650864545) < 2e-13
    assert payload["N"] == 1000 and payload["M"] == 10


def test_eval_normalization(capsys):
    code, out, _ = run_cli(capsys, "eval", "--z", "1", "--tau", "2+1i")
    assert code == 0
    payload = json.loads(out)
    assert abs(complex(payload["value"]["re"], payload["value"]["im"]) - 1) < 1e-10


def test_eval_lattice_zero_note(capsys):
    code, out, _ = run_cli(capsys, "eval", "--z", "-1", "--tau", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == {"re": 0.0, "im": 0.0}
    assert payload["log"] is None
    assert payload["note"] == "lattice zero"
    # found by the library's own zero test, before any truncation was used
    assert payload["N"] is None and payload["M"] is None


def test_eval_over_cap_zero_is_a_zero(capsys):
    # the N floor of -2e5 is over the cap, but G is 0 there
    code, out, _ = run_cli(capsys, "eval", "--z=-200000", "--tau", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == {"re": 0.0, "im": 0.0}
    assert payload["note"] == "lattice zero"


def test_eval_domain_error_exit(capsys):
    # 1e400 parses to inf
    for z, tau in (("1", "-3"), ("nan", "1"), ("1e400", "1"), ("1", "nan"),
                   ("1", "1+1e400i")):
        code, _, err = run_cli(capsys, "eval", "--z", z, "--tau", tau)
        assert code == 2, (z, tau)
        assert "error" in err


def test_eval_capacity_exit(capsys):
    # auto truncation would need N beyond the hard cap
    code, _, err = run_cli(capsys, "eval", "--z", "50000", "--tau", "0.01")
    assert code == 3
    assert "error" in err


def test_explicit_n_over_cap_exit(capsys, monkeypatch):
    # an explicit N past the cap is refused before the product is summed
    def never(*args):
        raise AssertionError("gn_sum ran before the refusal")

    monkeypatch.setattr(backend, "gn_sum", never)
    for cmd in (("eval", "--z", "1"), ("table", "--grid", "1:2:2")):
        code, _, err = run_cli(capsys, *cmd, "--tau", "1", "--N", "10000000")
        assert code == 3, cmd
        assert "exceeds" in err


def test_eval_order_override_meets_target(capsys):
    # with --M alone, N is planned for that order, so the estimate still
    # meets the target 2^-52 (1 + |z|)
    code, out, _ = run_cli(capsys, "eval", "--z", "2+1i", "--tau", "1+1i",
                           "--M", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["M"] == 4
    assert payload["err_est"] <= 2.0 ** -52 * (1 + abs(2 + 1j))
    code, _, err = run_cli(capsys, "eval", "--z", "1", "--tau", "1", "--M", "17")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [("eval", "--z", "1.5", "--tau", "1"),
                                  ("table", "--grid", "1:2:3", "--tau", "2")])
def test_explicit_n_rejects_order_zero(capsys, argv):
    # --M 0 is out of range next to --N as it is alone
    code, out, err = run_cli(capsys, *argv, "--N", "100", "--M", "0")
    assert code == 2 and "error" in err and out == ""


def test_eval_csv_json_payload_match(capsys):
    _, out_j, _ = run_cli(capsys, "eval", "--z", "1.3+0.2i", "--tau", "1.1")
    _, out_c, _ = run_cli(capsys, "eval", "--z", "1.3+0.2i", "--tau", "1.1",
                          "--format", "csv")
    pj = json.loads(out_j)
    rows = list(csv.reader(io.StringIO(out_c)))
    header, row = rows[0], rows[1]
    rec = dict(zip(header, row))
    assert float(rec["log_re"]) == pj["log"]["re"]
    assert float(rec["value_re"]) == pj["value"]["re"]
    assert float(rec["err_est"]) == pj["err_est"]
    assert int(rec["N"]) == pj["N"]


def test_eval_json_is_the_record(capsys):
    # eval prints EvalResult.to_json_dict() itself, with and without overrides
    _, out, _ = run_cli(capsys, "eval", "--z", "1.5+0.5i", "--tau", "2")
    assert json.loads(out) == engine.log_double_gamma(1.5 + 0.5j, 2).to_json_dict()
    _, out, _ = run_cli(capsys, "eval", "--z", "1.5+0.5i", "--tau", "2",
                        "--N", "300", "--M", "8", "--m", "200")
    params = engine.ComputeParams(N=300, M=8, m_cd=200)
    assert json.loads(out) == engine.log_double_gamma(
        1.5 + 0.5j, 2, params).to_json_dict()


def _csv_cells_match_json(capsys, *argv):
    # every CSV cell parses to the JSON value under its column: "x_re" is
    # record["x"]["re"], empty where x is null; other columns are keys
    _, out_j, _ = run_cli(capsys, *argv)
    _, out_c, _ = run_cli(capsys, *argv, "--format", "csv")
    records = json.loads(out_j)
    records = records if isinstance(records, list) else [records]
    rows = list(csv.reader(io.StringIO(out_c)))
    header = rows[0]
    assert len(rows) == len(records) + 1
    for record, row in zip(records, rows[1:]):
        assert len(row) == len(header)
        for column, cell in zip(header, row):
            if column in record:
                value = record[column]
            else:
                key, _, part = column.rpartition("_")
                value = None if record[key] is None else record[key][part]
            if value is None:
                assert cell == "", column
            elif isinstance(value, float):
                assert repr(float(cell)) == repr(value), column
            else:
                assert cell == str(value), column
    return records


def test_csv_cells_are_the_json_values(capsys):
    _csv_cells_match_json(capsys, "eval", "--z", "1.3+0.2i", "--tau", "1.1")
    zero = _csv_cells_match_json(capsys, "eval", "--z", "-1", "--tau", "1")
    assert zero[0]["note"] == "lattice zero"
    rows = _csv_cells_match_json(capsys, "table", "--grid=-2:-0.5:7", "--tau", "1")
    assert [r["note"] for r in rows].count("lattice zero") == 2
    _csv_cells_match_json(capsys, "modular-forms", "--tau", "1+1i", "--m", "400")


def test_module_entry_point(capsys):
    # python -m barnesg.cli prints what an in-process main prints
    argv = ["eval", "--z", "1.5+0.5i", "--tau", "2"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "barnesg.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    _, out, _ = run_cli(capsys, *argv)
    assert proc.stdout == out


def test_eval_leading_minus_equals_form(capsys):
    # values with a leading minus sign use the --opt=value form
    code, out, _ = run_cli(capsys, "eval", "--z=-0.5-0.5i", "--tau", "1+1i")
    assert code == 0
    payload = json.loads(out)
    assert payload["log"] is not None


def test_eval_seventeen_digit_round_trip(capsys):
    _, out, _ = run_cli(capsys, "eval", "--z", "1.7", "--tau", "1.3")
    payload = json.loads(out)
    v = payload["value"]["re"]
    assert float(format(v, ".17g")) == v


# -------------------------------------------------------------------- table

def test_table_grid_mechanics(capsys):
    code, out, _ = run_cli(capsys, "table", "--grid", "1:2:5", "--tau", "2")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert rows[0]["z"]["re"] == 1.0 and rows[-1]["z"]["re"] == 2.0
    zs = [r["z"]["re"] for r in rows]
    assert zs == sorted(zs)
    assert [r["index"] for r in rows] == list(range(5))


def test_table_complex_segment(capsys):
    code, out, _ = run_cli(capsys, "table", "--grid", "1:1+1i:3", "--tau", "1.5")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert rows[1]["z"]["im"] == 0.5


def test_table_order_override_meets_target(capsys):
    # the plan is made at the largest |z| of the grid, for the given order
    code, out, _ = run_cli(capsys, "table", "--grid", "0.5:3+1i:6", "--tau", "2",
                           "--M", "4")
    assert code == 0
    for row in json.loads(out):
        z = complex(row["z"]["re"], row["z"]["im"])
        assert row["err_est"] <= 2.0 ** -52 * (1 + abs(z)), row


def test_table_bad_grid_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--grid", "1:2", "--tau", "2"])
    assert exc.value.code == 2


def test_table_grid_count_capped_before_any_point(capsys, monkeypatch):
    # a count past the package's length cap is a usage error from the
    # parser, before a grid point is built or evaluated
    def never(*args):
        raise AssertionError("a grid point was evaluated")

    monkeypatch.setattr(engine, "log_double_gamma", never)
    for count in (backend._N_CAP + 1, 10 ** 9):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--grid", f"0:1:{count}", "--tau", "2"])
        assert exc.value.code == 2
        assert "capped" in capsys.readouterr().err
    assert _parse_grid(f"0:1:{backend._N_CAP}")[2] == backend._N_CAP


def test_table_without_flags_plans_nothing(capsys, monkeypatch):
    # automatic rows read log, value and err_est off the result, never
    # params_used, which would plan at every row; the one flagged table
    # plans once. Patched through the module name params_used calls
    calls = []
    original = engine.choose_params

    def counting(z, tau):
        calls.append((z, tau))
        return original(z, tau)

    monkeypatch.setattr(engine, "choose_params", counting)
    grid = ["--grid=0.5+0.1i:3.5+1.2i:40", "--tau=1.1+0.35i"]
    for fmt in ("json", "csv"):
        code, _, _ = run_cli(capsys, "table", *grid, "--format", fmt)
        assert code == 0 and calls == [], fmt
    code, _, _ = run_cli(capsys, "table", *grid, "--m", "100")
    assert code == 0 and len(calls) == 1


def _row_record(k, row):
    # the record json.dumps writes for one of _cmd_table's row tuples
    z, log, value, err, note = row
    return {"index": k, "z": {"re": z.real, "im": z.imag},
            "value": {"re": value.real, "im": value.imag},
            "log": None if log is None else {"re": log.real, "im": log.imag},
            "err_est": err, "note": note}


def test_table_json_template_is_json_dumps():
    inf, nan, tiny = math.inf, math.nan, 5e-324
    rows = [(complex(-1.0, 0.0), None, 0j, 0.0, "lattice zero"),
            (complex(inf, -inf), complex(nan, -0.0), complex(tiny, -tiny),
             inf, ""),
            (complex(-0.0, 2.5e-310), complex(1e308, -1.7976931348623157e308),
             complex(0.1, 1 / 3), nan, "\u00e9 \"q\" \\ \n"),
            (complex(1.5, 0.5), complex(2.0 ** -1074, 123456789.0),
             complex(-inf, nan), -inf, "")]
    assert _table_json(rows) == json.dumps(
        [_row_record(k, r) for k, r in enumerate(rows)], indent=2)
    assert _table_json(rows[:1]) == json.dumps([_row_record(0, rows[0])],
                                               indent=2)


def test_table_json_is_json_dumps_of_its_rows(capsys):
    # a real table, flagged or not and with lattice zeros, prints the bytes
    # of json.dumps(rows, indent=2)
    for argv in (("--grid=-2:-0.5:7", "--tau=1"),
                 ("--grid=-2:-0.5:7", "--tau=1", "--N", "40"),
                 ("--grid=0.2:40+5i:30", "--tau=1+1i")):
        code, out, _ = run_cli(capsys, "table", *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


# -------------------------------------------------------------------- polys

def test_polys_q5(capsys):
    code, out, _ = run_cli(capsys, "polys", "--family", "q", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["q5"] == ["0", "1/12", "0", "0", "1/12"]
    assert payload["q0"] == ["1"]


def test_polys_p2(capsys):
    code, out, _ = run_cli(capsys, "polys", "--family", "P", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["P2"] == [["-2", "-2"], ["1"]]


@pytest.mark.parametrize("family, n, fmt, digest", [
    ("q", "200", "json",
     "09ea604c7bdd5ba98a8256cff6d053b98edaabc686ebd1799df542b982cb4946"),
    ("q", "200", "csv",
     "482b80d2c4b00f4c5a4775e7d245b8c01626d28f7e2f78b2bc9284aab1dca94c"),
    ("P", "60", "json",
     "1771b1ee63fa427e2c942125b8a9833d6e3118215d2592b9c717620e0e550f99"),
    ("P", "60", "csv",
     "bdfb122485bd685c029113d740a95d8863178adc36e9575002728ca2267cf625"),
])
def test_polys_output_pinned(capsys, family, n, fmt, digest):
    # the whole exact output over the command's range (q to its cap), byte
    # for byte, against digests of the output of the polynomial classes that
    # the one closed-form builder replaced
    code, out, _ = run_cli(capsys, "polys", "--family", family, "--n", n,
                           "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_polys_cap(capsys):
    code, _, err = run_cli(capsys, "polys", "--family", "q", "--n", "201")
    assert code == 2
    assert "cap" in err
    # a negative maximum index is an error too, not an empty payload
    code, out, err = run_cli(capsys, "polys", "--family", "q", "--n", "-3")
    assert code == 2 and "error" in err and out == ""
    # a flag the subcommand does not read is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["polys", "--family", "q", "--n", "3", "--N", "5"])
    assert exc.value.code == 2


# ------------------------------------------------------------ modular-forms

def test_modular_forms_output(capsys):
    code, out, _ = run_cli(capsys, "modular-forms", "--tau", "1", "--m", "400")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["C"]["re"] - 0.5) < 1e-13
    assert payload["m_used"] == 400


def test_modular_forms_domain_exit(capsys):
    code, _, _ = run_cli(capsys, "modular-forms", "--tau", "-2")
    assert code == 2


def test_huge_tau_domain_exit(capsys):
    # tau^7 overflows: a usage error, not a traceback and exit 1
    for cmd in (("eval", "--z", "1.5"), ("modular-forms",)):
        code, _, err = run_cli(capsys, *cmd, "--tau", "1e200")
        assert code == 2, cmd
        assert "error" in err


def test_modular_forms_capacity_exit(capsys):
    # the default Euler-Maclaurin length 64/tau = 6.4e8 is over the cap
    code, _, err = run_cli(capsys, "modular-forms", "--tau", "1e-7")
    assert code == 3
    assert "error" in err


# ------------------------------------------------------------------- verify

def test_verify_default_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert all(item["passed"] for item in payload)
    assert "passed" in err


def test_verify_seed_determinism(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--seed", "5")
    _, out2, _ = run_cli(capsys, "verify", "--seed", "5")
    assert out1 == out2


def test_verify_csv_payload(capsys):
    _, out_j, _ = run_cli(capsys, "verify", "--seed", "0")
    _, out_c, _ = run_cli(capsys, "verify", "--seed", "0", "--format", "csv")
    pj = json.loads(out_j)
    rows = list(csv.reader(io.StringIO(out_c)))
    assert len(rows) == len(pj) + 1  # header
    for item, row in zip(pj, rows[1:]):
        assert item["id"] == row[0]
        assert float(row[2]) == item["max_residual"]


# -------------------------------------------------------------------- bench

def test_bench_order_n(capsys):
    code, out, _ = run_cli(capsys, "bench", "--mode", "order-N")
    assert code == 0
    payload = json.loads(out)
    slopes = payload["slopes"]
    assert slopes["2"] <= -2.8
    assert slopes["4"] <= -4.8
    errs = {(r["M"], r["N"]): r["error"] for r in payload["rows"]}
    assert errs[(2, 256)] < errs[(2, 32)]


def test_bench_order_asym(capsys):
    code, out, _ = run_cli(capsys, "bench", "--mode", "order-asym")
    assert code == 0
    payload = json.loads(out)
    assert -1.3 <= payload["slopes"]["0"] <= -0.7


# --------------------------------------------------------------------- misc

def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "eval", "--z", "1.5", "--tau", "2",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert "value" in payload


def test_out_path_unwritable_exit(tmp_path, capsys):
    # an --out that cannot be opened is a usage error, not a traceback and
    # exit 1 (the verification-failure code)
    target = tmp_path / "missing" / "x.json"
    for cmd in (("table", "--grid", "1:2:3", "--tau", "2"),
                ("eval", "--z", "1.5", "--tau", "2")):
        code, out, err = run_cli(capsys, *cmd, "--out", str(target))
        assert code == 2, cmd
        assert out == "" and err.startswith("error: ") and "x.json" in err
        assert not target.exists()


def _out_argv(cmd, target):
    # the --out call of _REPEATED[cmd], writing to target
    argv = next(a for a in _REPEATED[cmd] if "--out" in a)
    return [a.format(out=target) for a in argv]


def test_out_rewrites_a_longer_file_in_place(tmp_path, capsys):
    # each subcommand's text over a 100 000-byte file: the file holds the
    # bytes the same call prints, with no stale tail, and keeps its inode
    # and permission bits
    calls = [(cmd, []) for cmd in _REPEATED] + [("table", ["--format", "csv"])]
    for i, (cmd, extra) in enumerate(calls):
        # a fresh file each time: refilling one would truncate it and flush
        target = tmp_path / f"out{i}.txt"
        argv = _out_argv(cmd, str(target)) + extra
        target.write_bytes(b"x" * 100_000)
        target.chmod(0o640)
        before = target.stat()
        k = argv.index("--out")
        _, expected, _ = run_cli(capsys, *argv[:k], *argv[k + 2:])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == "", argv
        assert target.read_bytes() == expected.encode(), argv
        after = target.stat()
        assert after.st_ino == before.st_ino, argv
        assert after.st_mode == before.st_mode, argv


def test_out_creates_a_file_with_the_umask_mode(tmp_path, capsys):
    # 0o666 less the umask, as open(path, "w") gives: never executable
    target = tmp_path / "new.json"
    old = os.umask(0o027)
    try:
        code = main(_out_argv("eval", str(target)))
    finally:
        os.umask(old)
    assert code == 0
    assert target.stat().st_mode & 0o777 == 0o640


def test_out_to_targets_that_are_not_regular_files(tmp_path, capsys):
    # a character device is written but not trimmed (ftruncate on one
    # raises EINVAL); a directory is a usage error
    for cmd in ("eval", "table"):
        code, out, err = run_cli(capsys, *_out_argv(cmd, os.devnull))
        assert (code, out, err) == (0, "", ""), cmd
        code, out, err = run_cli(capsys, *_out_argv(cmd, str(tmp_path)))
        assert code == 2, cmd
        assert out == "" and err.startswith("error: "), cmd


def test_out_never_opens_its_target_truncating(tmp_path, capsys, monkeypatch):
    # the flush that a truncate-to-zero and rewrite costs on ext4 shows as a
    # count here, not as a time: no open of the target may pass O_TRUNC or
    # go through open(path, "w")
    os_opens, opens = [], []
    os_open, builtin_open = os.open, builtins.open

    def counting_os_open(path, flags, *rest, **kw):
        os_opens.append((os.fspath(path), flags))
        return os_open(path, flags, *rest, **kw)

    def counting_open(file, *rest, **kw):
        opens.append(file)
        return builtin_open(file, *rest, **kw)

    monkeypatch.setattr(os, "open", counting_os_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    for cmd in _REPEATED:
        target = str(tmp_path / f"{cmd}.txt")
        Path(target).write_text("stale\n" * 1000)
        os_opens.clear()
        opens.clear()
        assert main(_out_argv(cmd, target)) == 0, cmd
        capsys.readouterr()
        flags = [f for p, f in os_opens if p == target]
        assert len(flags) == 1, cmd
        assert flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC, cmd
        assert target not in [os.fspath(f) for f in opens
                              if not isinstance(f, int)], cmd


# one parser per process: every subcommand, per command an error, an --out
# call, the same call to stdout, a CSV call and a JSON one, in that order
_REPEATED = {
    "eval": [("eval", "--z", "1", "--tau", "-3"),
             ("eval", "--z", "50000", "--tau", "0.01"),
             ("eval", "--z", "1.5+0.5i", "--tau", "2", "--out", "{out}"),
             ("eval", "--z", "1.5+0.5i", "--tau", "2"),
             ("eval", "--z", "1.5+0.5i", "--tau", "2", "--N", "40",
              "--format", "csv"),
             ("eval", "--z", "-1", "--tau", "1")],
    "table": [("table", "--grid", "1:2", "--tau", "2"),
              ("table", "--grid", "0.5:2+1i:5", "--tau", "1+1i",
               "--out", "{out}"),
              ("table", "--grid", "0.5:2+1i:5", "--tau", "1+1i"),
              ("table", "--grid", "0.5:2+1i:5", "--tau", "1+1i", "--M", "6",
               "--format", "csv"),
              ("table", "--grid", "0.5:2+1i:5", "--tau", "1+1i", "--N", "60")],
    "polys": [("polys", "--family", "q", "--n", "-1"),
              ("polys", "--family", "P", "--n", "4", "--out", "{out}"),
              ("polys", "--family", "P", "--n", "4"),
              ("polys", "--family", "q", "--n", "6", "--format", "csv"),
              ("polys", "--family", "q", "--n", "6")],
    "modular-forms": [("modular-forms", "--tau", "1e-7"),
                      ("modular-forms", "--tau", "1+1i", "--out", "{out}"),
                      ("modular-forms", "--tau", "1+1i"),
                      ("modular-forms", "--tau", "1+1i", "--m", "80",
                       "--format", "csv"),
                      ("modular-forms", "--tau", "1+1i", "--m", "80")],
    "verify": [("verify", "--profile", "lax"),
               ("verify", "--seed", "3", "--out", "{out}"),
               ("verify", "--seed", "3"),
               ("verify", "--seed", "3", "--format", "csv"),
               ("verify", "--seed", "4")],
    "bench": [("bench", "--mode", "order-M"),
              ("bench", "--mode", "order-asym", "--out", "{out}"),
              ("bench", "--mode", "order-asym"),
              ("bench", "--mode", "order-asym", "--format", "csv"),
              ("bench", "--mode", "order-asym")],
}


def _call(capsys, out_path, argv):
    # (exit code, stdout, stderr, the --out file's text); the file is
    # removed, so a later call that wrote it again would show
    argv = [a.format(out=out_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    text = None
    if os.path.exists(out_path):
        text = Path(out_path).read_text()
        os.remove(out_path)
    return code, out, err, text


def test_cached_parser_leaks_no_state_between_calls(tmp_path, capsys):
    # every subcommand twice through one process's main, the second pass
    # interleaved across commands and in reverse: each call must print the
    # bytes of its first
    out_path = str(tmp_path / "out.txt")
    calls = [(cmd, i, argv) for cmd, argvs in _REPEATED.items()
             for i, argv in enumerate(argvs)]
    first = {(cmd, i): _call(capsys, out_path, argv) for cmd, i, argv in calls}
    for cmd, i, argv in reversed(calls):
        assert _call(capsys, out_path, argv) == first[cmd, i], argv
    for cmd, argvs in _REPEATED.items():
        results = [first[cmd, i] for i in range(len(argvs))]
        assert results[0][0] in (2, 3) and results[0][3] is None, cmd
        k = next(i for i, a in enumerate(argvs) if "--out" in a)
        code, out, _, text = results[k]
        # --out wrote the file and printed nothing; the same call after it
        # printed those bytes to stdout and wrote no file
        assert code == 0 and out == "" and text, cmd
        assert results[k + 1][0] == 0 and results[k + 1][1] == text
        assert results[k + 1][3] is None
        # the CSV call, then a JSON one: the format does not carry over
        code, out, _, _ = results[k + 2]
        assert code == 0 and out.split("\n", 1)[0].count(",") >= 2, cmd
        code, out, _, _ = results[k + 3]
        assert code == 0 and json.loads(out), cmd
    # the eval error before the successes raised at both exit codes
    assert [first["eval", i][0] for i in range(2)] == [2, 3]
