"""CLI behaviour: argument parsing, payload round-trips, exit codes."""

import csv
import io
import json
import math

import pytest

from barnesg.cli import main, parse_complex


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


def test_table_bad_grid_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--grid", "1:2", "--tau", "2"])
    assert exc.value.code == 2


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


def test_polys_cap(capsys):
    code, _, err = run_cli(capsys, "polys", "--family", "q", "--n", "201")
    assert code == 2
    assert "cap" in err
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
