"""Command-line surface: payload shapes, determinism, error codes, CSV."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dp2fp
from dp2fp.cli import main

SRC = str(Path(dp2fp.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_tau_orbit_table_row(capsys):
    code, payload = run_json(
        capsys, "tau-orbit", "--p", "5", "--N", "3", "--lambda", "1",
        "--count", "10")
    assert code == 0
    assert payload["command"] == "tau-orbit"
    assert payload["errors"] == []
    result = payload["result"]
    assert result["sequence"] == ["4", "2", "3", "1", "inf"] * 2
    assert result["period"] == 5
    assert result["cond_diag"] == ["inf", "4"]
    assert result["cond_satisfied"] == [True, True]


def test_top_level_key_order(capsys):
    code, out = run(capsys, "reduce", "--p", "5", "--value", "1/5")
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["command", "params", "result", "errors"]
    assert payload["result"]["value"] == "inf"


def test_reduce_finite(capsys):
    code, payload = run_json(capsys, "reduce", "--p", "5", "--value", "7/3")
    assert code == 0
    assert payload["result"]["value"] == "4"


def test_evolve(capsys):
    code, payload = run_json(
        capsys, "evolve", "--p", "5", "--a", "4", "--delta", "2",
        "--z0", "2", "--u0", "3", "--u1", "2", "--steps", "6")
    assert code == 0
    result = payload["result"]
    assert len(result["sequence"]) == 6
    assert result["sequence"][0] == "2"
    assert result["period"] >= 1


@pytest.mark.parametrize("argv,period", [
    (("--p", "13", "--a", "7", "--delta", "10", "--z0", "10",
      "--u0", "3", "--u1", "5", "--steps", "60"), 52),
    (("--p", "101", "--a", "91", "--delta", "36", "--z0", "53",
      "--u0", "45", "--u1", "87", "--steps", "812"), 404),
])
def test_evolve_period_hashes_finite_states_only(capsys, argv, period):
    # Hashing pairs that hold inf as states stops these searches at a
    # spurious repeat: 26 and 101.
    code, payload = run_json(capsys, "evolve", *argv)
    assert code == 0
    assert payload["result"]["period"] == period


EVOLVE_P499 = (
    "5 158 165 344 82 374 476 375 203 44 455 137 449 259 299 295 302 141 "
    "397 372 44 168 339 196 436 317 165 296 30 344 84 72 333 434 460 257 "
    "283 59 206 416").split()


@pytest.mark.parametrize("argv,params,result", [
    (("--p", "499", "--a=7/3", "--delta=-5/2", "--z0=11",
      "--u0", "3", "--u1", "5", "--steps", "40"),
     {"a": "7/3", "delta": "-5/2", "p": 499, "steps": 40, "u0": 3, "u1": 5,
      "z0": "11"},
     {"sequence": EVOLVE_P499, "period": 1996}),
    # a = delta = z0 = 0: every coefficient is an exact zero
    (("--p", "5", "--a", "0", "--delta", "0", "--z0", "0",
      "--u0", "1", "--u1", "4", "--steps", "8"),
     {"a": "0", "delta": "0", "p": 5, "steps": 8, "u0": 1, "u1": 4,
      "z0": "0"},
     {"sequence": ["4", "4", "1", "1"] * 2, "period": 4}),
])
def test_evolve_pinned_outputs(capsys, argv, params, result):
    code, payload = run_json(capsys, "evolve", *argv)
    assert code == 0
    assert payload == {"command": "evolve", "params": params,
                       "result": result, "errors": []}


# SHA-256 of the JSON output of agr-scans whose perturbation arithmetic
# covers the gcd paths and the degree bound: dP-II at p = 7 with generic a,
# a = -delta and a = delta; QRT gamma = 2 and gamma = 3 (every record a
# degree overflow) at p = 5; the Hietarinta-Viallet custom map at p = 5.
@pytest.mark.parametrize("argv,digest", [
    (("--map", "dp2", "--p", "7", "--a", "1", "--delta", "3", "--z0", "2"),
     "1104930beeb81c116dfe9eedc2e9ddf50ddeddae5a76e385f853bfcc0b0e1123"),
    (("--map", "dp2", "--p", "7", "--a=-3", "--delta", "3", "--z0", "2"),
     "9647821fe34c6a335cc3936c455b93be063dc8e7408cffe79dc19b589d6a3dae"),
    (("--map", "dp2", "--p", "7", "--a", "3", "--delta", "3", "--z0", "2"),
     "bd1cf5b1456d9bcbb014c861c5b22a60bac342057554457191368bb4896d5112"),
    (("--map", "qrt", "--p", "5", "--gamma", "2", "--a", "1"),
     "fee39bb4d688a945ddef58d1554e7c6c6a24b221dc9465d58c13cb90ea957e7f"),
    (("--map", "qrt", "--p", "5", "--gamma", "3", "--a", "1"),
     "bcbfe4ced867def143434f8a959a55c85ac85d5a00f446c8fc1c59140059aa97"),
    (("--map", "custom", "--p", "5", "--expr-x", "x + 1/x^2 - y",
      "--expr-y", "x"),
     "6385c998f10a23f7e255d406a83c4ff8728382a2b893f63eb56e4a9820a20ad7"),
])
def test_agr_scan_pinned_outputs(capsys, argv, digest):
    code, out = run(capsys, "agr-scan", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("evolve", "--p", "11", "--a=-8", "--delta", "2", "--z0", "2",
     "--u0", "1", "--u1", "6", "--steps", "30"),
    ("tau-orbit", "--p", "11", "--N", "3", "--lambda", "1"),
    ("agr-scan", "--map", "dp2", "--p", "5", "--a=-2", "--delta", "2",
     "--z0", "3"),
    ("agr-scan", "--map", "qrt", "--gamma", "3", "--p", "5", "--a", "2"),
])
def test_output_is_the_same_under_python_O(argv):
    paths = [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    outputs = [
        subprocess.run([sys.executable, *flags, "-m", "dp2fp.cli", *argv],
                       env=env, capture_output=True, check=True,
                       timeout=120).stdout
        for flags in ((), ("-O",))]
    assert json.loads(outputs[0])["errors"] == []
    assert outputs[0] == outputs[1]


def test_agr_scan_qrt_not_confined(capsys):
    code, payload = run_json(
        capsys, "agr-scan", "--map", "qrt", "--gamma", "3", "--a", "1",
        "--p", "5")
    assert code == 0   # the scan succeeded; the budget hit is data
    statuses = {r["status"] for r in payload["result"]["reports"]}
    assert statuses == {"DEGREE_OVERFLOW"}
    assert payload["result"]["has_agr"] is False


def test_agr_scan_qrt_gamma2(capsys):
    code, payload = run_json(
        capsys, "agr-scan", "--map", "qrt", "--gamma", "2", "--a", "1",
        "--p", "5")
    assert code == 0
    result = payload["result"]
    assert result["all_confined"] and result["has_agr"]
    by_y = {r["y_residue"]: r for r in result["reports"]}
    assert by_y["0"]["m"] == 8 and by_y["0"]["image_x"] == "0"
    assert by_y["1"]["m"] == 3 and by_y["1"]["image_x"] == "1"


def test_agr_scan_custom_map(capsys):
    code, payload = run_json(
        capsys, "agr-scan", "--map", "custom",
        "--expr-x", "(a*x+1)/(x^2*y)", "--expr-y", "x",
        "--param", "a=1", "--p", "5")
    assert code == 0
    confined = [r for r in payload["result"]["reports"]
                if r["status"] == "CONFINED"]
    assert confined


def test_solve_check(capsys):
    # a valid triple: u2 computed from the recurrence at n = 1
    # u_2 from the recurrence at n = 1: (4*(1/2) - 8)/(1 - 1/4) - 3 = -11
    code, payload = run_json(
        capsys, "solve-check", "--a", "-8", "--delta", "2", "--z0", "2",
        "--n0", "0", "3", "1/2", "-11")
    assert code == 0
    assert payload["result"]["residuals"] == ["0"]
    assert payload["result"]["ok"] is True
    code, payload = run_json(
        capsys, "solve-check", "--a", "-8", "--delta", "2", "--z0", "2",
        "0", "0", "0")
    assert payload["result"]["ok"] is False
    code, payload = run_json(
        capsys, "solve-check", "--a", "-8", "--delta", "2", "--z0", "2",
        "0", "1", "0")
    assert payload["result"]["skipped"] == [1]
    assert payload["result"]["residuals"] == []


def test_domain_error_payload_and_exit_code(capsys):
    code, payload = run_json(
        capsys, "tau-orbit", "--p", "5", "--N", "3", "--lambda", "5",
        "--count", "4")
    assert code == 1
    assert payload["result"] is None
    assert payload["errors"][0]["code"] == "NON_INTEGRAL_PARAMETER"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tau-orbit", "--p", "5", "--N", "3", "--lambda", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["agr-scan", "--map", "qrt", "--p", "5"])   # missing gamma/a
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["agr-scan", "--map", "qrt", "--gamma", "2", "--a", "1",
              "--p", "103"])   # above confinement.MAX_SCAN_PRIME
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    # Count options below their least value are usage errors too.
    qrt = ["agr-scan", "--map", "qrt", "--gamma", "2", "--a", "1", "--p", "5"]
    evolve = ["evolve", "--p", "5", "--a", "1", "--delta", "2", "--z0", "3",
              "--u0", "1", "--u1", "2"]
    for argv in (qrt + ["--max-steps", "0"], qrt + ["--max-steps", "-3"],
                 evolve + ["--steps", "-4"],
                 ["tau-orbit", "--p", "5", "--N", "3", "--lambda", "1",
                  "--count", "-3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= " in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(evolve + ["--steps", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err


def test_invalid_prime_is_domain_error(capsys):
    code, payload = run_json(capsys, "reduce", "--p", "9", "--value", "1")
    assert code == 1
    assert payload["errors"][0]["code"] == "INVALID_PRIME"


def test_json_output_is_deterministic(capsys):
    argv = ["tau-orbit", "--p", "7", "--N", "3", "--lambda", "1",
            "--count", "8"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_csv_orbit_format(capsys):
    code, out = run(
        capsys, "tau-orbit", "--p", "5", "--N", "3", "--lambda", "1",
        "--count", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,value"
    assert lines[1] == "1,4"
    assert lines[5] == "5,inf"


def test_csv_scan_format(capsys):
    code, out = run(
        capsys, "agr-scan", "--map", "qrt", "--gamma", "2", "--a", "1",
        "--p", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "point,y_residue,n,status,m,image_x,image_y,pole_orders"
    assert len(lines) == 4   # header + one report per companion residue


def test_out_path_writes_file(tmp_path, capsys):
    target = tmp_path / "orbit.json"
    code, out = run(
        capsys, "tau-orbit", "--p", "5", "--N", "3", "--lambda", "1",
        "--count", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["result"]["sequence"] == ["4", "2", "3", "1", "inf"]
