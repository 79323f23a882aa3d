"""Command-line surface: payload shapes, determinism, error codes, CSV."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dp2fp
from dp2fp import cli
from dp2fp.cli import main

SRC = str(Path(dp2fp.__file__).resolve().parents[1])
# The environment of a fresh interpreter that imports this checkout.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


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


def test_evolve_reduces_seeds_mod_p(capsys):
    base = ["evolve", "--p", "5", "--a", "4", "--delta", "2", "--z0", "2",
            "--steps", "30"]
    _, reduced = run_json(capsys, *base, "--u0", "2", "--u1", "2")
    for u0, u1 in ((7, 2), (-3, 7)):
        code, payload = run_json(capsys, *base, "--u0", str(u0),
                                 "--u1", str(u1))
        assert code == 0
        assert (payload["params"]["u0"], payload["params"]["u1"]) == (u0, u1)
        payload["params"] = reduced["params"]
        assert payload == reduced


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
# degree overflow) at p = 5; the Hietarinta-Viallet custom map at p = 5;
# the three dP-II scan kinds of the dp2-scan benchmark at p = 13; dP-II
# typed as a custom map at p = 5, an ambiguous scan whose records the
# certificate refuses; dP-II at p = 5 with a + delta = 0 mod p but
# a != -delta; and QRT gamma = 4 at p = 7.
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
    (("--map", "dp2", "--p", "13", "--a=5", "--delta=3", "--z0=2"),
     "1e81dbd8d2556cde2243c5e12fb1a90243cea8969d89df3d089dd42b1fa946c4"),
    (("--map", "dp2", "--p", "13", "--a=-3", "--delta=3", "--z0=2"),
     "ed7adde4fe63c99688fce286b7fb6779183cb26cb2a479f2556eec3f3d1caf21"),
    (("--map", "dp2", "--p", "13", "--a=3", "--delta=3", "--z0=2"),
     "2674bdfc46e3cb610d99937effe38351ad37e604385347accada3d0a1726fb80"),
    (("--map", "custom", "--p", "5", "--expr-x", "((2*n+3)*x+1)/(1-x^2)-y",
      "--expr-y", "x"),
     "c6d2006d64c9a7d11fa271fa39e19872b743664841ecbba080cc204894faefc3"),
    (("--map", "dp2", "--p", "5", "--a=2", "--delta=3", "--z0=1"),
     "5cce3c0806cd22bf4b1a0531d1f270a2c740e7a50db89c5e176da4e2ee56a9a7"),
    (("--map", "qrt", "--p", "7", "--gamma", "4", "--a", "1"),
     "1f7bdef6d536f941f1694d13ea37f10c9d5be1e923a6902d80a1eeac04166c52"),
])
def test_agr_scan_pinned_outputs(capsys, argv, digest):
    code, out = run(capsys, "agr-scan", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# dP-II scans with p | a that read ambiguous only because one sample lift
# hit an exact singularity.  The certificate decides them, and their
# records are unchanged: the SHA-256 of json.dumps of the `reports` list
# was taken before the certificate existed.
@pytest.mark.parametrize("p,a,delta,z0,digest", [
    (3, 3, 1, -4,
     "865d6a1fe54558315040f100811d1d6a76128bd1dfbcbbeb720313172820797a"),
    (3, 6, 4, -5,
     "828c23edbf4c37e2fe2034006d77e6642980ecd4a92be60b59915fcde162ad56"),
    (5, 5, 3, 2,
     "dddd116f9a370ee8112b3607780a20401de712f614e022adca2ceec7d3afbd77"),
    (7, 7, 5, 4,
     "a8890b8a9f28b8538fd09ce06097ffd523e34419d48464dd2a2570f1c9e9e7a7"),
])
def test_p_divides_a_scans_have_agr(capsys, p, a, delta, z0, digest):
    code, payload = run_json(capsys, "agr-scan", "--map", "dp2", "--p", str(p),
                             f"--a={a}", f"--delta={delta}", f"--z0={z0}")
    assert code == 0
    result = payload["result"]
    assert result["ambiguous"] is False
    assert result["has_agr"] is True
    reports = json.dumps(result["reports"]).encode()
    assert hashlib.sha256(reports).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("evolve", "--p", "11", "--a=-8", "--delta", "2", "--z0", "2",
     "--u0", "1", "--u1", "6", "--steps", "30"),
    ("tau-orbit", "--p", "11", "--N", "3", "--lambda", "1"),
    ("agr-scan", "--map", "dp2", "--p", "5", "--a=-2", "--delta", "2",
     "--z0", "3"),
    ("agr-scan", "--map", "qrt", "--gamma", "3", "--p", "5", "--a", "2"),
])
def test_output_is_the_same_under_python_O(argv):
    outputs = [
        subprocess.run([sys.executable, *flags, "-m", "dp2fp.cli", *argv],
                       env=ENV, capture_output=True, check=True,
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
        main(["evolve", "--p", "65537", "--a", "1", "--delta", "2",
              "--z0", "3", "--u0", "1", "--u1", "2"])   # above MAX_EVOLVE_PRIME
    assert exc.value.code == 2
    assert "evolve is guarded to p <= 65536" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--p", "5", "--a", "1", "--delta", "2", "--z0", "3",
              "--u0", "1", "--u1", "2", "--steps", "1000001"])
    assert exc.value.code == 2   # above MAX_EVOLVE_STEPS
    assert "evolve is guarded to --steps <= 1000000" in capsys.readouterr().err
    tau_orbit = ["tau-orbit", "--lambda", "1"]
    for argv, message in (
            (["--p", "65537", "--N", "3"], "p <= 65536"),   # MAX_EVOLVE_PRIME
            (["--p", "5", "--N", "3", "--count", "131073"],
             "--count <= 131072"),                          # 2 * that prime
            (["--p", "5", "--N", "17"], "--N <= 16")):      # MAX_TAU_N
        with pytest.raises(SystemExit) as exc:
            main(tau_orbit + argv)
        assert exc.value.code == 2
        assert ("tau-orbit is guarded to " + message
                in capsys.readouterr().err)
    assert main(tau_orbit + ["--p", "5", "--N", "16", "--count", "2"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["tau-orbit", "--p", "5", "--N", "3", "--lambda", "0"])
    assert exc.value.code == 2
    assert ("tau-orbit needs a nonzero --lambda"
            in capsys.readouterr().err)
    with pytest.raises(SystemExit) as exc:
        main(["agr-scan", "--map", "custom", "--expr-x", "1/x", "--expr-y",
              "x", "--p", "5", "--max-steps", "1001"])   # above MAX_SCAN_STEPS
    assert exc.value.code == 2
    assert ("agr-scan is guarded to --max-steps <= 1000"
            in capsys.readouterr().err)
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
                  "--count", "-3"],
                 tau_orbit + ["--p", "5", "--N", "0"],
                 tau_orbit + ["--p", "5", "--N", "-2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= " in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(evolve + ["--steps", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err


# A usage error, then a scan and an orbit: the parser ``main`` keeps for
# the process must answer each as a parser built for that call alone.
PARSER_SEQUENCE = [
    ("agr-scan", "--map", "dp2", "--p", "7", "--a", "1"),
    ("agr-scan", "--map", "dp2", "--p", "7", "--a", "1", "--delta", "3",
     "--z0", "2"),
    ("evolve", "--p", "5", "--a", "4", "--delta", "2", "--z0", "2",
     "--u0", "3", "--u1", "2", "--steps", "6"),
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(capsys, monkeypatch):
    cli._parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in PARSER_SEQUENCE]
    assert cli._parser.cache_info().misses == 1
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = [_outcome(capsys, argv) for argv in PARSER_SEQUENCE]
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert "--delta" in shared[0][2]
    assert shared == fresh
    assert cli.build_parser() is not cli.build_parser()


def test_parser_is_not_built_at_import():
    out = subprocess.run(
        [sys.executable, "-c",
         "import dp2fp.cli as c; print(c._parser.cache_info().currsize)"],
        env=ENV, capture_output=True, check=True, text=True, timeout=60)
    assert out.stdout == "0\n"


# Prints the dp2fp modules, and csv if loaded, after ``import dp2fp.cli``
# and one request with the given arguments (none: no request).
LOADED_PROBE = """
import os, sys
from dp2fp import cli
if sys.argv[1:] and cli.main(sys.argv[1:] + ["--out", os.devnull]) != 0:
    sys.exit("the request failed")
print(*sorted(m for m in sys.modules if m.startswith("dp2fp") or m == "csv"))
"""

FRONT_END = {"dp2fp", "dp2fp.cli", "dp2fp.errors", "dp2fp.padic"}
SCAN = {"confinement", "maps", "epsfield"}
ORBIT = {"maps", "epsfield", "fpdynamics"}


@pytest.mark.parametrize("argv, loads", [
    ((), set()),
    (("reduce", "--p", "5", "--value", "1/5"), set()),
    (("reduce", "--p", "5", "--value", "1/5", "--format", "csv"), {"csv"}),
    (("solve-check", "--a=-8", "--delta", "2", "--z0", "2", "3", "1/2",
      "-11"), {"maps", "epsfield"}),
    (("agr-scan", "--map", "dp2", "--p", "5", "--a", "4", "--delta", "2",
      "--z0", "2"), SCAN),
    (("agr-scan", "--map", "qrt", "--gamma", "2", "--a", "1", "--p", "5"),
     SCAN),
    (("agr-scan", "--map", "custom", "--expr-x", "1/x", "--expr-y", "x",
      "--p", "5"), SCAN | {"mapexpr"}),
    (("evolve", "--p", "5", "--a", "4", "--delta", "2", "--z0", "2",
      "--u0", "3", "--u1", "2"), ORBIT),
    (("tau-orbit", "--p", "5", "--N", "3", "--lambda", "1"),
     ORBIT | {"tau"}),
    (("tau-orbit", "--p", "5", "--N", "3", "--lambda", "1", "--format",
      "csv"), ORBIT | {"tau", "csv"}),
])
def test_each_command_loads_only_its_modules(argv, loads):
    out = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *argv], env=ENV,
        capture_output=True, check=True, text=True, timeout=60)
    expected = FRONT_END | {m if m == "csv" else "dp2fp." + m for m in loads}
    assert set(out.stdout.split()) == expected


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
