"""Fast tests for the benchmark's own checkers: each accepts a correct
program output and rejects a corrupted copy of it."""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from dp2fp.cli import main  # noqa: E402


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    return payload["params"], payload["result"]


def bump(text, p):
    return "0" if text == "inf" else str((int(text) + 1) % p)


def test_dp2_scan_checker(tmp_path):
    params, result = run_cli(tmp_path, "agr-scan", "--map", "dp2", "--p", "5",
                             "--a=-2", "--delta=2", "--z0=1")
    assert checks.check_dp2_scan(params, result) == []
    ms = {(r["point"], r["m"]) for r in result["reports"]}
    assert ("+1", 7) in ms  # a = -delta: the seven-step excursion occurs

    bad = copy.deepcopy(result)
    rec = next(r for r in bad["reports"] if r["m"] == 3)
    rec["image_x"] = bump(rec["image_x"], 5)
    assert checks.check_dp2_scan(params, bad)


def test_qrt_checker(tmp_path):
    params, result = run_cli(tmp_path, "agr-scan", "--map", "qrt",
                             "--gamma", "2", "--a", "2", "--p", "5")
    assert checks.check_qrt_scan(params, result) == []
    for y_res in ("0", "3"):
        bad = copy.deepcopy(result)
        rec = next(r for r in bad["reports"] if r["y_residue"] == y_res)
        rec["image_x"] = bump(rec["image_x"], 5)
        assert checks.check_qrt_scan(params, bad)

    params, result = run_cli(tmp_path, "agr-scan", "--map", "qrt",
                             "--gamma", "3", "--a", "1", "--p", "3")
    assert checks.check_qrt_scan(params, result) == []
    bad = copy.deepcopy(result)
    bad["reports"][0]["status"] = "CONFINED"
    assert checks.check_qrt_scan(params, bad)


def test_qrt_deep_lift_separates_steps():
    # gamma = 2, y = 1: the orbit passes through a pole and confines at m = 3
    orbit = checks.qrt_deep_orbit(5, 2, 1, 1, 3, checks.QRT_DEPTH)
    assert checks.INF in orbit[0] and checks.INF in orbit[1]
    assert orbit[2] == (1, 0)


def test_evolve_checker(tmp_path):
    params, result = run_cli(tmp_path, "evolve", "--p", "11", "--a", "3",
                             "--delta", "2", "--z0", "2", "--u0", "0",
                             "--u1", "3", "--steps", "120")
    assert checks.check_evolve(params, result) == []

    bad = copy.deepcopy(result)
    bad["period"] //= 2
    assert checks.check_evolve(params, bad)

    seq = result["sequence"]
    i = seq.index("inf")  # u_{i+1}; the excursion started at u_i = +-1
    c = checks.Dp2Residues(11, 3, 2, 2)
    emitted = checks.seven_case_step(c, int(seq[i - 2]), int(seq[i - 1]), i)
    assert emitted[0] is checks.INF and len(emitted) > 1
    for k in (i + 1, i - 1 + len(emitted)):  # inside, and the exit value
        bad = copy.deepcopy(result)
        bad["sequence"][k] = bump(seq[k], 11)
        assert checks.check_evolve(params, bad)


def test_cycle_finder_sees_past_the_spurious_repeat(tmp_path):
    params, result = run_cli(tmp_path, "evolve", "--p", "13", "--a", "7",
                             "--delta", "10", "--z0", "10", "--u0", "3",
                             "--u1", "5", "--steps", "60")
    seq = [checks.parse_proj(v) for v in result["sequence"]]
    assert checks.least_period(seq, 1, 13) == 52
    assert checks.least_period(seq, 1, 13, finite_states_only=False) == 26
    assert seq[0] != seq[26]
    problems = checks.check_evolve(params, result)
    if result["period"] != 52:
        assert problems and all(p.startswith(checks.FAULT) for p in problems)


def truncated(result, keep):
    bad = copy.deepcopy(result)
    del bad["sequence"][keep:]
    return bad


def test_tau_checker(tmp_path):
    params, result = run_cli(tmp_path, "tau-orbit", "--p", "5", "--N", "3",
                             "--lambda", "1")
    assert checks.check_tau_orbit(params, result) == []
    bad = copy.deepcopy(result)
    bad["period"] = 2
    assert checks.check_tau_orbit(params, bad)
    for keep in (len(result["sequence"]) - 1, 0):
        assert checks.check_tau_orbit(params, truncated(result, keep))

    params, result = run_cli(tmp_path, "tau-orbit", "--p", "13", "--N", "4",
                             "--lambda=3/2", "--count", "40")
    assert checks.check_tau_orbit(params, result) == []
    bad = copy.deepcopy(result)
    bad["period"] //= 2
    assert checks.check_tau_orbit(params, bad)
    bad = copy.deepcopy(result)
    k = next(k for k in range(1, len(bad["sequence"]) - 1)
             if "inf" not in bad["sequence"][k - 1:k + 2])
    bad["sequence"][k] = bump(bad["sequence"][k], 13)
    assert checks.check_tau_orbit(params, bad)
    for keep in (len(result["sequence"]) - 1, 0):
        assert checks.check_tau_orbit(params, truncated(result, keep))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_streams_depend_only_on_the_seed(name):
    first = next(workloads.WORKLOADS[name](3))
    again = next(workloads.WORKLOADS[name](3))
    other = next(workloads.WORKLOADS[name](4))
    assert [r.argv for r in first] == [r.argv for r in again]
    assert [r.argv for r in first] != [r.argv for r in other]
