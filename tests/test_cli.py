import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qdesk import UnitaryOperator, layout_of, serialize_unitary
from qdesk.cli import main

from oracles import kraus_dilation


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(args):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def run_subprocess(args):
    return subprocess.run([sys.executable, "-m", "qdesk", *args],
                          capture_output=True, text=False)


# ---------------------------------------------------------------------------
# happy paths


def test_measure_reports_branch_structure(tmp_path):
    cfg = write(tmp_path, "m.cfg", "experiment = measure\nstate = bell\n")
    code, out = run_cli(["measure", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    weights = {b["pointer"]: b["weight"] for b in payload["branches"]}
    assert set(weights) == {"saw_up", "saw_down"}
    assert all(abs(w - 0.5) < 1e-10 for w in weights.values())


def test_measure_sampling_counts(tmp_path):
    cfg = write(tmp_path, "m.cfg",
                "experiment = measure\nstate = up\nrounds = 25\nseed = 4\n")
    code, out = run_cli(["measure", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["sampling"]["counts"] == {"saw_up": 25, "saw_down": 0}


def test_measure_sampling_enabled_by_flags(tmp_path):
    cfg = write(tmp_path, "m.cfg", "experiment = measure\nstate = plus\n")
    code, out = run_cli(["measure", "--config", cfg, "--rounds", "30", "--seed", "9"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sampling"]["rounds"] == 30 and payload["sampling"]["seed"] == 9
    assert sum(payload["sampling"]["counts"].values()) == 30
    # rounds without any seed must be refused
    code, _ = run_cli(["measure", "--config", cfg, "--rounds", "30"])
    assert code == 2


def test_measure_seed_without_rounds_exits_2(tmp_path):
    # a seed that samples nothing would be dropped from the report
    seeded = write(tmp_path, "seeded.cfg", "experiment = measure\nstate = plus\nseed = 5\n")
    code, out = run_cli(["measure", "--config", seeded])
    assert code == 2 and out == ""
    plain = write(tmp_path, "plain.cfg", "experiment = measure\nstate = plus\n")
    code, out = run_cli(["measure", "--config", plain, "--seed", "5"])
    assert code == 2 and out == ""


def test_signal_csv_has_exact_columns(tmp_path):
    cfg = write(tmp_path, "s.cfg",
                "experiment = signal\nalice_angle = 0.0\nbob_angle = 0.0\n"
                "rounds = 8\nseed = 11\nformat = csv\n")
    code, out = run_cli(["signal", "--config", cfg])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "round,theta_a,theta_b,alice_decision,bob_outcome,seed"
    assert len(lines) == 9
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[3] in ("up", "down") and fields[4] in ("up", "down")
        assert (fields[3], fields[4]) in (("up", "down"), ("down", "up"))


def test_signal_summary_matches_exact_correlator(tmp_path):
    cfg = write(tmp_path, "s.cfg",
                "experiment = signal\nalice_angle = 0.0\nbob_angle = 0.0\n"
                "rounds = 300\nseed = 1\n")
    code, out = run_cli(["signal", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["n_uu"] == 0 and payload["counts"]["n_dd"] == 0
    assert payload["correlator_sampled"] == -1.0
    assert abs(payload["correlator_exact"] + 1.0) < 1e-10
    assert payload["seed"] == 1
    assert payload["no_signaling"]["max_tv_distance"] <= 1e-10
    for marginal in payload["no_signaling"]["distant_marginals"]:
        assert abs(marginal[0] - 0.5) < 1e-10


def test_invariant_violation_exits_4(tmp_path, monkeypatch):
    from qdesk import cli as cli_mod
    from qdesk.errors import InvariantError

    def boom(cfg):
        raise InvariantError("synthetic failure")

    monkeypatch.setattr(cli_mod, "cmd_measure", boom)
    cfg = write(tmp_path, "m.cfg", "experiment = measure\nstate = up\n")
    code, _ = run_cli(["measure", "--config", cfg])
    assert code == 4


def test_chsh_with_explicit_angles(tmp_path):
    a2 = math.pi / 2
    b1 = -math.pi / 4
    b2 = math.pi / 4
    cfg = write(tmp_path, "c.cfg",
                f"experiment = chsh\nangle_a1 = 0.0\nangle_a2 = {a2}\n"
                f"angle_b1 = {b1}\nangle_b2 = {b2}\n")
    code, out = run_cli(["chsh", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["abs_s"] - 2.0 * math.sqrt(2.0)) < 1e-9


def test_chsh_grid_search_via_cli(tmp_path):
    cfg = write(tmp_path, "c.cfg", f"experiment = chsh\ngrid_resolution = {math.pi / 24}\n")
    code, out = run_cli(["chsh", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["abs_s"] - 2.0 * math.sqrt(2.0)) < 1e-3
    assert payload["abs_s"] <= payload["tsirelson_bound"] + 1e-9


def test_ctc_solve_reports_both_conditions(tmp_path):
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario = qubit_flip\n")
    code, out = run_cli(["ctc-solve", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["linear"]["dimension"] == 1
    rho = payload["fixed_point"]["rho_ctc"]
    assert abs(rho[0][0][0] - 0.5) < 1e-10 and abs(rho[1][1][0] - 0.5) < 1e-10
    assert payload["fixed_point"]["residual"] <= 1e-10


def test_ctc_solve_ray_mode_flag_overrides(tmp_path):
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario = qubit_flip\n")
    code, out = run_cli(["ctc-solve", "--config", cfg, "--mode", "ray"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "ray"
    assert payload["linear"]["dimension"] == 2


def test_ctc_scan_via_cli(tmp_path):
    cfg = write(tmp_path, "c.cfg",
                "experiment = ctc-scan\nscenario = qubit_flip\nsamples = 500\nseed = 2\n")
    code, out = run_cli(["ctc-scan", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["fraction"] == 0.0
    assert payload["residual_min"] > 1e-3


def test_table_format_renders(tmp_path):
    cfg = write(tmp_path, "m.cfg", "experiment = measure\nstate = plus\nformat = table\n")
    code, out = run_cli(["measure", "--config", cfg])
    assert code == 0
    assert "experiment: measure" in out
    assert "saw_up" in out


def test_out_flag_writes_file(tmp_path):
    cfg = write(tmp_path, "m.cfg", "experiment = measure\nstate = up\n")
    target = tmp_path / "report.json"
    code, out = run_cli(["measure", "--config", cfg, "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["state"] == "up"


# ---------------------------------------------------------------------------
# exit codes


def test_config_error_exits_2(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "experiment = measure\nstate = sideways\n")
    code, _ = run_cli(["measure", "--config", cfg])
    assert code == 2
    missing = run_cli(["measure", "--config", str(tmp_path / "absent.cfg")])
    assert missing[0] == 2


BAD_INLINE_UNITARIES = {
    "duplicate_labels": "layout: loop=b0,b0\ndata:\n1,0 0,0\n0,0 1,0\n",
    "not_unitary": "layout: loop=b0,b1\ndata:\n1,0 1,0\n0,0 1,0\n",
}


@pytest.mark.parametrize("case", sorted(BAD_INLINE_UNITARIES))
def test_bad_inline_unitary_exits_2(tmp_path, case, capsys):
    write(tmp_path, "bad.scenario",
          "ctc_ids = loop\nunitary:\nqdesk-object: unitary\n" + BAD_INLINE_UNITARIES[case])
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario_file = bad.scenario\n")
    code, out = run_cli(["ctc-solve", "--config", cfg])
    assert code == 2 and out == ""
    assert "bad inline unitary" in capsys.readouterr().err


def test_over_coarse_chsh_grid_exits_2(tmp_path):
    cfg = write(tmp_path, "c.cfg", "experiment = chsh\ngrid_resolution = 3.0\n")
    code, out = run_cli(["chsh", "--config", cfg])
    assert code == 2 and out == ""


def test_solver_error_exits_3_with_residual(tmp_path):
    gamma = 1e-6
    a0 = np.diag([1.0, math.sqrt(1.0 - gamma)]).astype(complex)
    a1 = np.zeros((2, 2), dtype=complex)
    a1[0, 1] = math.sqrt(gamma)
    lay = layout_of(("env", ("e0", "e1")), ("loop", ("b0", "b1")))
    u = UnitaryOperator(lay, kraus_dilation([a0, a1]))
    scen = "cr_ids = env\nctc_ids = loop\nunitary:\n" + serialize_unitary(u)
    write(tmp_path, "slow.scenario", scen)
    cfg = write(tmp_path, "c.cfg",
                "experiment = ctc-solve\nscenario_file = slow.scenario\nmethod = iterate\n")
    code, out = run_cli(["ctc-solve", "--config", cfg])
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "solver did not converge"
    assert payload["residual"] > 1e-8
    # the spectral method solves the same scenario
    code, out = run_cli(["ctc-solve", "--config", write(
        tmp_path, "c2.cfg",
        "experiment = ctc-solve\nscenario_file = slow.scenario\nmethod = spectral\n")])
    assert code == 0


def test_unknown_flag_value_exits_2(tmp_path):
    cfg = write(tmp_path, "s.cfg",
                "experiment = signal\nalice_angle = 0\nbob_angle = 0\nrounds = 5\nseed = 1\n")
    code, _ = run_cli(["signal", "--config", cfg, "--rounds", "0"])
    assert code == 2


# ---------------------------------------------------------------------------
# determinism


def test_repeated_invocations_are_byte_identical(tmp_path):
    cfg = write(tmp_path, "s.cfg",
                "experiment = signal\nalice_angle = 0.3\nbob_angle = 1.1\n"
                "rounds = 50\nseed = 77\nformat = csv\n")
    first = run_subprocess(["signal", "--config", cfg])
    second = run_subprocess(["signal", "--config", cfg])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    cfg2 = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario = cr_coupled\n")
    a = run_subprocess(["ctc-solve", "--config", cfg2])
    b = run_subprocess(["ctc-solve", "--config", cfg2])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_seed_override_changes_sampling_but_stays_deterministic(tmp_path):
    cfg = write(tmp_path, "s.cfg",
                "experiment = signal\nalice_angle = 0.9\nbob_angle = 0.2\n"
                "rounds = 40\nseed = 5\nformat = csv\n")
    base = run_cli(["signal", "--config", cfg])[1]
    override_a = run_cli(["signal", "--config", cfg, "--seed", "6"])[1]
    override_b = run_cli(["signal", "--config", cfg, "--seed", "6"])[1]
    assert override_a == override_b
    assert override_a != base


# Report digests recorded before the Born selector was vectorized: sampled
# rounds must keep their exact bytes, including at seeds that need the
# 64-bit wraparound (negative, and at or above 2**63).
PINNED_BODIES = {
    "signal_csv": "experiment = signal\nalice_angle = 0.3\nbob_angle = -1.1\n"
                  "rounds = 64\nformat = csv\n",
    "signal_json": "experiment = signal\nalice_angle = 2.5\nbob_angle = 0.7\n"
                   "rounds = 500\nformat = json\n",
    "measure_bell": "experiment = measure\nstate = bell\nrounds = 300\n",
}
PINNED_DIGESTS = [
    ("signal_csv", -5, "d11f3efb7d7f04c8d260e2dc9492b666b596a5e23c5151c06d7dd8e1e1c4f4d2"),
    ("signal_csv", 2**63, "bc899ae21612e87adb3ce4885743c05fd7482b53dee6707692cd14c086781bea"),
    ("signal_csv", 2**64 - 1, "ae9edfc9848e0e84ac07841fe590f7aa47b0f1c0a6612b4bf2784a6576a45741"),
    ("signal_json", -5, "86d4e40f434edc46ae177bc55f35cdfff849238a393a76fe52fd1a59f0009d3f"),
    ("signal_json", 2**63, "019cca4889b988d68f6b4538e74dcf430b4d3316b11f3764bfc21a2e848c2cfc"),
    ("signal_json", 2**64 - 1, "686823724fdb4e86759cd50012c6ae1148e269564dc9a3ae826a80545a6b651a"),
    ("measure_bell", -5, "056edc71443dc125de2d2c2f53dec2ebdc53bcf45042962766a5d6d4ae8a6aaa"),
    ("measure_bell", 2**63, "f454cf5e453518ec9e843cae1954e707ea187a81c68043ad84c9364554a6d949"),
    ("measure_bell", 2**64 - 1, "24817cdc910c41a868072548b11d0d8510c365a88e0db7a0e11f00ef649d5f81"),
]


@pytest.mark.parametrize("case,seed,digest", PINNED_DIGESTS)
def test_sampled_reports_match_pinned_digests(tmp_path, case, seed, digest):
    cfg = write(tmp_path, "p.cfg", PINNED_BODIES[case] + f"seed = {seed}\n")
    code, out = run_cli([case.split("_")[0], "--config", cfg])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# chsh reports recorded before the local-apply kernel replaced the embedded
# 108x108 operators: exact correlators must keep their last bits.
PINNED_CHSH = {
    "optimal_angles": ("experiment = chsh\nangle_a1 = 0.0\nangle_a2 = 1.5707963267948966\n"
                       "angle_b1 = -0.7853981633974483\nangle_b2 = 0.7853981633974483\n",
                       "36b5029327be0e80748627edba2b9c6bd5787cfd5564c51d41096944e5f2d21e"),
    "generic_angles": ("experiment = chsh\nangle_a1 = -2.9\nangle_a2 = 0.31\n"
                       "angle_b1 = 1.7\nangle_b2 = -0.05\n",
                       "af2162fcffd04d218eaca96a4aea378cd8cee7f8ad45af92e2287dfa7810bf28"),
    "grid_pi_over_180": ("experiment = chsh\ngrid_resolution = 0.017453292519943295\n",
                         "4a83365ecaec2c71e2cbbf39062dc874190b12ec68a273b159dfeca7a1c62865"),
}


@pytest.mark.parametrize("case", sorted(PINNED_CHSH))
def test_chsh_reports_match_pinned_digests(tmp_path, case):
    body, digest = PINNED_CHSH[case]
    code, out = run_cli(["chsh", "--config", write(tmp_path, "c.cfg", body)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
