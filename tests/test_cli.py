import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdesk import UnitaryOperator, layout_of, serialize_unitary
from qdesk.cli import main
from qdesk.rng import SplitMix64, haar_unitary

from oracles import kraus_dilation


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(args):
    """Invoke the CLI in-process, capturing stdout."""
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
    "nan_entry": "layout: loop=b0,b1\ndata:\nnan,0 0,0\n0,0 1,0\n",
}


@pytest.mark.parametrize("case", sorted(BAD_INLINE_UNITARIES))
def test_bad_inline_unitary_exits_2(tmp_path, case, capsys):
    write(tmp_path, "bad.scenario",
          "ctc_ids = loop\nunitary:\nqdesk-object: unitary\n" + BAD_INLINE_UNITARIES[case])
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario_file = bad.scenario\n")
    code, out = run_cli(["ctc-solve", "--config", cfg])
    assert code == 2 and out == ""
    assert "bad inline unitary" in capsys.readouterr().err


def test_non_finite_inline_unitary_exits_2_without_traceback(tmp_path):
    write(tmp_path, "bad.scenario",
          "cr_ids = cr\nctc_ids = loop\nunitary:\nqdesk-object: unitary\n"
          "layout: cr=c0,c1; loop=b0,b1\ndata:\n"
          "1,0 0,0 0,0 0,0\n0,0 1,0 0,nan 0,0\n0,0 0,0 1,0 0,0\n0,0 0,0 0,0 1,0\n")
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-scan\nscenario_file = bad.scenario\n"
                "samples = 10\nseed = 1\n")
    done = run_subprocess(["ctc-scan", "--config", cfg])
    assert done.returncode == 2 and done.stdout == b""
    assert b"Traceback" not in done.stderr
    assert b"bad inline unitary: entries must be finite" in done.stderr


def test_bad_inline_unitary_names_its_file_line(tmp_path, capsys):
    write(tmp_path, "bad.scenario",
          "cr_ids = cr\nctc_ids = loop\nunitary:\nqdesk-object: unitary\n"
          "layout: cr=c0,c1; loop=b0,b1\ndata:\n"
          "1,0 0,0 0,0 0,0\n0,0 1,0 0,0 0,0\nbogus 0,0 1,0 0,0\n0,0 0,0 0,0 1,0\n")
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario_file = bad.scenario\n")
    code, out = run_cli(["ctc-solve", "--config", cfg])
    assert code == 2 and out == ""
    assert "bad inline unitary: line 9: expected 're,im', got 'bogus'" in capsys.readouterr().err


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), row=st.integers(0, 3), col=st.integers(0, 3),
       pad=st.lists(st.sampled_from(["", "  ", "# note"]), max_size=4))
def test_corrupt_inline_unitary_token_names_its_file_line(tmp_path_factory, seed, row, col, pad):
    u = UnitaryOperator(layout_of(("cr", ("c0", "c1")), ("loop", ("b0", "b1"))),
                        haar_unitary(4, SplitMix64(seed)))
    body = serialize_unitary(u).splitlines()
    lines = ["cr_ids = cr", *pad, "ctc_ids = loop", "unitary:", *pad, *body]
    bad = len(lines) - len(body) + 3 + row  # body rows follow kind, layout and data:
    tokens = lines[bad].split()
    tokens[col] = "1.0,oops"
    lines[bad] = " ".join(tokens)
    tmp = tmp_path_factory.mktemp("scenario")
    write(tmp, "bad.scenario", "\n".join(lines) + "\n")
    cfg = write(tmp, "c.cfg", "experiment = ctc-solve\nscenario_file = bad.scenario\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["ctc-solve", "--config", cfg])
    assert code == 2 and out == ""
    assert f"bad inline unitary: line {bad + 1}: bad number in '1.0,oops'" in err.getvalue()


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


def test_commands_without_schur_do_not_load_scipy(tmp_path):
    cfg = write(tmp_path, "c.cfg", "experiment = chsh\nangle_a1 = 0.0\nangle_a2 = 1.5\n"
                "angle_b1 = -0.7\nangle_b2 = 0.7\n")
    probe = ("import sys\n"
             "import qdesk.cli\n"
             "assert 'scipy' not in sys.modules, 'import qdesk.cli loaded scipy'\n"
             "assert qdesk.cli.main(['chsh', '--config', sys.argv[1]]) == 0\n"
             "assert 'scipy' not in sys.modules, 'chsh loaded scipy'\n")
    done = subprocess.run([sys.executable, "-c", probe, cfg], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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
    # the benchmark's size, recorded before the correlators were batched
    "grid_pi_over_720": ("experiment = chsh\ngrid_resolution = 0.004363323129985824\n",
                         "1702784467636803b4e6d98429ba32a1fc4d77763a4af452917913c1e2cd22bb"),
}


@pytest.mark.parametrize("case", sorted(PINNED_CHSH))
def test_chsh_reports_match_pinned_digests(tmp_path, case):
    body, digest = PINNED_CHSH[case]
    code, out = run_cli(["chsh", "--config", write(tmp_path, "c.cfg", body)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# ctc-solve reports recorded before the loop channel moved to operator-sum
# form: every canonical scenario, method, CR input and mode keeps its bytes.
PINNED_CTC_SOLVE = [
    ("qubit_flip", "iterate", "zero", "strict",
     "42249367e1fb2f3287c4fba0dc8ba6a819cd4e2a25368348a20961bb57e9dd1b"),
    ("qubit_flip", "iterate", "zero", "ray",
     "68e3e89da16b89350fc8001f1f98a914d853a452327bae2b5bc17799a33b07e2"),
    ("qubit_flip", "iterate", "one", "strict",
     "42249367e1fb2f3287c4fba0dc8ba6a819cd4e2a25368348a20961bb57e9dd1b"),
    ("qubit_flip", "iterate", "one", "ray",
     "68e3e89da16b89350fc8001f1f98a914d853a452327bae2b5bc17799a33b07e2"),
    ("qubit_flip", "iterate", "mixed", "strict",
     "42249367e1fb2f3287c4fba0dc8ba6a819cd4e2a25368348a20961bb57e9dd1b"),
    ("qubit_flip", "iterate", "mixed", "ray",
     "68e3e89da16b89350fc8001f1f98a914d853a452327bae2b5bc17799a33b07e2"),
    ("qubit_flip", "spectral", "zero", "strict",
     "15e437eade409eb27fd8ce48854c59f056b624c743945394d7fd260367ec442d"),
    ("qubit_flip", "spectral", "zero", "ray",
     "707b46c42f325489592de9e2b43eefdedf6b9f8b12cbc4eef259df0b031fed74"),
    ("qubit_flip", "spectral", "one", "strict",
     "15e437eade409eb27fd8ce48854c59f056b624c743945394d7fd260367ec442d"),
    ("qubit_flip", "spectral", "one", "ray",
     "707b46c42f325489592de9e2b43eefdedf6b9f8b12cbc4eef259df0b031fed74"),
    ("qubit_flip", "spectral", "mixed", "strict",
     "15e437eade409eb27fd8ce48854c59f056b624c743945394d7fd260367ec442d"),
    ("qubit_flip", "spectral", "mixed", "ray",
     "707b46c42f325489592de9e2b43eefdedf6b9f8b12cbc4eef259df0b031fed74"),
    ("cr_coupled", "iterate", "zero", "strict",
     "f0c92e2ab09bcedae8e7d9a664b2c7db85d2dfed347e6b4fb5b58e68028b4415"),
    ("cr_coupled", "iterate", "zero", "ray",
     "dc260b41eaccce6015e8b4ced2c3db434d673a40471e8ae4c5a11305c296245d"),
    ("cr_coupled", "iterate", "one", "strict",
     "79dc0a50cb8d1cfaefd6bb517f420f9f69da590f954b6210bbe1f7336cc7a20d"),
    ("cr_coupled", "iterate", "one", "ray",
     "deddf7826707176c95b3501ff48aabc037c96ace96842d5a428e50710ac3c29b"),
    ("cr_coupled", "iterate", "mixed", "strict",
     "ff6271bbd576a973cddee27614200f32c86555eed72f70e47d9f05afcc4a4071"),
    ("cr_coupled", "iterate", "mixed", "ray",
     "a830cd79d2ffb7dba7995ea54a202e8ecb7e4b8fa5fafb11836d702b794ae664"),
    ("cr_coupled", "spectral", "zero", "strict",
     "969fc6887f9510ba144a5c918b9dcfae07f28bdfd3bdd80c29515ec8b167fec9"),
    ("cr_coupled", "spectral", "zero", "ray",
     "2ab721fcaaae77a2c3500cdb13bac60daa65ff8057f58391409d9710b936b44a"),
    ("cr_coupled", "spectral", "one", "strict",
     "a6ec4cd37fb8281c622997caf1c8ef7bde0abb6ce050519988a732e5bd2df831"),
    ("cr_coupled", "spectral", "one", "ray",
     "3bd8b3d3c635961a110f824f51d28d9b45960e21733cbdf0296c7c23aae9eaf7"),
    ("cr_coupled", "spectral", "mixed", "strict",
     "e2912b940b4331feb4ce62617298a8416ec67aeb5047f41a2157dd27b0d9fdc0"),
    ("cr_coupled", "spectral", "mixed", "ray",
     "3c661bf9afd927c673481aff5ffb5e4ffb3fe5c88d443e193e3e5b241f90c8c8"),
]


@pytest.mark.parametrize("scenario,method,cr_state,mode,digest", PINNED_CTC_SOLVE)
def test_ctc_solve_reports_match_pinned_digests(tmp_path, scenario, method, cr_state, mode,
                                                digest):
    cfg = write(tmp_path, "c.cfg", f"experiment = ctc-solve\nscenario = {scenario}\n"
                f"method = {method}\ncr_state = {cr_state}\nmode = {mode}\n")
    code, out = run_cli(["ctc-solve", "--config", cfg])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
