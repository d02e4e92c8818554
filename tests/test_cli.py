import argparse
import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from qdesk import SolverError, UnitaryOperator, grandfather_scenario, layout_of, serialize_unitary
import qdesk.cli
import qdesk.ctc
from qdesk.cli import _build_parser, main
from qdesk.reports import CSV_BLOCK_ROWS as BLOCK

from oracles import SplitMix64, amplitude_damping, haar_unitary, kraus_dilation, render_signal_csv
from pinned_inputs import GENERIC_SCENARIOS, generic_solve_config, write
from test_bench_manifest import generate, manifest, mismatch, recorded_under


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


@pytest.mark.parametrize("rounds", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_signal_csv_blocks_join_to_the_one_piece_report(tmp_path, rounds):
    from qdesk.suggestion import session_records

    cfg = write(tmp_path, "s.cfg", "experiment = signal\nalice_angle = 0.3\nbob_angle = -1.1\n"
                f"rounds = {rounds}\nseed = 2\nformat = csv\n")
    code, out = run_cli(["signal", "--config", cfg])
    assert code == 0
    assert out == render_signal_csv(session_records(rounds, 0.3, -1.1, 2))
    target = tmp_path / "s.csv"
    assert run_cli(["signal", "--config", cfg, "--out", str(target)]) == (0, "")
    assert target.read_bytes() == out.encode("utf-8")


def test_completed_time_covers_csv_rendering(tmp_path, monkeypatch, capsys):
    from qdesk import cli as cli_mod

    render = cli_mod.render_signal_csv

    def slow_render(*args):
        time.sleep(0.05)
        return render(*args)

    monkeypatch.setattr(cli_mod, "render_signal_csv", slow_render)
    cfg = write(tmp_path, "s.cfg", "experiment = signal\nalice_angle = 0.3\nbob_angle = 1.2\n"
                f"rounds = {2 * BLOCK + 1}\nseed = 1\nformat = csv\n")
    assert main(["signal", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert "completed" not in out
    timing = re.fullmatch(r"completed in (\d+\.\d{3}) s\n", err)
    assert timing is not None and float(timing.group(1)) >= 0.15  # three blocks


# Runs one command to /dev/null, then reports the process's own peak RSS. ru_maxrss
# from wait4 would not do: subprocess starts a child with vfork, so the child's
# ru_maxrss counts the peak of the image it replaced, the pytest process's own.
PEAK_PROBE = """
import sys
from qdesk.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    sys.stderr.write(next(line for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def own_peak_mb(tmp_path, kind, body):
    """VmHWM in MB of a child that runs `qdesk kind` on a config of body."""
    cfg = write(tmp_path, f"{kind}.cfg", f"experiment = {kind}\n{body}")
    done = subprocess.run([sys.executable, "-c", PEAK_PROBE, kind, "--config", cfg],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stderr
    return int(re.search(r"^VmHWM:\s+(\d+) kB$", done.stderr, re.M).group(1)) / 1024.0


SESSION_BODIES = {
    "signal-csv": ("signal", "alice_angle = 0.3\nbob_angle = -1.1\nseed = 7\nformat = csv\n"),
    "signal-json": ("signal", "alice_angle = 0.3\nbob_angle = -1.1\nseed = 7\nformat = json\n"),
    "measure": ("measure", "state = bell\nseed = 7\n"),
}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_signal_csv_peaks_near_the_json_report(tmp_path):
    # a CSV session holds one block of rounds at a time, not its 32 MB of report text
    peaks = {fmt: own_peak_mb(tmp_path, "signal", SESSION_BODIES[f"signal-{fmt}"][1]
                              + "rounds = 400000\n")
             for fmt in ("csv", "json")}
    assert peaks["csv"] <= peaks["json"] + 16.0, peaks


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("session", sorted(SESSION_BODIES))
def test_session_peak_does_not_grow_with_its_rounds(tmp_path, session):
    kind, body = SESSION_BODIES[session]
    small, large = (own_peak_mb(tmp_path, kind, body + f"rounds = {n}\n")
                    for n in (40_000, 2_000_000))
    assert large <= small + 3.0, (small, large)


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

    def boom(**args):
        raise InvariantError("synthetic failure")

    monkeypatch.setattr(cli_mod, "cmd_measure", boom)
    cfg = write(tmp_path, "m.cfg", "experiment = measure\nstate = up\n")
    code, _ = run_cli(["measure", "--config", cfg])
    assert code == 4


def test_signaling_audit_above_tolerance_exits_4(tmp_path, monkeypatch):
    from qdesk import suggestion

    exact = suggestion._decided_weights  # the kernel every checked quantity reads

    def signaling(alice_thetas, bob_thetas, pair_state=None):
        # every row after the first moves 1e-9 of Bob's weight from down to up
        rows = exact(alice_thetas, bob_thetas, pair_state)
        return rows[:1] + [(uu + 1e-9, ud - 1e-9, du, dd) for uu, ud, du, dd in rows[1:]]

    monkeypatch.setattr(suggestion, "_decided_weights", signaling)
    cfg = write(tmp_path, "s.cfg", "experiment = signal\nalice_angle = 0.3\nbob_angle = 1.2\n"
                "rounds = 10\nseed = 1\n")
    code, out = run_cli(["signal", "--config", cfg])
    assert code == 4 and out == ""


def test_csv_session_failing_its_audit_writes_nothing(tmp_path, monkeypatch):
    # sampling and the audit finish before the first block is written
    from qdesk import suggestion
    from qdesk.errors import InvariantError

    def leaky(*args, **kwargs):
        raise InvariantError("synthetic leak")

    monkeypatch.setattr(suggestion, "no_signaling_audit", leaky)
    cfg = write(tmp_path, "s.cfg", "experiment = signal\nalice_angle = 0.3\nbob_angle = 1.2\n"
                f"rounds = {BLOCK + 1}\nseed = 1\nformat = csv\n")
    target = tmp_path / "s.csv"
    assert run_cli(["signal", "--config", cfg]) == (4, "")
    assert run_cli(["signal", "--config", cfg, "--out", str(target)]) == (4, "")
    assert not target.exists()


def test_csv_session_failing_its_correlator_check_writes_nothing(tmp_path, monkeypatch):
    # the exact correlator's range check runs before the first of the three blocks is written
    from qdesk import suggestion

    exact = suggestion._decided_weights  # the kernel every checked quantity reads

    def doubled(*args, **kwargs):
        # E(0, 0) = -2; the audit's marginals stay equal
        return [tuple(2.0 * w for w in row) for row in exact(*args, **kwargs)]

    monkeypatch.setattr(suggestion, "_decided_weights", doubled)
    cfg = write(tmp_path, "s.cfg", "experiment = signal\nalice_angle = 0.0\nbob_angle = 0.0\n"
                f"rounds = {2 * BLOCK + 1}\nseed = 1\nformat = csv\n")
    target = tmp_path / "s.csv"
    assert run_cli(["signal", "--config", cfg]) == (4, "")
    assert run_cli(["signal", "--config", cfg, "--out", str(target)]) == (4, "")
    assert not target.exists()


def test_signal_report_at_aligned_zero_angles_prints_an_exact_correlator(tmp_path):
    from qdesk.reports import render_json

    cfg = write(tmp_path, "s.cfg", "experiment = signal\nalice_angle = 0.0\nbob_angle = 0.0\n"
                "rounds = 100\nseed = 3\nformat = json\n")
    code, out = run_cli(["signal", "--config", cfg])
    assert code == 0
    assert f'"correlator_exact": {render_json(-1.0)},' in out


SMALL_CONFIGS = {
    "measure": "experiment = measure\nstate = bell\n",
    "signal": "experiment = signal\nalice_angle = 0.3\nbob_angle = 1.2\nrounds = 10\nseed = 1\n",
    "chsh": "experiment = chsh\ngrid_resolution = 0.5\n",
    "ctc-solve": "experiment = ctc-solve\nscenario = cr_coupled\nmethod = spectral\n",
    "ctc-scan": "experiment = ctc-scan\nscenario = cr_coupled\nsamples = 10\nseed = 1\n",
}
EXPLICIT_CHSH = ("experiment = chsh\nangle_a1 = 0.0\nangle_a2 = 1.5\nangle_b1 = -0.7\n"
                 "angle_b2 = 0.7\n")


@pytest.mark.kernel_independent
@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_reports_echo_the_module_tolerances(tmp_path, command):
    from qdesk import ctc, measurement, suggestion

    loop = {"phase": ctc.PHASE_TOL, "consistency": ctc.CONSISTENCY_TOL,
            "fixed_point": ctc.FIXED_POINT_TOL, "iterate": ctc.ITERATE_TOL}
    expected = {
        "measure": {"branch_prune": measurement.BRANCH_PRUNE_EPS,
                    "ready_weight": measurement.READY_WEIGHT_TOL},
        "signal": {"no_signaling": suggestion.NO_SIGNALING_TOL},
        "chsh": {"tsirelson_guard": suggestion.TSIRELSON_GUARD},
        "ctc-solve": loop,
        "ctc-scan": loop,
    }[command]
    code, out = run_cli([command, "--config", write(tmp_path, "c.cfg", SMALL_CONFIGS[command])])
    assert code == 0
    assert list(json.loads(out)["tolerances"].items()) == list(expected.items())


@pytest.mark.parametrize("command,name", [("signal", "NO_SIGNALING_TOL"),
                                          ("chsh", "TSIRELSON_GUARD")])
def test_echoed_signaling_tolerances_are_the_enforced_ones(tmp_path, monkeypatch, command, name):
    from qdesk import suggestion

    monkeypatch.setattr(suggestion, name, -10.0)  # a bound every checked quantity exceeds
    code, _ = run_cli([command, "--config", write(tmp_path, "c.cfg", SMALL_CONFIGS[command])])
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
    assert payload["samples"] == 500 and payload["fraction"] == 0.0
    assert payload["residual_min"] > 1e-3


def test_table_format_renders(tmp_path):
    cfg = write(tmp_path, "m.cfg", "experiment = measure\nstate = plus\nformat = table\n")
    code, out = run_cli(["measure", "--config", cfg])
    assert code == 0
    assert "experiment: measure" in out
    assert "saw_up" in out


@pytest.mark.parametrize("command", ["signal", "chsh", "ctc-solve", "ctc-scan"])
def test_every_json_command_renders_a_table(tmp_path, command):
    cfg = write(tmp_path, "c.cfg", SMALL_CONFIGS[command])
    code, out = run_cli([command, "--config", cfg, "--format", "table"])
    assert code == 0
    assert out.startswith(f"experiment: {command}\n") and "\ntolerances:\n" in out


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


def assert_exit_2_without_traceback(args):
    proc = run_subprocess(args)
    stderr = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == 2, stderr
    assert "Traceback" not in stderr
    return stderr


def test_non_utf8_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"experiment = chsh\ngrid_resolution = 0.1\n# \xff\n")
    assert str(cfg) in assert_exit_2_without_traceback(["chsh", "--config", str(cfg)])


def test_non_utf8_scenario_file_exits_2(tmp_path):
    (tmp_path / "bad.scenario").write_bytes(b"ctc_ids = loop\n# \xff\n")
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario_file = bad.scenario\n")
    stderr = assert_exit_2_without_traceback(["ctc-solve", "--config", cfg])
    assert "bad.scenario" in stderr


def test_scenario_file_variant_line_exits_2_naming_it(tmp_path):
    # a built-in loop is named by the config entry 'scenario', never inside a scenario file
    scenario = write(tmp_path, "v.scenario", "# the flip loop\nvariant = qubit_flip\n")
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario_file = v.scenario\n")
    stderr = assert_exit_2_without_traceback(["ctc-solve", "--config", cfg])
    assert f"{scenario}:2: unknown key 'variant' for a scenario file" in stderr


@pytest.mark.parametrize("ids", ["cr_ids = memory,memory\nctc_ids = loop",
                                 "cr_ids = memory\nctc_ids = loop,memory",
                                 "ctc_ids = loop,loop,memory"],
                         ids=["cr_twice", "in_both", "ctc_twice"])
@pytest.mark.parametrize("kind", ["ctc-solve", "ctc-scan"])
def test_scenario_file_repeating_an_id_exits_2(tmp_path, ids, kind):
    write(tmp_path, "dup.scenario", f"{ids}\nunitary:\nqdesk-object: unitary\n"
          "layout: memory=b0,b1; loop=b0,b1\ndata:\n"
          "0,0 0,0 0,0 1,0\n1,0 0,0 0,0 0,0\n0,0 1,0 0,0 0,0\n0,0 0,0 1,0 0,0\n")
    cfg = write(tmp_path, "c.cfg", f"experiment = {kind}\nscenario_file = dup.scenario\n"
                + ("samples = 5\nseed = 1\n" if kind == "ctc-scan" else ""))
    stderr = assert_exit_2_without_traceback([kind, "--config", cfg])
    assert "inconsistent scenario: cr + ctc ids must name every layout subsystem" in stderr


def test_unwritable_out_path_exits_2(tmp_path):
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario = cr_coupled\n")
    out = str(tmp_path / "absent" / "x.json")
    stderr = assert_exit_2_without_traceback(["ctc-solve", "--config", cfg, "--out", out])
    assert "output error" in stderr and out in stderr


def test_empty_out_path_exits_2_before_the_command_runs(tmp_path, monkeypatch):
    cfg = write(tmp_path, "c.cfg", SMALL_CONFIGS["chsh"])
    calls = []
    monkeypatch.setattr(qdesk.cli, "build_report", lambda *args: calls.append(args))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["chsh", "--config", cfg, "--out", ""])
    assert (code, out, calls) == (2, "", [])
    assert err.getvalue() == "output error: --out is an empty path\n"


def test_nul_out_path_exits_2_before_the_command_runs(tmp_path, monkeypatch):
    cfg = write(tmp_path, "c.cfg", SMALL_CONFIGS["chsh"])
    calls = []
    monkeypatch.setattr(qdesk.cli, "build_report", lambda *args: calls.append(args))
    nul_path = str(tmp_path / "a\0b")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["chsh", "--config", cfg, "--out", nul_path])
    assert (code, out, calls) == (2, "", [])
    shown = nul_path.replace("\0", "\\x00")
    assert err.getvalue() == f"output error: cannot write {shown}: embedded null byte\n"


@pytest.mark.parametrize("where,code", [("directory", errno.EISDIR),
                                        ("absent/x.json", errno.ENOENT),
                                        ("file/x.json", errno.ENOTDIR)],
                         ids=["directory", "absent_parent", "file_parent"])
def test_unopenable_out_path_exits_2_before_the_config_is_read(tmp_path, monkeypatch, where, code):
    cfg = write(tmp_path, "c.cfg", SMALL_CONFIGS["ctc-solve"])
    (tmp_path / "directory").mkdir()
    write(tmp_path, "file", "")
    calls = []
    monkeypatch.setattr(qdesk.cli, "load_config", lambda *args: calls.append(args))
    monkeypatch.setattr(qdesk.cli, "build_report", lambda *args: calls.append(args))
    before = sorted(tmp_path.rglob("*"))
    out_path = str(tmp_path / where)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        exit_code, out = run_cli(["ctc-solve", "--config", cfg, "--out", out_path])
    assert (exit_code, out, calls) == (2, "", [])
    assert err.getvalue() == f"output error: cannot write {out_path}: {os.strerror(code)}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_out_path_in_an_unwritable_directory_exits_2_before_the_config_is_read(tmp_path,
                                                                              monkeypatch):
    # chmod does not stop root, so the directory's write permission is refused by os.access
    cfg = write(tmp_path, "c.cfg", SMALL_CONFIGS["ctc-solve"])
    locked = tmp_path / "locked"
    locked.mkdir()
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: (
        os.fspath(path) != str(locked) and access(path, mode, **kwargs)))
    calls = []
    monkeypatch.setattr(qdesk.cli, "load_config", lambda *args: calls.append(args))
    monkeypatch.setattr(qdesk.cli, "build_report", lambda *args: calls.append(args))
    before = sorted(tmp_path.rglob("*"))
    out_path = str(locked / "x.json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        exit_code, out = run_cli(["ctc-solve", "--config", cfg, "--out", out_path])
    assert (exit_code, out, calls) == (2, "", [])
    assert err.getvalue() == f"output error: cannot write {out_path}: Permission denied\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("denied", ["directory", "file"])
def test_existing_out_file_is_written_under_its_own_write_permission(tmp_path, monkeypatch,
                                                                    denied):
    # open(path, "w") truncates an existing file with the file's write permission alone, so a
    # directory that cannot be written refuses nothing; the file's own permission can
    cfg = write(tmp_path, "c.cfg", SMALL_CONFIGS["ctc-solve"])
    locked = tmp_path / "locked"
    locked.mkdir()
    target = write(locked, "x.json", "old")
    refused = {"directory": str(locked), "file": target}[denied]
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: (
        os.fspath(path) != refused and access(path, mode, **kwargs)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        exit_code, out = run_cli(["ctc-solve", "--config", cfg, "--out", target])
    if denied == "directory":
        assert (exit_code, out) == (0, "")
        assert open(target).read() == run_cli(["ctc-solve", "--config", cfg])[1]
    else:
        assert (exit_code, out) == (2, "")
        assert err.getvalue() == f"output error: cannot write {target}: Permission denied\n"
        assert open(target).read() == "old"


QUBITS_15 = "layout: " + "; ".join(f"q{i}=b0,b1" for i in range(15)) + "\ndata:\n"
BAD_INLINE_UNITARIES = {  # the body after the kind line, and the error it gives
    "duplicate_labels": ("layout: loop=b0,b0\ndata:\n1,0 0,0\n0,0 1,0\n",
                         "subsystem 'loop' has duplicate basis labels"),
    "not_unitary": ("layout: loop=b0,b1\ndata:\n1,0 1,0\n0,0 1,0\n", "matrix is not unitary"),
    "nan_entry": ("layout: loop=b0,b1\ndata:\nnan,0 0,0\n0,0 1,0\n", "entries must be finite"),
    # 15 qubits, one entry a row: 128 KB of text whose rows would hold 16 GiB
    "short_rows": (QUBITS_15 + "0,0\n" * 2**15, "line 6: expected 32768 entries, got 1"),
    # the same after one whole row in the canonical spelling, which the vectorized reader takes
    "short_after_canonical": (QUBITS_15 + " ".join([f"{1.0:.16e},{0.0:.16e}"] * 2**15) + "\n"
                              + "0,0\n" * (2**15 - 1), "line 7: expected 32768 entries, got 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_INLINE_UNITARIES))
def test_bad_inline_unitary_exits_2(tmp_path, case, capsys, monkeypatch):
    # a body is refused by its shape before its entries' memory is asked for: np.empty is
    # refused above 1 MiB here, so the host's memory cannot decide the outcome
    import numpy as np

    body, message = BAD_INLINE_UNITARIES[case]
    write(tmp_path, "bad.scenario", "ctc_ids = loop\nunitary:\nqdesk-object: unitary\n" + body)
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario_file = bad.scenario\n")
    asked, empty = [], np.empty

    def recorded_empty(shape, dtype=float, *args, **kwargs):
        asked.append(math.prod(np.atleast_1d(shape)) * np.dtype(dtype).itemsize)
        if asked[-1] > 1 << 20:
            raise MemoryError(f"np.empty asked for {shape}")
        return empty(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "empty", recorded_empty)
    code, out = run_cli(["ctc-solve", "--config", cfg])
    assert code == 2 and out == ""
    assert f"bad inline unitary: {message}" in capsys.readouterr().err
    assert max(asked, default=0) <= 1 << 20


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


SIGNAL_HEAD = "experiment = signal\nalice_angle = 0.3\nbob_angle = 1.1\nseed = 1\n"


# counts past config.MAX_COUNT; each would fail before allocating anything even
# without the cap, so no run here comes near it
@pytest.mark.parametrize("command,body,flags,line", [
    ("signal", SIGNAL_HEAD + f"rounds = {10**20}\n", [], 5),
    ("signal", SIGNAL_HEAD + "rounds = 10\n", ["--rounds", str(10**20)], None),
    ("measure", f"experiment = measure\nstate = bell\nseed = 1\nrounds = {10**20}\n", [], 4),
    ("ctc-scan", f"experiment = ctc-scan\nscenario = qubit_flip\nseed = 1\nsamples = {10**20}\n",
     [], 4),
    ("chsh", "experiment = chsh\ngrid_resolution = 1e-300\n", [], 2),
    ("chsh", "experiment = chsh\ngrid_resolution = 5e-324\n", [], 2),
], ids=["signal_rounds", "signal_rounds_flag", "measure_rounds", "scan_samples",
        "chsh_grid_1e-300", "chsh_grid_subnormal"])
def test_oversized_count_exits_2(tmp_path, command, body, flags, line):
    cfg = write(tmp_path, "big.cfg", body)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli([command, "--config", cfg, *flags])
    assert code == 2 and out == ""
    assert err.getvalue().startswith("config error: ")
    if line is not None:
        assert f"{cfg}:{line}: " in err.getvalue()


SIGNAL_CSV_HEADER = "round,theta_a,theta_b,alice_decision,bob_outcome,seed"


def signal_config(alice, bob, fmt, rounds=3):
    return (f"experiment = signal\nalice_angle = {alice!r}\nbob_angle = {bob!r}\n"
            f"rounds = {rounds}\nseed = 1\nformat = {fmt}\n")


# the audit's settings alice, alice + pi/4 and alice + pi/2 must be three distinct doubles: from
# 2^53 up one ulp is 2 or more, so alice + pi/4 rounds back to alice; at 2^53 - 1 both offsets
# round to 2^53; below -2^53 alice + pi/4 rounds back to alice
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("alice", [2.0**54, -1e20, 2.0**53, 2.0**53 - 1, -(2.0**53) - 2])
def test_signal_angle_the_audit_cannot_offset_exits_2(tmp_path, fmt, alice):
    cfg = write(tmp_path, "s.cfg", signal_config(alice, 0.3, fmt))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["signal", "--config", cfg])
    assert code == 2 and out == ""
    assert err.getvalue().startswith(f"config error: {cfg}:2: alice_angle {alice!r} ")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("alice", [2.0**53 - 2, -(2.0**53)])
def test_signal_angle_at_the_edge_of_the_range_audits_three_settings(tmp_path, fmt, alice):
    # one ulp is 1 on the side towards 0, so the offsets round to alice + 1 and alice + 2
    cfg = write(tmp_path, "s.cfg", signal_config(alice, 0.3, fmt))
    code, out = run_cli(["signal", "--config", cfg])
    assert code == 0
    if fmt == "json":
        audited = json.loads(out)["no_signaling"]["alice_settings"]
        assert audited == [alice, alice + 1, alice + 2]
    else:
        assert out.startswith(SIGNAL_CSV_HEADER + "\n")


EXTREME_ANGLES = [2.0**53, -(2.0**53), 2.0**54, -(2.0**54), 1.7976931348623157e308,
                  -1.7976931348623157e308, 5e-324, -5e-324, -0.0]
any_angle = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREME_ANGLES)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["signal json", "signal csv", "chsh json"]),
       angles=st.lists(any_angle, min_size=4, max_size=4))
@example(command="signal json", angles=[2.0**54, 0.0, 0.0, 0.0])
@example(command="signal csv", angles=[-1.7976931348623157e308, 5e-324, 0.0, 0.0])
def test_every_finite_angle_gives_a_report_or_a_located_config_error(tmp_path_factory, command,
                                                                     angles):
    kind, fmt = command.split()
    if kind == "signal":
        text = signal_config(angles[0], angles[1], fmt)
    else:
        text = "experiment = chsh\n" + "".join(
            f"angle_{key} = {a!r}\n" for key, a in zip(("a1", "a2", "b1", "b2"), angles))
    tmp = tmp_path_factory.mktemp("angles")
    cfg = write(tmp, "a.cfg", text)
    report = tmp / "report.out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([kind, "--config", cfg, "--out", str(report)])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert re.match(rf"config error: {re.escape(cfg)}:\d+: ", err.getvalue())
    elif fmt == "csv":
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[0] == SIGNAL_CSV_HEADER and len(lines) == 4
        assert all(len(line.split(",")) == 6 for line in lines[1:])
    else:
        assert json.loads(report.read_text(encoding="utf-8"))["experiment"] == kind


def slow_iterate_config(tmp_path, extra=""):
    """A ctc-solve config whose plain iteration plateaus: weak amplitude damping, which
    iterate hands off to the spectral solve."""
    lay = layout_of(("env", ("e0", "e1")), ("loop", ("b0", "b1")))
    u = UnitaryOperator(lay, kraus_dilation(amplitude_damping(1e-6)))
    write(tmp_path, "slow.scenario",
          "cr_ids = env\nctc_ids = loop\nunitary:\n" + serialize_unitary(u))
    return write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario_file = slow.scenario\n"
                 "method = iterate\n" + extra)


@pytest.fixture
def spectral_fails(monkeypatch):
    """Makes the spectral solve that a stalled iterate hands off to raise SolverError, as a
    failed verification does; no natural input is known to reach it. Returns each error raised."""
    raised = []

    def fail(apply_map, sup, d):
        raised.append(SolverError("spectral fixed point failed verification", residual=2.5e-6))
        raise raised[-1]

    monkeypatch.setattr(qdesk.ctc, "_spectral_fixed_point", fail)
    return raised


def test_solver_error_exits_3_with_residual(tmp_path, monkeypatch, spectral_fails):
    code, out = run_cli(["ctc-solve", "--config", slow_iterate_config(tmp_path)])
    assert code == 3 and len(spectral_fails) == 1
    payload = json.loads(out)
    assert payload["error"] == "solver did not converge"
    assert payload["residual"] == spectral_fails[0].residual
    # unpatched, the spectral method solves the same scenario
    monkeypatch.undo()
    code, out = run_cli(["ctc-solve", "--config", write(
        tmp_path, "c2.cfg",
        "experiment = ctc-solve\nscenario_file = slow.scenario\nmethod = spectral\n")])
    assert code == 0


@pytest.mark.parametrize("where", ["config", "flag"])
def test_solver_error_payload_follows_the_format(tmp_path, where, spectral_fails):
    if where == "config":
        args = ["--config", slow_iterate_config(tmp_path, "format = table\n")]
    else:
        args = ["--config", slow_iterate_config(tmp_path), "--format", "table"]
    code, out = run_cli(["ctc-solve", *args])
    assert code == 3 and len(spectral_fails) == 1
    head, residual = out.rsplit("residual: ", 1)
    assert head == "experiment: ctc-solve\nerror: solver did not converge\n"
    assert residual.endswith("\n") and float(residual) == spectral_fails[0].residual


def test_solver_error_names_the_step_that_failed(tmp_path, spectral_fails):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["ctc-solve", "--config", slow_iterate_config(tmp_path)])
    assert code == 3 and len(spectral_fails) == 1
    residual = json.loads(out)["residual"]
    assert err.getvalue() == ("solver error: spectral fixed point failed verification "
                              f"(best residual {residual:.3e})\n")


def test_unknown_flag_value_exits_2(tmp_path):
    cfg = write(tmp_path, "s.cfg",
                "experiment = signal\nalice_angle = 0\nbob_angle = 0\nrounds = 5\nseed = 1\n")
    code, _ = run_cli(["signal", "--config", cfg, "--rounds", "0"])
    assert code == 2


@pytest.mark.parametrize("command,flag,value", [
    ("signal", "--seed", "abc"),
    ("signal", "--format", "xml"),
    ("signal", "--rounds", "1e3"),
    ("signal", "--rounds", "0"),
    ("signal", "--mode", "ray"),
    ("chsh", "--seed", "1"),
    # int() also reads any Unicode decimal digit and '_' separators: 3, 10, -1 and 5
    ("signal", "--seed", "\u0663"),
    ("signal", "--rounds", "1_0"),
    ("signal", "--seed", "-\u0967"),
    ("signal", "--rounds", "\uff15"),
], ids=["seed_abc", "format_xml", "rounds_1e3", "rounds_0", "mode_on_signal", "seed_on_chsh",
        "seed_arabic_indic", "rounds_underscore", "seed_devanagari", "rounds_fullwidth"])
def test_flag_error_exits_2_naming_the_flag(tmp_path, command, flag, value):
    # flags are config entries: a bad one is a config error that main returns, not a SystemExit
    body = {"signal": SIGNAL_HEAD + "rounds = 5\n",
            "chsh": "experiment = chsh\ngrid_resolution = 0.1\n"}[command]
    cfg = write(tmp_path, "c.cfg", body)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli([command, "--config", cfg, flag, value])
    assert code == 2 and out == ""
    assert err.getvalue().startswith(f"config error: {flag}")


# int() and float() also read any Unicode decimal digit and '_' separators: each value below
# would load (as 1.5, 0.3, 10, 3, 3, 0.01); a config number is a plain ASCII literal instead
NOT_PLAIN_ENTRIES = [
    ("signal", "alice_angle", "\u0661.\u0665"),  # Arabic-Indic 1.5
    ("signal", "bob_angle", "\uff10.\uff13"),  # fullwidth 0.3
    ("signal", "rounds", "1_0"),
    ("measure", "seed", "\u0663"),  # Arabic-Indic 3
    ("measure", "rounds", "\U0001d7d1"),  # mathematical bold 3
    ("chsh", "grid_resolution", "0.0_1"),
]


@pytest.mark.parametrize("command,key,value", NOT_PLAIN_ENTRIES,
                         ids=[f"{c}_{k}" for c, k, _ in NOT_PLAIN_ENTRIES])
def test_number_entry_that_is_not_plain_ascii_exits_2(tmp_path, command, key, value):
    entries = {"signal": {"alice_angle": "0.3", "bob_angle": "1.1", "rounds": "5", "seed": "1"},
               "measure": {"state": "bell", "rounds": "10", "seed": "1"},
               "chsh": {"grid_resolution": "0.5"}}[command]
    entries[key] = value
    body = f"experiment = {command}\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
    cfg = write(tmp_path, "c.cfg", body)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli([command, "--config", cfg])
    assert code == 2 and out == ""
    line = 2 + list(entries).index(key)
    assert err.getvalue().startswith(f"config error: {cfg}:{line}: {key} must be")
    assert err.getvalue().endswith(f"got {value!r}\n")


@pytest.mark.parametrize("args,expected", [
    (["signal", "--config", "c.cfg", "--rounds", "-1e3"], 2),
    (["signal", "--config", "c.cfg", "--seed"], 2),
    (["signal"], 2),
    (["bogus", "--config", "c.cfg"], 2),
    (["--help"], 0),
    (["ctc-scan", "--help"], 0),
], ids=["rounds_dash_1e3", "seed_without_value", "missing_config", "unknown_subcommand",
        "help", "subcommand_help"])
def test_argparse_status_is_returned_not_raised(args, expected):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(args)
    assert code == expected
    assert (err.getvalue() != "") == (expected == 2) and (out != "") == (expected == 0)


def test_one_parser_reads_the_command_and_every_flag(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    args = _build_parser().parse_args(["ctc-scan", "--config", "c.cfg", "--mode", "ray",
                                       "--out", "r.json"])
    assert len(built) == 1
    assert (args.command, args.config, args.mode, args.out) == ("ctc-scan", "c.cfg", "ray",
                                                                "r.json")


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


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_is_an_output_error(tmp_path, unbuffered):
    # a reader that takes one line and closes the pipe, as `| head -1` does
    cfg = write(tmp_path, "s.cfg", "experiment = signal\nalice_angle = 0.3\nbob_angle = 1.2\n"
                "rounds = 100000\nseed = 1\nformat = csv\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "qdesk", "signal", "--config", cfg],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"round,theta_a,theta_b,alice_decision,bob_outcome,seed\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2, err
    assert err == "output error: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_closed_at_start_is_an_output_error(tmp_path, fmt):
    # `qdesk ... >&-`: Python starts with descriptor 1 closed and sys.stdout None
    cfg = write(tmp_path, "s.cfg", SMALL_CONFIGS["signal"] + f"format = {fmt}\n")
    done = subprocess.run([sys.executable, "-m", "qdesk", "signal", "--config", cfg],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2, done.stderr
    assert done.stderr == "output error: cannot write stdout: Bad file descriptor\n"


def test_stdout_closed_at_start_fails_the_solver_error_payload(tmp_path, monkeypatch,
                                                               spectral_fails):
    # in process, with sys.stdout None as the interpreter leaves it when descriptor 1 was
    # closed at start: the solve raises, so the write that fails is the payload's
    cfg = slow_iterate_config(tmp_path)
    monkeypatch.setattr(sys, "stdout", None)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["ctc-solve", "--config", cfg])
    assert code == 2 and len(spectral_fails) == 1
    assert err.getvalue() == "output error: cannot write stdout: Bad file descriptor\n"


@pytest.mark.parametrize("where", ["scenario_file", "config", "out"])
def test_nul_in_a_path_exits_2_with_one_line(tmp_path, where):
    # open() raises ValueError, not OSError, for a path with an embedded NUL
    cfg = write(tmp_path, "c.cfg", SMALL_CONFIGS["chsh"])
    nul_path = str(tmp_path / "a\0b")
    argv = {"scenario_file": ["ctc-solve", "--config", write(
                tmp_path, "s.cfg", "experiment = ctc-solve\nscenario_file = a\0b\n")],
            "config": ["chsh", "--config", nul_path],
            "out": ["chsh", "--config", cfg, "--out", nul_path]}[where]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(argv)
    assert code == 2 and out == ""
    shown = nul_path.replace("\0", "\\x00")
    assert err.getvalue() == {
        "scenario_file": f"config error: {shown}: cannot read scenario file: ",
        "config": f"config error: {shown}: cannot read config: ",
        "out": f"output error: cannot write {shown}: "}[where] + "embedded null byte\n"


@pytest.mark.parametrize("char", ["\n", "\r", "\t"], ids=["newline", "return", "tab"])
@pytest.mark.parametrize("where", ["scenario_file", "config", "out"])
def test_control_character_in_a_path_exits_2_with_one_line(tmp_path, where, char):
    # the character is in a directory's name: the scenario file is looked up next to its
    # config, and the config and --out paths name a directory that does not exist
    odd = tmp_path / f"a{char}b"
    if where == "scenario_file":
        odd.mkdir()
        argv = ["ctc-solve", "--config", write(
            odd, "s.cfg", "experiment = ctc-solve\nscenario_file = missing.scenario\n")]
    else:
        cfg = write(tmp_path, "c.cfg", SMALL_CONFIGS["chsh"])
        argv = {"config": ["chsh", "--config", str(odd / "c.cfg")],
                "out": ["chsh", "--config", cfg, "--out", str(odd / "r.json")]}[where]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(argv)
    assert code == 2 and out == ""
    line = err.getvalue()
    assert line.endswith("\n") and char not in line[:-1] and len(line.splitlines()) == 1, line
    assert str(odd).replace(char, repr(char)[1:-1]) in line


def test_report_that_stdout_cannot_encode_is_an_output_error(tmp_path):
    u = grandfather_scenario("cr_coupled").loop_unitary
    write(tmp_path, "\u00e9.scenario",
          "cr_ids = memory\nctc_ids = loop\nunitary:\n" + serialize_unitary(u))
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario_file = \u00e9.scenario\n"
                "format = table\n")
    done = subprocess.run([sys.executable, "-m", "qdesk", "ctc-solve", "--config", cfg],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONIOENCODING="ascii"))
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert re.fullmatch(r"output error: cannot write stdout: 'ascii' codec can't encode "
                        r"character '\\xe9' in position \d+: ordinal not in range\(128\)\n",
                        done.stderr), done.stderr


# The child limits its own address space to what it holds after import plus MEMORY_MARGIN,
# so a count within MAX_COUNT asks for more than it can get: 8 GB of chsh grid angles, or
# 7.45 GiB of scan residuals. chsh imports no numpy, so its child stays small.
MEMORY_MARGIN = 512 << 20
MEMORY_PROBE = ("import resource, sys\n"
                "import qdesk.cli\n"
                "if sys.argv[1] == 'ctc-scan':\n"
                "    import qdesk.ctc\n"
                "with open('/proc/self/status') as fh:\n"
                "    vm = next(int(ln.split()[1]) for ln in fh if ln.startswith('VmSize:'))\n"
                "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                f"resource.setrlimit(resource.RLIMIT_AS, (vm * 1024 + {MEMORY_MARGIN}, hard))\n"
                "sys.exit(qdesk.cli.main(sys.argv[1:]))\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc")
@pytest.mark.parametrize("command,body", [
    ("chsh", "experiment = chsh\ngrid_resolution = 6.3e-9\n"),
    ("ctc-scan", f"experiment = ctc-scan\nscenario = qubit_flip\nseed = 1\nsamples = {10**9}\n"),
], ids=["chsh_grid", "scan_samples"])
def test_count_whose_memory_cannot_be_had_exits_2(tmp_path, command, body):
    cfg = write(tmp_path, "big.cfg", body)
    done = subprocess.run([sys.executable, "-c", MEMORY_PROBE, command, "--config", cfg],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith(f"memory error: {command} cannot get its memory")
    assert done.stderr.count("\n") == 1, done.stderr


def test_memory_error_while_a_config_loads_exits_2(tmp_path, monkeypatch, capsys):
    # reading the config and running the command share one failure path
    import qdesk.serialization

    def no_memory(text):
        raise MemoryError("synthetic")

    monkeypatch.setattr(qdesk.serialization, "parse_unitary", no_memory)
    write(tmp_path, "s.scenario", "ctc_ids = loop\nunitary:\nqdesk-object: unitary\n"
          "layout: loop=b0,b1\ndata:\n0,0 1,0\n1,0 0,0\n")
    cfg = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario_file = s.scenario\n")
    target = tmp_path / "r.json"
    assert run_cli(["ctc-solve", "--config", cfg, "--out", str(target)]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("memory error: ctc-solve cannot get its memory"), err
    assert err.count("\n") == 1 and not target.exists()


def test_only_a_csv_run_builds_the_digit_table(tmp_path):
    json_cfg = write(tmp_path, "j.cfg", SMALL_CONFIGS["signal"])
    csv_cfg = write(tmp_path, "c.cfg", SMALL_CONFIGS["signal"] + "format = csv\n")
    probe = ("import sys\n"
             "import qdesk.cli\n"
             "built = qdesk.reports._digit_table.cache_info().currsize\n"
             "assert built == 0, 'import qdesk.cli built the digit table'\n"
             "assert qdesk.cli.main(['signal', '--config', sys.argv[1]]) == 0\n"
             "built = qdesk.reports._digit_table.cache_info().currsize\n"
             "assert built == 0, 'a JSON signal run built the digit table'\n"
             "assert qdesk.cli.main(['signal', '--config', sys.argv[2]]) == 0\n"
             "assert qdesk.reports._digit_table.cache_info().currsize == 1\n")
    done = subprocess.run([sys.executable, "-c", probe, json_cfg, csv_cfg],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _assert_chsh_runs_with_numpy_blocked(cfg):
    # sys.modules[name] = None makes any import of name raise ImportError; the records are
    # NamedTuples, so neither dataclasses nor the inspect it imports is needed either
    probe = ("import sys\n"
             "sys.modules.update(dict.fromkeys(['numpy', 'dataclasses', 'inspect']))\n"
             "from qdesk.cli import main\n"
             "sys.exit(main(['chsh', '--config', sys.argv[1]]))\n")
    blocked = subprocess.run([sys.executable, "-c", probe, cfg], capture_output=True)
    free = run_subprocess(["chsh", "--config", cfg])
    assert blocked.returncode == 0, blocked.stderr
    assert free.returncode == 0 and blocked.stdout == free.stdout


def test_explicit_chsh_runs_with_numpy_blocked(tmp_path):
    _assert_chsh_runs_with_numpy_blocked(write(tmp_path, "c.cfg", EXPLICIT_CHSH))


def test_grid_chsh_runs_with_numpy_blocked(tmp_path):
    _assert_chsh_runs_with_numpy_blocked(write(tmp_path, "c.cfg", SMALL_CONFIGS["chsh"]))


def test_commands_without_schur_do_not_load_scipy(tmp_path):
    cfg = write(tmp_path, "c.cfg", EXPLICIT_CHSH)
    probe = ("import sys\n"
             "import qdesk.cli\n"
             "assert 'scipy' not in sys.modules, 'import qdesk.cli loaded scipy'\n"
             "assert qdesk.cli.main(['chsh', '--config', sys.argv[1]]) == 0\n"
             "assert 'scipy' not in sys.modules, 'chsh loaded scipy'\n")
    done = subprocess.run([sys.executable, "-c", probe, cfg], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# The module probes' configs; each ctc-solve-haar_2_2-<method> case writes its own
PROBE_CONFIGS = {**SMALL_CONFIGS, "chsh-angles": EXPLICIT_CHSH,
                 "ctc-scan-ray": SMALL_CONFIGS["ctc-scan"] + "mode = ray\n"}


@pytest.mark.parametrize("command,unused", [
    # the grid search is a plain-Python scan of Python floats: no numpy either, and its
    # NamedTuple records need no dataclasses (nor the inspect that dataclasses imports)
    ("chsh", ["scipy", "numpy", "dataclasses", "inspect", "qdesk.rng", "qdesk.ctc",
              "qdesk.tensor", "qdesk.serialization"]),
    ("signal", ["scipy", "qdesk.ctc", "qdesk.tensor", "qdesk.serialization"]),
    ("measure", ["scipy", "qdesk.ctc", "qdesk.suggestion"]),
    ("ctc-solve", ["scipy", "qdesk.suggestion", "qdesk.measurement"]),
    ("ctc-scan", ["scipy", "qdesk.suggestion", "qdesk.measurement"]),
    # four correlators of Python products: an explicit-angle chsh never loads numpy
    ("chsh-angles", ["scipy", "numpy", "dataclasses", "inspect", "qdesk.tensor",
                     "qdesk.serialization", "qdesk.rng", "qdesk.ctc", "qdesk.measurement"]),
    # the scan's median is selected in place: np.median would import numpy.ma
    ("ctc-scan-ray", ["scipy", "numpy.ma", "qdesk.suggestion", "qdesk.measurement"]),
    # a generic loop has no eigenvalue near 1: the strict SVD finds none, with no Schur
    *[(f"ctc-solve-haar_2_2-{method}", ["scipy", "qdesk.suggestion", "qdesk.measurement"])
      for method in ("iterate", "spectral")],
])
def test_commands_load_only_their_own_modules(tmp_path, command, unused):
    """A command's run loads none of the modules it does not use: scipy (the test oracles'
    alone) in every case."""
    if command.startswith("ctc-solve-haar_2_2-"):
        cfg = generic_solve_config(tmp_path, "haar_2_2", command.rsplit("-", 1)[1])
    else:
        cfg = write(tmp_path, "c.cfg", PROBE_CONFIGS[command])
    command = next(kind for kind in SMALL_CONFIGS if command.startswith(kind))
    probe = ("import sys\n"
             "import qdesk.cli\n"
             "assert 'scipy' not in sys.modules, 'import qdesk.cli loaded scipy'\n"
             "assert qdesk.cli.main([sys.argv[1], '--config', sys.argv[2]]) == 0\n"
             "loaded = sorted(set(sys.argv[3:]) & set(sys.modules))\n"
             "assert not loaded, f'{sys.argv[1]} loaded {loaded}'\n")
    done = subprocess.run([sys.executable, "-c", probe, command, cfg, *unused],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# What `from qdesk import *` gives: 54 public names, the 6 submodules that hold them, and rng.
STAR_NAMES = (
    "ATOL AdmissibilityScan Branch ChshSearchResult ConfigError ConsistencySubspace "
    "CorrelationTally CtcScenario DensityMatrix DeutschSolution "
    "DimensionMismatchError FormatError InvariantError LayoutError NoSignalingAudit "
    "PointerScheme ProtocolError QdeskError SchemeError SessionRecords SolverError "
    "StateVector Subsystem SubsystemLayout TSIRELSON_BOUND UnitaryOperator admissible_fraction "
    "apply_unitary branch_decomposition build_premeasurement_unitary "
    "chsh_grid_search chsh_value correlator ctc deutsch_fixed_point "
    "errors grandfather_scenario layout_of linear_consistency_basis "
    "measurement no_signaling_audit parse_density parse_state parse_unitary "
    "pointer_scheme premeasure reduced_state rng sample_labels "
    "sample_rounds serialization serialize_density serialize_state serialize_unitary "
    "session_records signaling_weights subsystem suggestion tally_from_records "
    "tensor trace_distance"
).split()


def test_package_resolves_names_on_first_use():
    probe = ("import sys\n"
             "import qdesk\n"
             "loaded = sorted(m for m in sys.modules if m.startswith('qdesk.'))\n"
             "assert not loaded, f'import qdesk loaded {loaded}'\n"
             "assert qdesk.tensor.layout_of.__module__ == 'qdesk.tensor'\n"
             "namespace = {}\n"
             "exec('from qdesk import *', namespace)\n"
             "print(' '.join(sorted(set(namespace) - {'__builtins__'})))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == sorted(STAR_NAMES) and len(STAR_NAMES) == 61


def test_every_subcommand_runs_without_scipy(tmp_path):
    # scipy serves the test oracles only: with every import of it failing, each
    # subcommand, both linear modes and both fixed-point methods still exit 0
    runs = [("measure", write(tmp_path, "m.cfg", "experiment = measure\nstate = bell\n"
                              "rounds = 50\nseed = 3\n")),
            ("signal", write(tmp_path, "s.cfg", "experiment = signal\nalice_angle = 0.4\n"
                             "bob_angle = -0.9\nrounds = 50\nseed = 3\n")),
            ("chsh", write(tmp_path, "c.cfg", "experiment = chsh\nangle_a1 = 0.0\n"
                           "angle_a2 = 1.5\nangle_b1 = -0.7\nangle_b2 = 0.7\n")),
            ("ctc-scan", write(tmp_path, "scan.cfg", "experiment = ctc-scan\n"
                               "scenario = cr_coupled\nmode = ray\nsamples = 50\nseed = 3\n"))]
    for method in ("iterate", "spectral"):
        for mode in ("strict", "ray"):
            runs.append(("ctc-solve", write(tmp_path, f"{method}_{mode}.cfg",
                                            "experiment = ctc-solve\nscenario = cr_coupled\n"
                                            f"method = {method}\nmode = {mode}\n")))
        (tmp_path / method).mkdir()
        runs.append(("ctc-solve", generic_solve_config(tmp_path / method, "haar_2_2", method)))
    probe = ("import sys\n"
             "sys.modules['scipy'] = None\n"
             "import qdesk.cli\n"
             "args = sys.argv[1:]\n"
             "codes = [qdesk.cli.main([k, '--config', c]) for k, c in zip(args[::2], args[1::2])]\n"
             "assert codes == [0] * len(codes), codes\n")
    done = subprocess.run([sys.executable, "-c", probe, *[a for run in runs for a in run]],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", GENERIC_SCENARIOS)
def test_generic_strict_solve_has_no_linear_eigenspace(tmp_path, name):
    # the pinned generic loops have no eigenvalue near 1: each report's linear block is empty
    code, out = run_cli(["ctc-solve", "--config", generic_solve_config(tmp_path, name, "spectral")])
    assert code == 0
    assert json.loads(out)["linear"] == {"mode": "strict", "dimension": 0, "eigenspaces": []}


# Each pinned/<test>/<id> entry of tests/bench_manifest.json is checked here, as
# test_<test>_reports_match_pinned_digests[<id>-<its recorded stdout sha256>]; the manifest's
# one recorder re-records them with the benchmark's entries.
PINNED = manifest()


def pinned(test: str, digest_in_id: bool = True) -> list:
    prefix = f"pinned/{test}/"
    return [pytest.param(key, id=key[len(prefix):] + (f"-{e['stdout']}" if digest_in_id else ""))
            for key, e in PINNED["entries"].items() if key.startswith(prefix)]


@pytest.fixture(scope="module")
def pinned_cases(tmp_path_factory):
    """{key: (command, {input file name: sha256})} of every pinned case, generated once."""
    return {key: (command, files)
            for key, command, files in generate("pinned", tmp_path_factory.mktemp("pinned"))}


def check_pinned(pinned_cases, key):
    moved = mismatch(PINNED, key, *pinned_cases[key])
    assert not moved, f"{recorded_under(PINNED)}: {moved}"


@pytest.mark.kernel_independent
@pytest.mark.parametrize("key", pinned("sampled"))
def test_sampled_reports_match_pinned_digests(pinned_cases, key):
    check_pinned(pinned_cases, key)


@pytest.mark.kernel_independent
@pytest.mark.parametrize("key", pinned("chsh", digest_in_id=False))
def test_chsh_reports_match_pinned_digests(pinned_cases, key):
    check_pinned(pinned_cases, key)


@pytest.mark.parametrize("key", pinned("ctc_solve"))
def test_ctc_solve_reports_match_pinned_digests(pinned_cases, key):
    check_pinned(pinned_cases, key)


@pytest.mark.parametrize("key", pinned("ctc_scan"))
def test_ctc_scan_reports_match_pinned_digests(pinned_cases, key):
    check_pinned(pinned_cases, key)


@pytest.mark.parametrize("key", pinned("haar_scan"))
def test_haar_scan_reports_match_pinned_digests(pinned_cases, key):
    check_pinned(pinned_cases, key)


@pytest.mark.parametrize("key", pinned("generic_ctc_solve"))
def test_generic_ctc_solve_reports_match_pinned_digests(pinned_cases, key):
    check_pinned(pinned_cases, key)
