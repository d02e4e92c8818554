import numpy as np
import pytest

from qdesk import ConfigError, UnitaryOperator, grandfather_scenario, layout_of, serialize_unitary
from qdesk.config import MAX_COUNT, load_config, load_scenario_file


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_measure_config_roundtrip(tmp_path):
    path = write(tmp_path, "m.cfg", "experiment = measure\nstate = plus\n")
    assert load_config(path, "measure") == ("json", {"state": "plus", "rounds": None, "seed": None})


def test_unknown_key_is_rejected_with_line(tmp_path):
    path = write(tmp_path, "m.cfg", "experiment = measure\nstate = plus\nangel = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(path, "measure")
    assert "angel" in str(err.value)
    assert ":3:" in str(err.value)


@pytest.mark.parametrize("kind,body,flags,message", [
    ("measure", "experiment = measure\nstat = up\n", None,
     "c.cfg:2: unknown key 'stat' for measure"),
    ("signal", "experiment = signal\nalice_angel = 0.3\nbob_angle = 0\nrounds = 5\nseed = 1\n",
     None, "c.cfg:2: unknown key 'alice_angel' for signal"),
    ("ctc-scan", "experiment = ctc-scan\nscenario = cr_coupled\nsample = 10\nseed = 1\n", None,
     "c.cfg:3: unknown key 'sample' for ctc-scan"),
    ("ctc-solve", "experiment = ctc-solve\nscenario_fil = loop.scenario\n", None,
     "c.cfg:2: unknown key 'scenario_fil' for ctc-solve"),
    # the scenario file does not exist: it is never opened
    ("ctc-solve", "experiment = ctc-solve\nscenario_file = absent.scenario\ncr_stat = one\n",
     None, "c.cfg:3: unknown key 'cr_stat' for ctc-solve"),
    ("measure", "experiment = measure\n", {"mode": "ray"}, "--mode does not apply to measure"),
], ids=["measure_stat", "signal_alice_angel", "ctc_scan_sample", "ctc_solve_scenario_fil",
        "ctc_solve_before_scenario_file", "measure_mode_flag"])
def test_unknown_key_is_reported_before_a_missing_one(tmp_path, kind, body, flags, message):
    path = write(tmp_path, "c.cfg", body)
    with pytest.raises(ConfigError) as err:
        load_config(path, kind, flags)
    assert str(err.value).endswith(message)


def test_kind_mismatch_is_rejected(tmp_path):
    path = write(tmp_path, "m.cfg", "experiment = measure\nstate = up\n")
    with pytest.raises(ConfigError):
        load_config(path, "signal")


def test_signal_requires_seed(tmp_path):
    path = write(tmp_path, "s.cfg",
                 "experiment = signal\nalice_angle = 0\nbob_angle = 0\nrounds = 10\n")
    with pytest.raises(ConfigError) as err:
        load_config(path, "signal")
    assert "seed" in str(err.value)


def test_signal_angles_must_be_decimal_radians(tmp_path):
    path = write(tmp_path, "s.cfg",
                 "experiment = signal\nalice_angle = 45deg\nbob_angle = 0\nrounds = 1\nseed = 1\n")
    with pytest.raises(ConfigError):
        load_config(path, "signal")


def test_measure_sampling_requires_seed(tmp_path):
    path = write(tmp_path, "m.cfg", "experiment = measure\nstate = plus\nrounds = 5\n")
    with pytest.raises(ConfigError):
        load_config(path, "measure")


def test_chsh_angles_xor_resolution(tmp_path):
    both = write(tmp_path, "c1.cfg",
                 "experiment = chsh\nangle_a1 = 0\nangle_a2 = 0\nangle_b1 = 0\n"
                 "angle_b2 = 0\ngrid_resolution = 0.1\n")
    with pytest.raises(ConfigError):
        load_config(both, "chsh")
    neither = write(tmp_path, "c2.cfg", "experiment = chsh\n")
    with pytest.raises(ConfigError):
        load_config(neither, "chsh")
    angles = write(tmp_path, "c3.cfg",
                   "experiment = chsh\nangle_a1 = 0\nangle_a2 = 1.5\n"
                   "angle_b1 = 0.7\nangle_b2 = -0.7\n")
    assert load_config(angles, "chsh") == (
        "json", {"angles": (0.0, 1.5, 0.7, -0.7), "grid_resolution": None})


def test_csv_only_for_signal(tmp_path):
    path = write(tmp_path, "m.cfg", "experiment = measure\nstate = up\nformat = csv\n")
    with pytest.raises(ConfigError):
        load_config(path, "measure")


def test_ctc_solve_with_named_scenario(tmp_path):
    path = write(tmp_path, "c.cfg", "experiment = ctc-solve\nscenario = qubit_flip\n")
    fmt, args = load_config(path, "ctc-solve")
    scenario = args.pop("scenario")
    assert (fmt, args) == ("json", {"scenario_name": "qubit_flip", "mode": "strict",
                                    "method": "iterate", "cr_state": "zero"})
    assert scenario.ctc_ids == ("loop",)


def test_ctc_scan_requires_samples_and_seed(tmp_path):
    path = write(tmp_path, "c.cfg", "experiment = ctc-scan\nscenario = qubit_flip\n")
    with pytest.raises(ConfigError):
        load_config(path, "ctc-scan")
    ok = write(tmp_path, "c2.cfg",
               "experiment = ctc-scan\nscenario = qubit_flip\nsamples = 10\nseed = 3\n")
    fmt, args = load_config(ok, "ctc-scan")
    scenario = args.pop("scenario")
    assert (fmt, args) == ("json", {"scenario_name": "qubit_flip", "mode": "strict",
                                    "samples": 10, "seed": 3})
    assert scenario.ctc_ids == ("loop",)


def test_scenario_file_with_inline_unitary(tmp_path):
    lay = layout_of(("mem", ("b0", "b1")), ("loop", ("b0", "b1")))
    u = UnitaryOperator(lay, np.eye(4))
    text = "cr_ids = mem\nctc_ids = loop\nunitary:\n" + serialize_unitary(u)
    path = write(tmp_path, "inline.scenario", text)
    sc = load_scenario_file(path)
    assert sc.cr_ids == ("mem",) and sc.ctc_ids == ("loop",)
    assert np.array_equal(sc.loop_unitary.matrix, np.eye(4))


def test_scenario_file_partition_must_match_unitary(tmp_path):
    lay = layout_of(("mem", ("b0", "b1")), ("loop", ("b0", "b1")))
    u = UnitaryOperator(lay, np.eye(4))
    text = "cr_ids = mem\nctc_ids = wrong\nunitary:\n" + serialize_unitary(u)
    with pytest.raises(ConfigError):
        load_scenario_file(write(tmp_path, "bad.scenario", text))


def _cr_coupled_file_text(sep: str = "\n") -> str:
    """cr_coupled's loop as a scenario file; sep ends its first line."""
    u = grandfather_scenario("cr_coupled").loop_unitary
    return f"cr_ids = memory{sep}ctc_ids = loop\nunitary:\n" + serialize_unitary(u)


def _is_cr_coupled(sc) -> bool:
    ref = grandfather_scenario("cr_coupled")
    return ((sc.layout, sc.cr_ids, sc.ctc_ids) == (ref.layout, ref.cr_ids, ref.ctc_ids)
            and np.array_equal(sc.loop_unitary.matrix, ref.loop_unitary.matrix))


def test_config_referencing_scenario_file(tmp_path):
    write(tmp_path, "cr.scenario", _cr_coupled_file_text())
    path = write(tmp_path, "c.cfg",
                 "experiment = ctc-solve\nscenario_file = cr.scenario\nmethod = spectral\n")
    fmt, args = load_config(path, "ctc-solve")
    assert _is_cr_coupled(args.pop("scenario"))
    assert (fmt, args) == ("json", {"scenario_name": "cr.scenario", "mode": "strict",
                                    "method": "spectral", "cr_state": "zero"})


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\u2028", "\u2029", "\x85", "\v", "\f",
                                 "\x1c", "\x1d", "\x1e"])
def test_config_and_scenario_files_end_lines_alike(tmp_path, sep):
    # only LF, CR LF and CR end a line; any other separator joins two entries into one value
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(f"experiment = chsh{sep}grid_resolution = 0.5\n".encode("utf-8"))
    scenario = tmp_path / "s.scenario"
    scenario.write_bytes(_cr_coupled_file_text(sep).encode("utf-8"))
    if sep in ("\n", "\r\n", "\r"):
        assert load_config(str(cfg), "chsh") == ("json", {"angles": None, "grid_resolution": 0.5})
        assert _is_cr_coupled(load_scenario_file(str(scenario)))
        return
    with pytest.raises(ConfigError, match=":1: experiment must be one of"):
        load_config(str(cfg), "chsh")
    with pytest.raises(ConfigError, match="needs 'ctc_ids = ...' and a 'unitary:' section"):
        load_scenario_file(str(scenario))


def test_overrides_win_and_are_validated(tmp_path):
    path = write(tmp_path, "s.cfg",
                 "experiment = signal\nalice_angle = 0\nbob_angle = 0\nrounds = 10\nseed = 1\n")
    assert load_config(path, "signal", {"seed": "99", "rounds": "20", "format": "csv"}) == (
        "csv", {"alice_angle": 0.0, "bob_angle": 0.0, "rounds": 20, "seed": 99})
    with pytest.raises(ConfigError, match="^--mode does not apply to signal$"):
        load_config(path, "signal", {"mode": "ray"})  # signal has no mode
    with pytest.raises(ConfigError, match="^--rounds: rounds must be in"):
        load_config(path, "signal", {"rounds": "0"})


def test_duplicate_keys_rejected(tmp_path):
    path = write(tmp_path, "m.cfg", "experiment = measure\nstate = up\nstate = down\n")
    with pytest.raises(ConfigError):
        load_config(path, "measure")


def test_scenario_file_duplicate_keys_rejected_with_line(tmp_path):
    path = write(tmp_path, "d.scenario", "cr_ids = memory\ncr_ids = loop\n")
    with pytest.raises(ConfigError) as err:
        load_scenario_file(path)
    assert "duplicate key 'cr_ids'" in str(err.value)
    assert ":2:" in str(err.value)


def test_chsh_grid_resolution_must_leave_four_angles(tmp_path):
    # round(2*pi / 3.0) == 2 grid angles; round(2*pi / 1.5) == 4 is the coarsest grid
    path = write(tmp_path, "c.cfg", "experiment = chsh\ngrid_resolution = 3.0\n")
    with pytest.raises(ConfigError) as err:
        load_config(path, "chsh")
    assert path in str(err.value) and "fewer than 4 grid angles" in str(err.value)
    ok = write(tmp_path, "c2.cfg", "experiment = chsh\ngrid_resolution = 1.5\n")
    assert load_config(ok, "chsh") == ("json", {"angles": None, "grid_resolution": 1.5})


def test_counts_are_capped_at_max_count(tmp_path):
    # loading allocates nothing, so the cap itself can be checked without a run
    head = {"signal": "experiment = signal\nalice_angle = 0\nbob_angle = 0\nseed = 1\n",
            "ctc-scan": "experiment = ctc-scan\nscenario = qubit_flip\nseed = 1\n"}
    for kind, key in (("signal", "rounds"), ("ctc-scan", "samples")):
        ok = write(tmp_path, "ok.cfg", head[kind] + f"{key} = {MAX_COUNT}\n")
        assert load_config(ok, kind)[1][key] == MAX_COUNT
        big = write(tmp_path, "big.cfg", head[kind] + f"{key} = {MAX_COUNT + 1}\n")
        line = head[kind].count("\n") + 1
        with pytest.raises(ConfigError, match=f"big.cfg:{line}: {key} must be in"):
            load_config(big, kind)
    small = write(tmp_path, "s.cfg", head["signal"] + "rounds = 10\n")
    assert load_config(small, "signal", {"rounds": str(MAX_COUNT)})[1]["rounds"] == MAX_COUNT
    with pytest.raises(ConfigError, match="^--rounds: rounds must be in"):
        load_config(small, "signal", {"rounds": str(MAX_COUNT + 1)})
    grid = "experiment = chsh\ngrid_resolution = {}\n"
    fine = 2.0 * np.pi / (MAX_COUNT / 2)
    assert load_config(write(tmp_path, "g.cfg", grid.format(fine)), "chsh") == (
        "json", {"angles": None, "grid_resolution": fine})
    with pytest.raises(ConfigError, match=f"g.cfg:2: grid_resolution .* over {MAX_COUNT}"):
        load_config(write(tmp_path, "g.cfg", grid.format(fine / 4)), "chsh")


def test_comments_and_blank_lines_ignored(tmp_path):
    path = write(tmp_path, "m.cfg",
                 "# a comment\n\nexperiment = measure\nstate = up  # trailing\n")
    assert load_config(path, "measure") == ("json", {"state": "up", "rounds": None, "seed": None})
