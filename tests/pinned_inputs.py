"""The pinned configs, whose report bytes tests/bench_manifest.json keeps beside the benchmark's:
seeds that need the 64-bit wraparound, every canonical ctc-solve scenario, method, CR input
and mode, both scan modes, the benchmark's Haar 3+3 scan shape and generic strict solves.
A case is named <test>/<id>: test_cli's test_<test>_reports_match_pinned_digests checks it.
Each case gets its own directory, since a ctc-* report prints its scenario file's name.
"""

from itertools import product
from pathlib import Path

from test_bench_tracer import _load_bench

Command = _load_bench("inputs").Command

SAMPLED = {
    "signal_csv": "experiment = signal\nalice_angle = 0.3\nbob_angle = -1.1\n"
                  "rounds = 64\nformat = csv\n",
    "signal_json": "experiment = signal\nalice_angle = 2.5\nbob_angle = 0.7\n"
                   "rounds = 500\nformat = json\n",
    "measure_bell": "experiment = measure\nstate = bell\nrounds = 300\n",
}
CHSH = {
    "optimal_angles": "angle_a1 = 0.0\nangle_a2 = 1.5707963267948966\n"
                      "angle_b1 = -0.7853981633974483\nangle_b2 = 0.7853981633974483\n",
    "generic_angles": "angle_a1 = -2.9\nangle_a2 = 0.31\nangle_b1 = 1.7\nangle_b2 = -0.05\n",
    "grid_pi_over_180": "grid_resolution = 0.017453292519943295\n",
}
SEEDS = {"sampled": (-5, 2**63, 2**64 - 1), "scan": (0, 2**63, 2**64 - 1)}
# Haar loops as committed scenario files, fixtures/haar_<CR qubits>_<loop qubits>.scenario, with
# qubits c0, c1, ... as CR and l0, l1, ... as the loop. Each was written once from a QR-built Haar
# unitary (haar_3_3: oracles.haar_unitary(64, SplitMix64(7)); the others: numpy's default_rng at
# seeds 11, 12 and 13), so no BLAS kernel moves a pinned input.
FIXTURES = Path(__file__).with_name("fixtures")
# the generic strict solves' loops; none has an eigenvalue 1
GENERIC_SCENARIOS = ("haar_1_2", "haar_2_2", "haar_2_1")
GENERIC_SOLVE = "experiment = ctc-solve\nscenario_file = g.scenario\nmethod = {}\nmode = strict\n"


def _fixture(name: str) -> str:
    return (FIXTURES / f"{name}.scenario").read_text(encoding="utf-8")


def write(directory, name: str, text: str) -> str:
    """Write text to directory / name; its path as a string."""
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def generic_solve_config(directory, name: str, method: str) -> str:
    """A strict ctc-solve config on the generic loop `name`, written with it into directory."""
    write(directory, "g.scenario", _fixture(name))
    return write(directory, "c.cfg", GENERIC_SOLVE.format(method))


def _cases():
    """(case, kind, config text, {scenario file name: text}) of every pinned case."""
    for (name, body), seed in product(SAMPLED.items(), SEEDS["sampled"]):
        yield f"sampled/{name}-{seed}", name.split("_")[0], body + f"seed = {seed}\n", {}
    for name, body in CHSH.items():
        yield f"chsh/{name}", "chsh", "experiment = chsh\n" + body, {}
    for scenario, method, cr_state, mode in product(("qubit_flip", "cr_coupled"), (
            "iterate", "spectral"), ("zero", "one", "mixed"), ("strict", "ray")):
        yield (f"ctc_solve/{scenario}-{method}-{cr_state}-{mode}", "ctc-solve",
               f"experiment = ctc-solve\nscenario = {scenario}\nmethod = {method}\n"
               f"cr_state = {cr_state}\nmode = {mode}\n", {})
    for scenario, mode, seed in product(("qubit_flip", "cr_coupled"), ("strict", "ray"),
                                        SEEDS["scan"]):
        yield (f"ctc_scan/{scenario}-{mode}-{seed}", "ctc-scan", f"experiment = ctc-scan\n"
               f"scenario = {scenario}\nmode = {mode}\nsamples = 400\nseed = {seed}\n", {})
    haar = {"haar.scenario": _fixture("haar_3_3")}
    for seed in SEEDS["scan"]:
        yield (f"haar_scan/{seed}", "ctc-scan", "experiment = ctc-scan\nscenario_file = "
               f"haar.scenario\nmode = ray\nsamples = 2000\nseed = {seed}\n", haar)
    for name, method in product(GENERIC_SCENARIOS, ("iterate", "spectral")):
        yield (f"generic_ctc_solve/{name}-{method}", "ctc-solve", GENERIC_SOLVE.format(method),
               {"g.scenario": _fixture(name)})


def generate(outdir) -> list:
    """Write every pinned case into outdir/<case>; one Command per case, cid the case name."""
    commands = []
    for case, kind, config, scenarios in _cases():
        (outdir / case).mkdir(parents=True)
        for name, text in scenarios.items():
            write(outdir / case, name, text)
        commands.append(Command(case, kind, write(outdir / case, "c.cfg", config)))
    return commands
