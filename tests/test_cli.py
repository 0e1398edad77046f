"""CLI subcommands, config-file handling, and exit codes."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

from hetqram import harness
from hetqram.cli import _COMMON_KEYS, main
from hetqram.harness import (
    ARCHITECTURES,
    REPORT_FIELDS,
    ExperimentConfig,
    compare_resources,
    matching_bound,
    report_to_csv,
    rows_to_text,
    run_sweep,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_process(args, timeout=None):
    """`python -m hetqram.cli args` in a subprocess that imports the
    package from this checkout's `src`, installed or not."""
    return subprocess.run(
        [sys.executable, "-m", "hetqram.cli", *args], capture_output=True, text=True,
        timeout=timeout, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def test_sim_stdout_csv(capsys):
    code, out, _ = run_cli(
        ["sim", "--arch", "bb-hetero", "--n", "2", "--trials", "50", "--seed", "4"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    assert rows[0]["architecture"] == "bb-hetero"
    assert 0.0 <= float(rows[0]["mean_infidelity"]) <= 1.0


def test_sim_basis_mode_notes_uncounted_phase_errors(capsys):
    """`sim --address-mode basis` prints one `note:` line on stderr, that
    phase (Z) errors are global in sampled-basis mode and go uncounted;
    stdout holds only the report and the exit code stays 0. Superposition
    mode prints no note."""
    point = ["sim", "--arch", "bb-hetero", "--n", "3", "--trials", "50", "--seed", "4"]
    code, out, err = run_cli([*point, "--address-mode", "basis"], capsys)
    assert code == 0
    (note,) = err.splitlines()
    assert note.startswith("note: ") and "phase (Z)" in note and "uncounted" in note
    assert len(list(csv.DictReader(out.splitlines()))) == 1
    code, out, err = run_cli(point, capsys)
    assert code == 0 and err == ""
    assert len(list(csv.DictReader(out.splitlines()))) == 1


def test_sim_json_to_file(tmp_path, capsys):
    path = str(tmp_path / "out.json")
    code, _, _ = run_cli(
        ["sim", "--arch", "walker", "--n", "2..3", "--trials", "40", "--seed", "2",
         "--format", "json", "--out", path],
        capsys,
    )
    assert code == 0
    data = json.loads(open(path).read())
    assert [d["n"] for d in data] == [2, 3]
    assert all(d["router_kind"] == "qutrit" for d in data)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# sweep settings\narch = bb-hetero\nn = 2\ntrials = 30\nseed = 9\np-prime = 0.2\n"
    )
    code, out, _ = run_cli(["sim", "--config", str(cfg), "--trials", "35"], capsys)
    assert code == 0
    row = next(csv.DictReader(out.splitlines()))
    assert row["trials"] == "35"  # flag wins
    assert row["p_prime"] == "0.2"  # file value survives


def test_config_file_bad_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 9\n")
    code, _, err = run_cli(["sim", "--config", str(cfg)], capsys)
    assert code == 2
    assert "frobnicate" in err


@pytest.mark.parametrize("command", ["sim", "bounds"])
@pytest.mark.parametrize("flag,value,message", [
    ("--p-prime", "1.5", "--p-prime must lie in (0, 1)"),
    ("--p-prime", "0", "--p-prime must lie in (0, 1)"),
    ("--epsilon-prime", "-1", "--epsilon-prime must be > 0"),
])
def test_surface_param_errors_name_the_flag(capsys, command, flag, value, message):
    """An out-of-range --p-prime or --epsilon-prime exits 2 with an error
    that names the flag, not the library field it sets."""
    code, _, err = run_cli([command, "--n", "2", "--trials", "5", flag, value], capsys)
    assert code == 2
    assert err == f"error: {message}\n"


def test_invalid_arch_exit_2(capsys):
    code, _, _ = run_cli(["sim", "--arch", "nope", "--n", "2"], capsys)
    assert code == 2


def test_bad_n_range_exit_2(capsys):
    code, _, _ = run_cli(["sim", "--arch", "bb-hetero", "--n", "9..4"], capsys)
    assert code == 2


def test_resource_limit_exit_3(capsys):
    code, _, err = run_cli(
        ["sim", "--arch", "bb-hetero", "--n", "12", "--trials", "10"], capsys
    )
    assert code == 3
    assert "basis" in err


def test_compare_simulates_to_the_ceiling_of_its_address_mode(capsys):
    """`compare --mode simulated` runs a point as deep as `sim` can in its
    address mode: at n=12, past the superposition ceiling, sampled-basis
    mode gives `sim`'s mean as the target, and superposition exits 3."""
    point = ["--arch", "bb-hetero", "--n", "12", "--trials", "100", "--seed", "5"]
    code, out, err = run_cli(["compare", *point, "--mode", "simulated",
                              "--address-mode", "basis"], capsys)
    assert code == 0, err
    (row,) = list(csv.DictReader(io.StringIO(out)))
    code, out, err = run_cli(["sim", *point, "--address-mode", "basis"], capsys)
    assert code == 0, err
    (sim,) = list(csv.DictReader(io.StringIO(out)))
    assert float(row["target_infidelity"]) == max(float(sim["mean_infidelity"]), 1e-12)
    code, _, err = run_cli(["compare", *point, "--mode", "simulated"], capsys)
    assert code == 3
    assert "ceiling" in err


def test_sweep_past_ceiling_exits_3_before_simulating(capsys, monkeypatch):
    """A sweep whose last points exceed the superposition ceiling stops
    before its first point is simulated: no engine is ever built."""
    built = []

    def no_engine(*args, **kwargs):
        built.append(args)
        raise AssertionError("a point was simulated before the ceiling check")

    monkeypatch.setattr(harness, "PlaneEngine", no_engine)
    code, out, err = run_cli(
        ["sim", "--arch", "uniform-bb", "--n", "9..11", "--trials", "3"], capsys
    )
    assert (code, out, built) == (3, "", [])
    assert "capped at n=10" in err
    # an invalid depth anywhere in the sweep is still reported first
    code, _, err = run_cli(
        ["sim", "--arch", "uniform-bb", "--n", "11..17", "--trials", "3"], capsys
    )
    assert (code, built) == (2, [])
    assert "depth must be <= 16" in err


def test_io_failure_exit_4(capsys, tmp_path):
    code, _, _ = run_cli(
        ["sim", "--arch", "bb-hetero", "--n", "2", "--trials", "10",
         "--out", str(tmp_path / "missing" / "x.csv")],
        capsys,
    )
    assert code == 4


def test_bounds_command(capsys):
    code, out, _ = run_cli(
        ["bounds", "--arch", "ft-hetero,bb-hetero", "--n", "20..21", "--routers", "qubit"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 4
    for row in rows:
        assert float(row["bound"]) > 0


def test_resources_command(capsys):
    code, out, _ = run_cli(
        ["resources", "--arch", "bb-hetero", "--n", "40", "--efficient"], capsys
    )
    assert code == 0
    row = next(csv.DictReader(out.splitlines()))
    assert float(row["per_entry_overhead"]) == pytest.approx(82, rel=0.05)
    # a hetero row prices its profile, so --profile odd-paired is --efficient
    for arch in ("ft-hetero", "bb-hetero"):
        base = ["resources", "--arch", arch, "--n", "6"]
        code, efficient, _ = run_cli(base + ["--efficient"], capsys)
        assert code == 0
        assert run_cli(base + ["--profile", "odd-paired"], capsys)[:2] == (0, efficient)
        assert f"{arch},6,True," in efficient
        assert f"{arch},6,False," in run_cli(base + ["--profile", "linear"], capsys)[1]
    assert "bb-hetero,6,True,4599," in efficient
    # uniform rows price one distance whatever --efficient says
    code, out, _ = run_cli(
        ["resources", "--arch", "uniform-bb,walker", "--n", "6", "--efficient"], capsys)
    assert code == 0
    assert [row["efficient"] for row in csv.DictReader(out.splitlines())] == ["False"] * 2


def test_compare_command(capsys):
    code, out, _ = run_cli(["compare", "--arch", "bb-hetero", "--n", "30"], capsys)
    assert code == 0
    row = next(csv.DictReader(out.splitlines()))
    assert float(row["ratio"]) >= 4.0


def test_compare_rows_for_every_architecture(capsys):
    code, out, _ = run_cli(["compare", "--arch", "ft-hetero,bb-hetero", "--n", "10"], capsys)
    assert code == 0
    rows = [astuple(compare_resources(10, ExperimentConfig(), architecture=arch))
            for arch in ("ft-hetero", "bb-hetero")]
    assert out == rows_to_text(out.splitlines()[0].split(","), rows, "csv")


def test_absent_flags_take_the_library_defaults(capsys):
    code, out, _ = run_cli(["sim", "--n", "2", "--trials", "20"], capsys)
    assert code == 0
    assert out == report_to_csv(run_sweep(ExperimentConfig(n_values=(2,), trials=20)))


def test_fit_command(tmp_path, capsys):
    report = tmp_path / "sweep.csv"
    lines = [
        "architecture,router_kind,n,p_prime,trials,mean_infidelity,"
        "ci95_low,ci95_high,analytic_bound,seed"
    ]
    for n in (4, 5, 6, 7):
        y = 1e-3 * n * n
        lines.append(f"uniform-bb,qutrit,{n},0.1,100,{y},{y},{y},1.0,7")
    report.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(["fit", "--in", str(report)], capsys)
    assert code == 0
    row = next(csv.DictReader(out.splitlines()))
    assert float(row["slope"]) == pytest.approx(2.0, abs=1e-6)
    assert row["points"] == "4"


def test_console_entry_point_runs():
    proc = run_cli_process(["resources", "--arch", "ft-hetero", "--n", "5"])
    assert proc.returncode == 0
    assert "physical_qubits" in proc.stdout


def test_deterministic_csv_bytes(tmp_path, capsys):
    args = ["sim", "--arch", "bb-hetero,uniform-bb", "--n", "2..3",
            "--trials", "60", "--seed", "13", "--format", "csv"]
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--out", p1]) == 0
    assert main(args + ["--out", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_config_file_mirrors_every_flag(tmp_path, capsys):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        "arch = uniform-bb\n"
        "routers = qubit\n"
        "n = 3..4\n"
        "p-prime = 0.15\n"
        "epsilon-prime = 0.02\n"
        "c = 3\n"
        "s = 2\n"
        "trials = 25\n"
        "seed = 77\n"
        "profile = uniform:5\n"
        "address-mode = superposition\n"
        "database = all_one\n"
        "round-trip = on\n"
        "batch-size = 16\n"
        "format = json\n"
    )
    code, out, _ = run_cli(["sim", "--config", str(cfg)], capsys)
    assert code == 0
    data = json.loads(out)
    assert [d["n"] for d in data] == [3, 4]
    assert data[0]["router_kind"] == "qubit"
    assert data[0]["p_prime"] == 0.15
    assert data[0]["trials"] == 25
    assert data[0]["seed"] == 77


@pytest.mark.parametrize("command", ["sim", "bounds", "resources", "compare"])
def test_subcommand_help_lists_every_common_flag(command, capsys):
    """The shared flags are declared once, on a parent parser; each
    subcommand that takes them still lists every one, and --config, in
    its help."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    missing = [key for key in ("config",) + _COMMON_KEYS if f"--{key}" not in out]
    assert not missing, (command, missing)


def _sim_csv(capsys, *extra):
    code, out, _ = run_cli(
        ["sim", "--arch", "ft-hetero,bb-hetero,uniform-bb", "--routers", "qubit",
         "--n", "3", "--p-prime", "0.3", "--trials", "200", "--seed", "5", *extra],
        capsys,
    )
    assert code == 0
    return {row["architecture"]: row for row in csv.DictReader(out.splitlines())}


def test_sim_default_protocol_per_architecture(capsys):
    """Without --round-trip, heterogeneous trees run descent-only and the
    uniform tree runs its round trip; explicit on/off keep their meaning."""
    default = _sim_csv(capsys)
    on = _sim_csv(capsys, "--round-trip", "on")
    off = _sim_csv(capsys, "--round-trip", "off")
    for arch in ("ft-hetero", "bb-hetero"):
        assert default[arch] == off[arch]
        assert default[arch]["mean_infidelity"] != on[arch]["mean_infidelity"]
    assert default["uniform-bb"] == on["uniform-bb"]
    assert default["uniform-bb"]["mean_infidelity"] != off["uniform-bb"]["mean_infidelity"]


def test_explicit_round_trip_on_runs_round_trip(capsys):
    config = ExperimentConfig(
        architectures=("bb-hetero",), n_values=(3,), trials=200, seed=5, round_trip=True
    )
    code, out, _ = run_cli(
        ["sim", "--arch", "bb-hetero", "--n", "3", "--trials", "200", "--seed", "5",
         "--round-trip", "on"],
        capsys,
    )
    assert code == 0
    assert out == report_to_csv(run_sweep(config))


@pytest.mark.parametrize("value", ["on", "off", "yes", "1"])
def test_config_file_round_trip_validated(tmp_path, capsys, value):
    cfg = tmp_path / "rt.cfg"
    cfg.write_text(f"arch = bb-hetero\nn = 2\ntrials = 20\nround-trip = {value}\n")
    code, _, err = run_cli(["sim", "--config", str(cfg)], capsys)
    if value in ("on", "off"):
        assert code == 0
    else:
        assert code == 2
        assert "round-trip" in err


def _report(*rows: str) -> str:
    """A sweep CSV of uniform-bb qutrit rows, each given from `n` on."""
    return "".join(line + "\n" for line in (",".join(REPORT_FIELDS),) + tuple(
        "uniform-bb,qutrit," + row for row in rows))


@pytest.mark.parametrize(
    "args,config",
    [
        (["sim", "--n", "20"], None),
        (["sim", "--profile", "uniform:0"], None),
        (["sim", "--arch", "uniform-bb", "--profile", "linear"], None),
        (["bounds", "--arch", "uniform-bb", "--profile", "linear"], None),
        (["sim", "--arch", "bb-hetero", "--n", "3", "--trials", "200",
          "--profile", "uniform:5"], None),
        (["bounds", "--arch", "ft-hetero,bb-hetero", "--profile", "uniform:5"], None),
        (["sim"], "trials = abc\n"),
        (["bounds", "--n", "0"], None),
        (["sim", "--n", "2", "--trials", "10"], "format = xml\n"),
        (["bounds"], "format = xml\n"),
        (["compare"], "mode = fast\n"),
        (["compare", "--n", "8", "--routers", "qubit"], None),
        (["compare", "--n", "3", "--trials", "50", "--profile", "uniform:3",
          "--mode", "simulated"], None),
        (["compare", "--profile", "odd-paired"], None),
        (["resources"], "efficient = maybe\n"),
        (["resources", "--arch", "uniform-bb"], "distance = abc\n"),
        (["resources", "--arch", "uniform-bb"], "distance = 0\n"),
        (["sim", "--n", "2", "--trials", "10"], "in = nothere.csv\n"),
        (["sim", "--n", "2", "--trials", "10"], "mode = simulated\n"),
        (["bounds"], "efficient = yes\n"),
        (["sim", "--n", "2", "--trials", "10"], "distance = 5\n"),
        (["sim", "--n", "2", "--trials", "10"], "tri = 5\n"),
        (["sim", "--n", "2", "--trials", "10"], "config = other.cfg\n"),
        (["sim", "--routers", "foo"], None),
        (["sim", "--trials", "abc"], None),
        ([], None),
        (["resources", "--arch", "uniform-bb", "--profile", "linear", "--n", "3"], None),
        (["resources", "--arch", "walker", "--profile", "odd-paired", "--n", "3"], None),
        (["resources", "--arch", "bb-hetero", "--profile", "uniform:5"], None),
        (["fit"], _report("4,0.1,100,0.04,0.03,0.05,1.0,7", "5,0.1,100,0.05,0.04,0.06,1.0,7",
                          "6,0.1,100,0.06,0.05,0.07,1.0,7")),
        (["fit"], _report("x,0.1,100,0.04,0.03,0.05,1.0,7")),
        (["fit"], '[{"architecture": "uniform-bb", "router_kind": "qutrit", "n": 4}]\n'),
        (["fit"], _report("4,0.1,100,0.04,0.05,0.06,1.0,7")),
        (["compare", "--arch", "bb-hetero,walker"], None),
        (["resources", "--arch", "bb-hetero", "--n", "6", "--efficient", "--profile", "linear"],
         None),
    ],
    ids=["sim-n20", "sim-uniform0", "sim-uniform-bb-linear", "bounds-uniform-bb-linear",
         "sim-hetero-uniform", "bounds-hetero-uniform",
         "config-trials-abc", "bounds-n0", "config-sim-format-xml", "config-bounds-format-xml",
         "config-mode-fast", "compare-routers-qubit", "compare-simulated-uniform",
         "compare-odd-paired", "config-efficient-maybe", "config-distance-abc",
         "config-distance-0", "config-in-unknown", "config-sim-mode",
         "config-bounds-efficient", "config-sim-distance", "config-key-abbreviated",
         "config-key-config", "sim-routers-foo", "sim-trials-abc", "no-subcommand",
         "resources-uniform-bb-linear", "resources-walker-odd-paired",
         "resources-hetero-uniform", "fit-three-rows", "fit-bad-field",
         "fit-json-missing-key", "fit-ci-outside-mean", "compare-walker",
         "resources-efficient-linear"],
)
def test_invalid_config_exits_2_without_traceback(tmp_path, args, config):
    """Run as a subprocess so an uncaught exception would show its traceback.
    `config` is the text of the config file, or for `fit` of the report."""
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        args = args + ["--in" if args == ["fit"] else "--config", str(cfg)]
    proc = run_cli_process(args, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def _cli_stdout(args, config=None, tmp_path=None):
    """stdout of `python -m hetqram.cli`, which must exit 0."""
    if config is not None:
        cfg = tmp_path / "cmd.cfg"
        cfg.write_text(config)
        args = args + ["--config", str(cfg)]
    proc = run_cli_process(args, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_config_file_mode_is_read_and_flag_overrides(tmp_path):
    base = ["compare", "--arch", "bb-hetero", "--n", "3", "--trials", "200"]
    simulated = _cli_stdout(base + ["--mode", "simulated"])
    analytic = _cli_stdout(base + ["--mode", "analytic"])
    assert simulated != analytic
    assert _cli_stdout(base, "mode = simulated\n", tmp_path) == simulated
    assert _cli_stdout(base + ["--mode", "analytic"], "mode = simulated\n", tmp_path) == analytic


@pytest.mark.parametrize("value", ["yes", "true", "on", "1"])
def test_config_file_efficient_is_read(tmp_path, value):
    base = ["resources", "--arch", "bb-hetero", "--n", "3"]
    efficient = _cli_stdout(base + ["--efficient"])
    assert "bb-hetero,3,True," in efficient
    assert _cli_stdout(base, f"efficient = {value}\n", tmp_path) == efficient
    assert _cli_stdout(base, "efficient = no\n", tmp_path) == _cli_stdout(base)


def test_config_file_distance_is_read_and_flag_overrides(tmp_path):
    base = ["resources", "--arch", "uniform-bb", "--n", "3"]
    five = _cli_stdout(base + ["--distance", "5"])
    assert five != _cli_stdout(base)
    assert _cli_stdout(base, "distance = 5\n", tmp_path) == five
    assert _cli_stdout(base + ["--distance", "5"], "distance = 7\n", tmp_path) == five


def test_analytic_commands_accept_depths_past_the_simulator(capsys):
    for cmd in ("bounds", "resources"):
        code, out, _ = run_cli([cmd, "--arch", "bb-hetero,uniform-bb", "--n", "17..20"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 9


@pytest.mark.parametrize("kind", ["qutrit", "qubit"])
def test_bounds_rows_equal_matching_bound(capsys, kind):
    config = ExperimentConfig(router_kind=kind)
    code, out, _ = run_cli(
        ["bounds", "--arch", ",".join(ARCHITECTURES), "--routers", kind, "--n", "1..12"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == len(ARCHITECTURES) * 12
    for row in rows:
        arch, n = row["architecture"], int(row["n"])
        expect = matching_bound(
            arch, row["router_kind"], n, config.params, config.cost, config.profile_for(arch, n)
        )
        assert row["bound"] == repr(expect)
        assert row["router_kind"] == ("qutrit" if arch == "walker" else kind)


def test_sim_golden_csv(capsys):
    """`hetqram sim` output, byte for byte, for every architecture, router kind
    and --round-trip setting (absent, on, off) at a fixed seed. A change that
    alters the RNG draw order on purpose regenerates tests/data/sim_golden.csv
    and says why."""
    parts = []
    for kind in ("qutrit", "qubit"):
        for round_trip in ([], ["--round-trip", "on"], ["--round-trip", "off"]):
            code, out, _ = run_cli(
                ["sim", "--arch", ",".join(ARCHITECTURES), "--routers", kind,
                 "--n", "2..4", "--p-prime", "0.2", "--trials", "500", "--seed", "11",
                 *round_trip],
                capsys,
            )
            assert code == 0
            parts.append(out)
    golden = Path(__file__).parent / "data" / "sim_golden.csv"
    assert "".join(parts) == golden.read_text()


#: depths for the analytic golden: every small tree, then up to the paper's 30 and 40
_GOLDEN_N = "1,2,3,4,5,6,7,8,9,10,12,16,20,30,40"
_NOISE = ([], ["--p-prime", "0.01"])
_COST = ([], ["--c", "3", "--s", "2"])


def analytic_outputs() -> dict[str, str]:
    """stdout of `bounds`, `resources` and `compare --mode analytic` over a
    fixed grid, keyed by the command line: every architecture and router
    kind, depths up to 40, two values each of p' and of c/s, and the
    --efficient, --distance and --profile flags. Regenerate the golden file
    with `python -c "import json, test_cli as t; print(json.dumps(
    t.analytic_outputs(), indent=1))"` from `tests/`."""
    every = ",".join(ARCHITECTURES)
    hetero = "ft-hetero,bb-hetero"
    grid = [
        ["bounds", "--arch", every, "--routers", kind, "--n", _GOLDEN_N, *noise, *cost]
        for kind in ("qutrit", "qubit") for noise in _NOISE for cost in _COST
    ] + [
        ["bounds", "--arch", "ft-hetero,bb-hetero,walker", "--n", _GOLDEN_N,
         "--profile", "odd-paired"],
        ["bounds", "--arch", "ft-hetero,bb-hetero,walker", "--routers", "qubit",
         "--n", _GOLDEN_N, "--profile", "linear", "--p-prime", "0.01"],
        ["bounds", "--arch", "uniform-bb,walker", "--routers", "qubit", "--n", _GOLDEN_N,
         "--profile", "uniform:9", "--p-prime", "0.01", "--format", "json"],
        ["resources", "--arch", every, "--n", _GOLDEN_N],
        ["resources", "--arch", every, "--routers", "qubit", "--n", _GOLDEN_N,
         "--distance", "5"],
        ["resources", "--arch", hetero, "--n", _GOLDEN_N, "--efficient"],
        ["resources", "--arch", hetero, "--n", _GOLDEN_N, "--profile", "linear"],
        ["resources", "--arch", "uniform-bb,walker", "--n", _GOLDEN_N,
         "--profile", "uniform:9"],
        ["resources", "--arch", "uniform-bb,walker", "--n", _GOLDEN_N,
         "--profile", "uniform:9", "--distance", "5", "--format", "json"],
    ] + [
        ["compare", "--arch", hetero, "--n", _GOLDEN_N, "--mode", "analytic", *noise, *cost]
        for noise in _NOISE for cost in _COST
    ] + [
        ["compare", "--arch", hetero, "--n", _GOLDEN_N, "--profile", "linear",
         "--epsilon-prime", "0.02", "--format", "json"],
    ]
    outputs = {}
    for args in grid:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(args) == 0, args
        outputs[" ".join(args)] = out.getvalue()
    return outputs


def test_analytic_golden():
    """The analytic subcommands' output, byte for byte (see
    `analytic_outputs`); a change to a bound, a coherence time or a
    resource table on purpose regenerates tests/data/analytic_golden.json
    and says why."""
    golden = json.loads((Path(__file__).parent / "data" / "analytic_golden.json").read_text())
    assert analytic_outputs() == golden
