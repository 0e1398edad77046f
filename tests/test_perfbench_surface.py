"""The benchmark scripts run against the library as it stands.

perfbench/run.py and perfbench/traced.py call the library by name:
`PlaneEngine.run`, `matching_bound`, `NoiseModel(mode=)`,
`ExperimentConfig.channel`, `load_report(...).rows` and more. One tiny
point goes through their own functions here, so renaming any of those
fails this test rather than a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run, traced
from workloads import Point

seed, out = 3, Path(sys.argv[2])
point = Point("bb-hetero", "qutrit", 2, 0.1, 64)
cli = run._import_hetqram()
code = cli.main(point.argv(seed, str(out)))
ok, mean = run.check_csv(out, point, seed)
trace = traced.WorkloadTrace(seed)
trace.trace_point(0, point)
trace.finish([mean], [0.0])
values = trace.values()
print(json.dumps({
    "code": code,
    "csv_ok": ok,
    "decode_ok": run.check_decode(point, seed, 0),
    "point_ok": trace.point_ok,
    "metrics": sorted(trace.metrics()),
    "values": {k: values[k] for k in (
        "check.count_mismatches", "check.mean_match_points",
        "check.noise_free_trials", "check.noise_free_unit_trials",
        "engine.batches", "harness.points")},
}))
"""


def test_traced_point_runs_through_the_benchmark_functions(tmp_path):
    # no bytecode: the run leaves nothing under perfbench/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"), str(tmp_path / "point.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["code"] == 0 and got["csv_ok"] and got["decode_ok"]
    assert got["point_ok"] == [True]
    assert "check.count_mismatches" in got["metrics"]
    assert got["values"] == {
        "check.count_mismatches": 0,
        "check.mean_match_points": 1,
        "check.noise_free_trials": 128,
        "check.noise_free_unit_trials": 128,
        "engine.batches": 1,
        "harness.points": 1,
    }
