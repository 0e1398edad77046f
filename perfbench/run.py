"""Sweep benchmark for `hetqram sim`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; hetqram is imported from
`src/`. Each run is one fresh process driving a closed loop with one
client: every sweep point of the workload is an in-process
`hetqram.cli.main(["sim", ...])` call, made only after the previous call
has returned. Passes over the point list repeat while the next one is
expected to end within `--seconds`; there is always at least one.

With `--trace 0` the run reports the end-to-end metrics, untraced. Each
call is timed between two runs of a fixed calibration loop, and its time
is reported in `cal`, units of that loop (see `make_calibration`): the
shared host's speed drifts far more than the bounds allow, and the loop
drifts with it. The unscaled seconds are printed above the result and
reported by the traced run as `cli.wall_s` and `cli.point_s_max`. With
`--trace 1` it makes one pass in which every untraced call is followed by
a replay of the same point through the library's public functions, with
spans around each layer call, and reports the per-layer metrics (see
traced.py); `--seconds` does not apply. Output checks run outside
the timed calls. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in the children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, Point  # noqa: E402

#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 9
#: addresses per point whose noiseless run is decoded and checked
DECODE_SAMPLE = 8
#: calibration loop: pure-Python integer steps, then xor passes over a
#: 16 MiB block (beyond L2); together about 0.1 s on a 2-core Xeon VM
CAL_STEPS = 300_000
CAL_PASSES = 32
CAL_WORDS = 1 << 21


def _import_hetqram():
    """Import hetqram from this checkout's sources, never an installed copy."""
    if not (SRC / "hetqram" / "__init__.py").is_file():
        raise ImportError("no hetqram package under src/")
    from hetqram import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"hetqram was imported from {cli.__file__}")
    return cli


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start until hetqram is imported and the point
    list exists, timed by this process over fresh child interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              cwd=ROOT, text=True) as proc:
            try:
                line = proc.stdout.readline()
                took = time.perf_counter() - start
                proc.stdout.read()
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(took)
    return times


# ---------------------------------------------------------------------------
# output checks (never inside a timed call)


def check_csv(path: Path, point: Point, seed: int) -> tuple[bool, float | None]:
    """Reload one point's CSV; returns (ok, mean infidelity)."""
    from hetqram.harness import load_report

    try:
        rows = load_report(str(path)).rows
    except (OSError, ValueError) as exc:
        print(f"check: {point.label}: CSV does not reload: {exc}", file=sys.stderr)
        return False, None
    if len(rows) != 1:
        print(f"check: {point.label}: {len(rows)} rows", file=sys.stderr)
        return False, None
    row = rows[0]
    ok = (
        row.architecture == point.arch
        and row.n == point.n
        and row.trials == point.trials
        and row.seed == seed
        and 0.0 <= row.mean_infidelity <= 1.0
        and row.ci95_low <= row.mean_infidelity <= row.ci95_high
    )
    if not ok:
        print(f"check: {point.label}: bad row {row}", file=sys.stderr)
    return ok, row.mean_infidelity


def check_decode(point: Point, seed: int, index: int) -> bool:
    """Noiseless runs of a seeded address sample decode to (a, database[a], True)."""
    from hetqram.circuits import run_noiseless

    from traced import build_point

    schedule, database, _ = build_point(point, seed)
    rng = random.Random(seed * 1009 + index)
    for a in rng.sample(range(1 << point.n), min(DECODE_SAMPLE, 1 << point.n)):
        got = schedule.decode(run_noiseless(schedule, schedule.initial_word(a)))
        if got != (a, database[a], True):
            print(f"check: {point.label}: address {a} decodes to {got}", file=sys.stderr)
            return False
    return True


# ---------------------------------------------------------------------------
# untraced closed loop


def make_calibration():
    """A fixed loop, independent of hetqram, timed next to every point call.

    On a shared host the speed of the machine drifts by tens of percent over
    seconds to minutes. Dividing a call's time by the mean of the loop's
    times just before and just after it gives the call's cost in `cal`,
    units of this loop, which cancels most of that drift. The loop mixes
    interpreter work (the reference words) with a numpy memory pass (the
    bit plane and the noise arrays) in about the proportion that tracked
    both workloads best.
    """
    import numpy as np

    block = np.zeros(CAL_WORDS, dtype=np.uint64)

    def calibrate() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(CAL_STEPS):
            acc += (i * i) ^ (i >> 3)
        for _ in range(CAL_PASSES):
            np.bitwise_xor(block, acc & 0xFFFF, out=block)
        return time.perf_counter() - start

    return calibrate


def run_pass(cli, name: str, points: tuple[Point, ...], seed: int, calibrate,
             after=None) -> dict:
    """One pass over the point list; each call is timed alone, between two
    calibration loops, and also reported in `cal` units.

    `after(i, point)`, if given, runs after each call, outside its timing.
    """
    pass_start = time.perf_counter()
    times, rel, ok, blobs = [], [], [], []
    cal_before = calibrate()
    for i, point in enumerate(points):
        out = WORK / f"{name}-{i}.csv"
        if out.exists():
            out.unlink()
        argv = point.argv(seed, str(out))
        # Each real `hetqram sim` call is its own process, so nothing of the
        # previous call may linger into this one's time or peak memory.
        gc.collect()
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = None
        times.append(time.perf_counter() - start)
        cal_after = calibrate()
        rel.append(times[-1] / ((cal_before + cal_after) / 2))
        cal_before = cal_after
        ok.append(rc == 0 and out.exists())
        blobs.append(out.read_bytes() if out.exists() else b"")
        if after is not None:
            after(i, point)
            cal_before = calibrate()
    return {"times": times, "rel": rel, "ok": ok, "blobs": blobs,
            "elapsed": time.perf_counter() - pass_start}


def closed_loop(cli, name: str, points: tuple[Point, ...], seed: int,
                seconds: float, calibrate) -> list[dict]:
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, name, points, seed, calibrate))
        longest = max(p["elapsed"] for p in passes)
        if time.perf_counter() - start + longest > seconds:
            break
    return passes


def check_passes(name: str, points: tuple[Point, ...], seed: int,
                 passes: list[dict]) -> tuple[list[bool], list[float | None], str]:
    """Per-point verdict over all passes, the CLI means, and the result hash."""
    first = passes[0]["blobs"]
    point_ok, means = [], []
    for i, point in enumerate(points):
        ok, mean = check_csv(WORK / f"{name}-{i}.csv", point, seed)
        ok = ok and all(p["ok"][i] for p in passes)
        if any(p["blobs"][i] != first[i] for p in passes):
            print(f"check: {point.label}: CSV differs between passes", file=sys.stderr)
            ok = False
        point_ok.append(ok and check_decode(point, seed, i))
        means.append(mean)
    digest = hashlib.sha256(b"".join(first)).hexdigest()
    return point_ok, means, digest


def machine_line() -> str:
    import numpy

    return (f"machine nproc={os.cpu_count()} cpu={platform.processor() or platform.machine()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"threads={os.environ['OMP_NUM_THREADS']}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(cli, name: str, seed: int, seconds: float) -> dict:
    points = WORKLOADS[name]
    setup = measure_setup(name, seed)
    calibrate = make_calibration()
    passes = closed_loop(cli, name, points, seed, seconds, calibrate)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    point_ok, _, digest = check_passes(name, points, seed, passes)

    attempted = len(points) * len(passes)
    failed = sum(
        1 for p in passes for i in range(len(points)) if not (p["ok"][i] and point_ok[i])
    )
    # Median of each point over the passes damps the per-call jitter of a
    # shared machine; the sum and the maximum are taken over those medians.
    point_s = [statistics.median(p["times"][i] for p in passes) for i in range(len(points))]
    point_cal = [statistics.median(p["rel"][i] for p in passes) for i in range(len(points))]
    print(f"workload {name} seed {seed} passes {len(passes)} points/pass {len(points)}")
    for i, point in enumerate(points):
        print(f"  point {i:2d} {point.label:44s} {point_s[i]:9.4f} s {point_cal[i]:9.3f} cal"
              f"  trials={point.trials}  {'ok' if point_ok[i] else 'FAILED'}")
    print(f"setup probes (s): {' '.join(f'{t:.4f}' for t in setup)}")
    walls = " ".join(f"{sum(p['times']):.4f}" for p in passes)
    print(f"pass wall (s): {walls}")
    print(f"seconds, not scaled: wall {sum(point_s):.4f} point max {max(point_s):.4f}")
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted} point calls)")
    print(f"result_sha256 {digest}")
    print(machine_line())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_cal": metric(sum(point_cal), "cal"),
            "point_cal_max": metric(max(point_cal), "cal"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


def run_traced(cli, name: str, seed: int) -> dict:
    """One pass in which each untraced call is followed by its traced replay,
    so that both see the machine in the same state."""
    from traced import WorkloadTrace

    points = WORKLOADS[name]
    trace = WorkloadTrace(seed)
    passes = [run_pass(cli, name, points, seed, make_calibration(), after=trace.trace_point)]
    point_ok, cli_means, digest = check_passes(name, points, seed, passes)
    trace.finish(cli_means, passes[0]["times"])
    trace.tracer.write(WORK / f"trace-{name}-seed{seed}.json")
    failed = sum(
        1 for i in range(len(points))
        if not (passes[0]["ok"][i] and point_ok[i] and trace.point_ok[i])
    )
    print(f"workload {name} seed {seed} traced, points {len(points)}")
    trace.print_table()
    print(f"result_sha256 {digest}")
    print(machine_line())
    return {
        "correct": failed == 0,
        "attempted": len(points),
        "failed": failed,
        "metrics": trace.metrics(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        cli = _import_hetqram()
    except ImportError as exc:
        print(f"error: cannot import hetqram from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:  # a child of measure_setup: hetqram is imported
        print(f"ready {len(WORKLOADS[args.workload])}", flush=True)
        return 0

    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            result = run_traced(cli, args.workload, args.seed)
        else:
            result = run_untraced(cli, args.workload, args.seed, args.seconds)
    finally:
        for path in WORK.glob(f"{args.workload}-*.csv"):
            path.unlink()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        print(f"error: metrics {reported} do not match BENCHMARK.json {declared}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
