"""Rewrite the golden files from the generators their tests check.

    PYTHONPATH=src python tests/regen_goldens.py [--check]

writes tests/data/sim_golden.csv (`test_cli.sim_golden_text`),
tests/data/basis_golden.json (`test_engine.basis_golden_fidelities`),
tests/data/analytic_golden.json (`test_cli.analytic_outputs`),
tests/data/schedule_digest.json (`test_circuits.schedule_digests`) and
tests/data/cli_help.txt (`test_cli.cli_help_text`). Run it only for a
change that alters the RNG draw order, a bound, a resource table, a built
schedule or the help text on purpose, and say why in the change; run at
an unchanged commit, it
rewrites every file byte for byte. With --check it writes nothing: it names each file that
would change and exits 1, or exits 0 when every file is as it would write
it. When it rewrites sim_golden.csv, it prints each changed row's z-score
against the row it replaces (`z_scores`).
"""

import csv
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import test_circuits  # noqa: E402
import test_cli  # noqa: E402
import test_engine  # noqa: E402


def goldens() -> dict[Path, str]:
    """Each golden file and the text the current generators give it."""
    data = HERE / "data"
    basis = json.dumps(test_engine.basis_golden_fidelities(), indent=1, sort_keys=True)
    digests = json.dumps(test_circuits.schedule_digests(), indent=1, sort_keys=True)
    return {
        data / "sim_golden.csv": test_cli.sim_golden_text(),
        data / "basis_golden.json": basis + "\n",
        data / "analytic_golden.json": json.dumps(test_cli.analytic_outputs(), indent=1) + "\n",
        data / "schedule_digest.json": digests + "\n",
        data / "cli_help.txt": test_cli.cli_help_text(),
    }


def z_scores(old: str, new: str) -> list[str]:
    """One line per row of the sweep CSV text `new` that differs from the
    row in the same place of `old`: its row number among the data rows,
    its point, both means and z = (new - old) / sqrt(se_old^2 + se_new^2).
    A row's standard error is read off its 95% interval as (high - low) /
    3.92: for the Wilson interval that is the binomial one, never below
    the per-trial error of fidelities in [0, 1], so |z| errs low. Header
    lines, which start each concatenated report, are skipped."""
    def rows(text):
        return [row for row in csv.reader(text.splitlines()) if row[0] != "architecture"]

    head = next(csv.reader(new.splitlines()))
    col = {name: head.index(name) for name in
           ("architecture", "router_kind", "n", "mean_infidelity", "ci95_low", "ci95_high")}
    out = []
    for i, (was, now) in enumerate(zip(rows(old), rows(new)), 1):
        if was == now:
            continue
        mean, se = [], []
        for row in (was, now):
            mean.append(float(row[col["mean_infidelity"]]))
            se.append((float(row[col["ci95_high"]]) - float(row[col["ci95_low"]])) / 3.92)
        spread = math.hypot(*se)
        z = (mean[1] - mean[0]) / spread if spread else 0.0  # two all-noiseless rows
        point = " ".join(now[col[k]] for k in ("architecture", "router_kind"))
        out.append(f"row {i}: {point} n={now[col['n']]}: {mean[0]!r} -> {mean[1]!r}, z={z:+.2f}")
    return out


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: regen_goldens.py [--check]", file=sys.stderr)
        return 2
    texts = goldens()
    if not argv:
        for path, text in texts.items():
            if path.name == "sim_golden.csv" and path.is_file():
                for line in z_scores(path.read_text(), text):
                    print(f"{path.name} {line}")
            path.write_text(text)
        return 0
    stale = [path for path, text in texts.items()
             if not path.is_file() or path.read_text() != text]
    for path in stale:
        print(f"would change: {path.relative_to(HERE.parent)}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
