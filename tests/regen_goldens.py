"""Rewrite the golden files from the generators their tests check.

    PYTHONPATH=src python tests/regen_goldens.py [--check]

writes tests/data/sim_golden.csv (`test_cli.sim_golden_text`),
tests/data/basis_golden.json (`test_engine.basis_golden_fidelities`) and
tests/data/analytic_golden.json (`test_cli.analytic_outputs`). Run it only
for a change that alters the RNG draw order, a bound or a resource table
on purpose, and say why in the change; run at an unchanged commit, it
rewrites every file byte for byte. With --check it writes nothing: it names each file that
would change and exits 1, or exits 0 when every file is as it would write
it.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import test_cli  # noqa: E402
import test_engine  # noqa: E402


def goldens() -> dict[Path, str]:
    """Each golden file and the text the current generators give it."""
    data = HERE / "data"
    basis = json.dumps(test_engine.basis_golden_fidelities(), indent=1, sort_keys=True)
    return {
        data / "sim_golden.csv": test_cli.sim_golden_text(),
        data / "basis_golden.json": basis + "\n",
        data / "analytic_golden.json": json.dumps(test_cli.analytic_outputs(), indent=1) + "\n",
    }


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: regen_goldens.py [--check]", file=sys.stderr)
        return 2
    texts = goldens()
    if not argv:
        for path, text in texts.items():
            path.write_text(text)
        return 0
    stale = [path for path, text in texts.items()
             if not path.is_file() or path.read_text() != text]
    for path in stale:
        print(f"would change: {path.relative_to(HERE.parent)}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
