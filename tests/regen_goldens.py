"""Rewrite the Monte Carlo goldens from the generators their tests check.

    PYTHONPATH=src python tests/regen_goldens.py

writes tests/data/sim_golden.csv (`test_cli.sim_golden_text`) and
tests/data/basis_golden.json (`test_engine.basis_golden_fidelities`). Run
it only for a change that alters the RNG draw order on purpose, and say
why in the change; run at an unchanged commit, it rewrites both files
byte for byte.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import test_cli  # noqa: E402
import test_engine  # noqa: E402


def main() -> None:
    data = HERE / "data"
    (data / "sim_golden.csv").write_text(test_cli.sim_golden_text())
    basis = json.dumps(test_engine.basis_golden_fidelities(), indent=1, sort_keys=True)
    (data / "basis_golden.json").write_text(basis + "\n")


if __name__ == "__main__":
    main()
