"""The benchmark's workloads: fixed lists of `hetqram sim` sweep points.

Every point is one `hetqram sim` call at the CLI defaults (epsilon'=0.03,
c=2, s=1, batch size 512, random database, superposition address mode).
Only the CLI `--seed` comes from the benchmark seed, so the database bits
and the noise streams change with it while the work per point does not.

Sampled-basis mode has no workload: each trial draws its own address, and
the cost of those addresses plus the machine's drift gave a run-to-run
spread (about 19% between quartiles over ten seeds at n=10,11 on two
shared cores) wider than any bound the benchmark may set.
"""

from __future__ import annotations

from dataclasses import dataclass

#: batch size of the CLI default, which the traced run replays
BATCH_SIZE = 512


@dataclass(frozen=True)
class Point:
    arch: str
    routers: str
    n: int
    p_prime: float
    trials: int
    round_trip: bool = True

    @property
    def label(self) -> str:
        trip = "rt" if self.round_trip else "descent"
        return f"{self.arch}/{self.routers} n={self.n} {trip}"

    def argv(self, seed: int, out: str) -> list[str]:
        """Arguments of the `hetqram sim` call for this point."""
        return [
            "sim",
            "--arch", self.arch,
            "--routers", self.routers,
            "--n", str(self.n),
            "--p-prime", repr(self.p_prime),
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--round-trip", "on" if self.round_trip else "off",
            "--batch-size", str(BATCH_SIZE),
            "--out", out,
        ]


_ACCEPTANCE_VARIANTS = (
    ("uniform-bb", "qutrit"),
    ("ft-hetero", "qutrit"),
    ("bb-hetero", "qutrit"),
    ("uniform-bb", "qubit"),
    ("ft-hetero", "qubit"),
    ("bb-hetero", "qubit"),
    ("walker", "qutrit"),
)

WORKLOADS: dict[str, tuple[Point, ...]] = {
    # Building the engine computes 256 pure-Python noiseless reference words
    # per point; noise is sparse at p'=0.01 and the plane is far beyond L2.
    # At n=8 and one batch a pass takes a few seconds, so a run makes enough
    # passes for its per-point medians to ride out the machine's slow drift.
    "sweep-deep": (
        Point("bb-hetero", "qutrit", 8, 0.01, 512, round_trip=False),
        Point("ft-hetero", "qutrit", 8, 0.01, 512, round_trip=False),
        Point("uniform-bb", "qutrit", 8, 0.01, 512, round_trip=True),
    ),
    # The acceptance fixture's regime at small n: noise sampling dominates
    # the trial batches, the plane fits in L2, and n=5 / n=6 take the
    # engine's unaligned / aligned packing paths. Eight batches per point
    # keep a pass short enough for several passes per run.
    "sweep-trials": tuple(
        Point(arch, routers, n, 0.1, 4096, round_trip=True)
        for arch, routers in _ACCEPTANCE_VARIANTS
        for n in (5, 6)
    ),
}
