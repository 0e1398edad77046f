"""Command-line front end: sweeps, bound curves, resource tables, comparisons.

Every flag can also be given in a flat key=value config file (--config);
explicit flags override file values. Exit codes: 0 success, 2 invalid
configuration, 3 simulation/resource limit, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from . import analytics
from .harness import (
    ARCHITECTURES,
    ComparisonRow,
    ConfigError,
    ExperimentConfig,
    REPORT_FIELDS,
    ResourceLimitError,
    bound_pair,
    compare_resources,
    fit_scaling,
    load_report,
    rows_to_text,
    run_sweep,
)
from .noise import CycleCost, SurfaceParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

#: keys of the flags every subcommand shares; the flag is --KEY
_COMMON_KEYS = (
    "arch", "routers", "n", "p-prime", "epsilon-prime", "c", "s", "trials", "seed",
    "profile", "address-mode", "database", "round-trip", "batch-size", "out", "format",
)
#: keys of flags only some subcommands have
_COMMAND_KEYS = ("efficient", "mode", "distance")
_CONFIG_KEYS = set(_COMMON_KEYS) | set(_COMMAND_KEYS)
_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def _parse_n_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"bad n range {text!r}; use A..B or comma list") from None


def _parse_round_trip(text: str | None) -> bool | None:
    """`on`/`off` to True/False; absent keeps each architecture's own protocol."""
    if text is None:
        return None
    if text not in ("on", "off"):
        raise ConfigError(f"bad round-trip {text!r}; use on or off")
    return text == "on"


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("_", "-")
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val
    return values


def _common_parser() -> argparse.ArgumentParser:
    """The flags that `sim`, `bounds`, `resources` and `compare` share,
    declared once and handed to each through `parents=`."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--arch", help="comma list of " + ",".join(ARCHITECTURES))
    p.add_argument("--routers", choices=("qubit", "qutrit"))
    p.add_argument("--n", help="depth range A..B or comma list")
    p.add_argument("--p-prime", type=float, dest="p_prime")
    p.add_argument("--epsilon-prime", type=float, dest="epsilon_prime")
    p.add_argument("--c", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--profile", help="linear | odd-paired | uniform:D")
    p.add_argument("--address-mode", choices=("superposition", "basis"), dest="address_mode")
    p.add_argument("--database", choices=("random", "all_zero", "all_one"))
    p.add_argument("--round-trip", choices=("on", "off"), dest="round_trip",
                   help="default: each architecture's own protocol")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"))
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetqram",
        description="Heterogeneously error-corrected QRAM simulator and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_parser()]
    sub.add_parser("sim", parents=common, help="Monte Carlo infidelity sweep")
    sub.add_parser("bounds", parents=common, help="closed-form bound curves")
    p_res = sub.add_parser("resources", parents=common, help="physical qubit overhead tables")
    p_res.add_argument("--efficient", action="store_true", help="odd-paired distances")
    p_res.add_argument("--distance", type=int, help="uniform tree distance")
    p_cmp = sub.add_parser("compare", parents=common, help="equal-fidelity overhead comparison")
    p_cmp.add_argument("--mode", choices=("analytic", "simulated", "auto"), default=None)
    p_fit = sub.add_parser("fit", help="scaling exponent from a sweep CSV")
    p_fit.add_argument("--in", dest="input", required=True, help="sweep report (csv or json)")
    p_fit.add_argument("--out")
    p_fit.add_argument("--format", choices=("csv", "json"))
    return parser


def _merge(args: argparse.Namespace) -> dict:
    """File values first, then explicit flags on top."""
    merged: dict[str, str] = {}
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for key in _COMMON_KEYS + _COMMAND_KEYS:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None and val is not False:  # an absent --efficient is False
            merged[key] = str(val)
    return merged


def _number(merged: dict, key: str, default, kind):
    """merged[key] read as `kind` (int or float), or `default` when absent."""
    text = merged.get(key)
    if text is None:
        return default
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"bad {key} {text!r}; expected {kind.__name__}") from None


def _choice(merged: dict, key: str, default: str, choices: tuple[str, ...]) -> str:
    """merged[key], or `default` when absent; must be one of `choices`."""
    text = merged.get(key, default)
    if text not in choices:
        raise ConfigError(f"bad {key} {text!r}; use {' or '.join(choices)}")
    return text


def _format(merged: dict) -> str:
    return _choice(merged, "format", "csv", ("csv", "json"))


def _config_from(merged: dict) -> ExperimentConfig:
    archs = tuple(a.strip() for a in merged.get("arch", "bb-hetero").split(",") if a.strip())
    try:
        params = SurfaceParams(
            epsilon_prime=_number(merged, "epsilon-prime", 0.03, float),
            p_ratio=_number(merged, "p-prime", 0.1, float),
        )
        cost = CycleCost(c=_number(merged, "c", 2, int), s=_number(merged, "s", 1, int))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(
        architectures=archs,
        router_kind=merged.get("routers", "qutrit"),
        n_values=_parse_n_range(merged.get("n", "4")),
        params=params,
        cost=cost,
        profile=merged.get("profile"),
        trials=_number(merged, "trials", 1000, int),
        seed=_number(merged, "seed", 7, int),
        address_mode=merged.get("address-mode", "superposition"),
        database_mode=merged.get("database", "random"),
        batch_size=_number(merged, "batch-size", 512, int),
        round_trip=_parse_round_trip(merged.get("round-trip")),
    )


def _emit_rows(fields: tuple[str, ...], rows: list[tuple], fmt: str, out: str | None) -> None:
    text = rows_to_text(fields, rows, fmt)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sim(merged: dict) -> int:
    config = _config_from(merged)
    fmt = _format(merged)
    report = run_sweep(config)
    _emit_rows(REPORT_FIELDS, [row.astuple() for row in report.rows], fmt, merged.get("out"))
    return EXIT_OK


def _cmd_bounds(merged: dict) -> int:
    config = _config_from(merged)
    fmt = _format(merged)
    rows = []
    for arch in config.architectures:
        kind = "qutrit" if arch == "walker" else config.router_kind
        for n in config.n_values:
            profile = config.profile_for(arch, n)
            exact, closed = bound_pair(arch, kind, n, config.params, config.cost, profile)
            rows.append(
                (arch, kind, n, config.params.p_ratio, exact, closed,
                 analytics.vacuous(exact))
            )
    _emit_rows(
        ("architecture", "router_kind", "n", "p_prime", "bound", "closed_form", "vacuous"),
        rows,
        fmt,
        merged.get("out"),
    )
    return EXIT_OK


def _cmd_resources(merged: dict) -> int:
    config = _config_from(merged)
    fmt = _format(merged)
    efficient = _BOOLEANS.get(merged.get("efficient", "false").lower())
    if efficient is None:
        raise ConfigError(f"bad efficient {merged['efficient']!r}; use true or false")
    distance = _number(merged, "distance", None, int)
    if distance is not None and distance < 1:
        raise ConfigError(f"bad distance {distance}; must be >= 1")
    rows = []
    for arch in config.architectures:
        for n in config.n_values:
            if arch == "ft-hetero":
                est = analytics.ft_resources(n, efficient=efficient)
            elif arch == "bb-hetero":
                est = analytics.bb_resources(n, efficient=efficient)
            elif arch in ("uniform-bb", "walker"):
                d = distance if distance is not None else config.profile_for(arch, n).uniform_d
                est = analytics.uniform_resources(n, d)
            else:
                raise ConfigError(f"no resource model for {arch!r}")
            rows.append(
                (arch, n, efficient, est.physical_total, est.physical_total / (1 << n))
            )
    _emit_rows(
        ("architecture", "n", "efficient", "physical_qubits", "per_entry_overhead"),
        rows,
        fmt,
        merged.get("out"),
    )
    return EXIT_OK


def _cmd_compare(merged: dict) -> int:
    config = _config_from(merged)
    fmt = _format(merged)
    mode = _choice(merged, "mode", "analytic", ("analytic", "simulated", "auto"))
    arch = config.architectures[0]
    if arch not in ("ft-hetero", "bb-hetero"):
        raise ConfigError("compare needs --arch ft-hetero or bb-hetero")
    rows = []
    for n in config.n_values:
        row: ComparisonRow = compare_resources(n, config, architecture=arch, mode=mode)
        rows.append(
            (row.n, row.hetero_architecture, row.target_infidelity, row.target_vacuous,
             row.uniform_distance, row.uniform_physical_qubits,
             row.hetero_physical_qubits, row.ratio)
        )
    _emit_rows(
        ("n", "architecture", "target_infidelity", "target_vacuous",
         "uniform_distance", "uniform_physical_qubits", "hetero_physical_qubits", "ratio"),
        rows,
        fmt,
        merged.get("out"),
    )
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    report = load_report(args.input)
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for row in report.rows:
        groups.setdefault((row.architecture, row.router_kind), []).append(
            (row.n, row.mean_infidelity)
        )
    rows = []
    for (arch, kind), points in sorted(groups.items()):
        slope, r2 = fit_scaling(points)
        rows.append((arch, kind, len(points), slope, r2))
    _emit_rows(
        ("architecture", "router_kind", "points", "slope", "r_squared"),
        rows,
        getattr(args, "format", None) or "csv",
        getattr(args, "out", None),
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        merged = _merge(args)
        if args.command == "sim":
            return _cmd_sim(merged)
        if args.command == "bounds":
            return _cmd_bounds(merged)
        if args.command == "resources":
            return _cmd_resources(merged)
        if args.command == "compare":
            return _cmd_compare(merged)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
