"""Command-line front end: sweeps, bound curves, resource tables, comparisons.

A flat key=value config file (--config) stands for the flags it names: each
key must be exactly one of that subcommand's flags, and `key = value` is
parsed as `--key=value` ahead of the explicit flags, so those override it.
argparse checks every value, from the command line or the file, once; an
absent flag keeps the library's default. Exit codes: 0 success, 2 invalid
configuration (one `error:` line), 3 simulation/resource limit, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple

from . import analytics
from .harness import (
    ARCHITECTURES,
    ConfigError,
    ExperimentConfig,
    HETERO,
    REPORT_FIELDS,
    ResourceLimitError,
    bound_pair,
    compare_resources,
    fit_scaling,
    load_report,
    resource_estimate,
    rows_to_text,
    run_sweep,
)
from .noise import CycleCost, DistanceProfile, SurfaceParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

#: keys of the flags every subcommand shares; the flag is --KEY
_COMMON_KEYS = (
    "arch", "routers", "n", "p-prime", "epsilon-prime", "c", "s", "trials", "seed",
    "profile", "address-mode", "database", "round-trip", "batch-size", "out", "format",
)
_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}
#: flag dest -> the SurfaceParams field that takes its parsed value
_PARAM_FIELDS = {"epsilon_prime": "epsilon_prime", "p_prime": "p_ratio"}
#: flag dest -> the ExperimentConfig field that takes its parsed value as is
_CONFIG_FIELDS = {
    "routers": "router_kind", "profile": "profile", "trials": "trials", "seed": "seed",
    "address_mode": "address_mode", "database": "database_mode", "batch_size": "batch_size",
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises ConfigError for every bad flag or value,
    and that keeps each flag's action by option string, so a config-file key
    is checked against exactly the flags of its own subcommand."""

    def __init__(self, *args, parents=(), **kwargs):
        self.flags: dict[str, argparse.Action] = {}
        for parent in parents:
            self.flags.update(parent.flags)
        super().__init__(*args, parents=parents, **kwargs)

    def add_argument(self, *names, **kwargs):
        action = super().add_argument(*names, **kwargs)
        self.flags.update(dict.fromkeys(action.option_strings, action))
        return action

    def error(self, message):
        raise ConfigError(message)


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


def _config_tokens(path: str, command: _Parser) -> list[str]:
    """The flags a config file stands for: `key = value` becomes
    `--key=value`, and a switch (`--efficient`) is given or left out by
    the truth of its value."""
    tokens = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("_", "-")
            action = command.flags.get(f"--{key}")
            if action is None or action.dest in ("help", "config"):
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if action.nargs != 0:
                tokens.append(f"--{key}={val}")
                continue
            if val.lower() not in _BOOLEANS:
                raise ConfigError(f"{path}:{lineno}: bad {key} {val!r}; use true or false")
            if _BOOLEANS[val.lower()]:
                tokens.append(f"--{key}")
    return tokens


def _common_parser() -> _Parser:
    """The flags that `sim`, `bounds`, `resources` and `compare` share,
    declared once and handed to each through `parents=`."""
    p = _Parser(add_help=False)
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
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top parser and each subcommand's parser by name."""
    parser = _Parser(
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
    p_cmp.add_argument("--mode", choices=("analytic", "simulated", "auto"), default="analytic")
    p_fit = sub.add_parser("fit", help="scaling exponent from a sweep CSV")
    p_fit.add_argument("--in", dest="input", required=True, help="sweep report (csv or json)")
    p_fit.add_argument("--out")
    p_fit.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser, sub.choices


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment the given flags describe; every flag left out keeps
    the default of ExperimentConfig, SurfaceParams or CycleCost."""
    given = {key: val for key, val in vars(args).items() if val is not None}
    fields = {field: given[key] for key, field in _CONFIG_FIELDS.items() if key in given}
    if "arch" in given:
        fields["architectures"] = tuple(a.strip() for a in given["arch"].split(",") if a.strip())
    if "n" in given:
        fields["n_values"] = _parse_n_range(given["n"])
    if "round_trip" in given:
        fields["round_trip"] = given["round_trip"] == "on"
    try:
        fields["params"] = SurfaceParams(**{
            field: given[key] for key, field in _PARAM_FIELDS.items() if key in given
        })
        fields["cost"] = CycleCost(**{key: given[key] for key in ("c", "s") if key in given})
    except ValueError as exc:
        message = str(exc)
        for key, field in _PARAM_FIELDS.items():  # name the flag, not the field
            message = message.replace(field, "--" + key.replace("_", "-"))
        raise ConfigError(message) from None
    return ExperimentConfig(**fields)


def _emit_rows(fields: tuple[str, ...], rows: list[tuple], args: argparse.Namespace) -> None:
    text = rows_to_text(fields, rows, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sim(args: argparse.Namespace) -> int:
    config = _config_from(args)
    if config.address_mode == "basis":
        print("note: sampled-basis mode leaves phase (Z) errors uncounted: "
              "with one address per trial they are global", file=sys.stderr)
    report = run_sweep(config)
    _emit_rows(REPORT_FIELDS, [row.astuple() for row in report.rows], args)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = _config_from(args)
    rows = []
    for arch, kind, n, profile in config.points():
        exact, closed = bound_pair(arch, kind, n, config.params, config.cost, profile)
        rows.append((arch, kind, n, config.params.p_ratio, exact, closed, analytics.vacuous(exact)))
    _emit_rows(
        ("architecture", "router_kind", "n", "p_prime", "bound", "closed_form", "vacuous"),
        rows,
        args,
    )
    return EXIT_OK


def _cmd_resources(args: argparse.Namespace) -> int:
    """Each row prices its point's profile (`resource_estimate`).
    --efficient stands for --profile odd-paired on the hetero rows, so it
    refuses any other explicit profile, and --distance D for uniform:D on
    the uniform rows. The `efficient` column says whether a row prices the
    odd-paired packing."""
    config = _config_from(args)
    if args.efficient and config.profile not in (None, "odd-paired"):
        raise ConfigError(f"--efficient prices the odd-paired profile, not {config.profile!r}")
    if args.distance is not None and args.distance < 1:
        raise ConfigError(f"bad distance {args.distance}; must be >= 1")
    rows = []
    for arch, _, n, profile in config.points():
        if arch in HETERO and args.efficient:
            profile = DistanceProfile.odd_paired(n)
        elif arch not in HETERO and args.distance is not None:
            profile = DistanceProfile.uniform(n, args.distance)
        est = resource_estimate(arch, profile)
        rows.append((arch, n, profile.kind == "odd_paired", est.physical_total,
                     est.physical_total / (1 << n)))
    _emit_rows(
        ("architecture", "n", "efficient", "physical_qubits", "per_entry_overhead"),
        rows,
        args,
    )
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from(args)
    rows = [
        astuple(compare_resources(n, config, architecture=arch, mode=args.mode))
        for arch in config.architectures
        for n in config.n_values
    ]
    _emit_rows(
        ("n", "architecture", "target_infidelity", "target_vacuous",
         "uniform_distance", "uniform_physical_qubits", "hetero_physical_qubits", "ratio"),
        rows,
        args,
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
        try:
            slope, r2 = fit_scaling(points)
        except ConfigError as exc:
            raise ConfigError(f"{args.input}: {arch} {kind}: {exc}") from None
        rows.append((arch, kind, len(points), slope, r2))
    _emit_rows(("architecture", "router_kind", "points", "slope", "r_squared"), rows, args)
    return EXIT_OK


_COMMANDS = {"sim": _cmd_sim, "bounds": _cmd_bounds, "resources": _cmd_resources,
             "compare": _cmd_compare, "fit": _cmd_fit}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go first, so an explicit flag wins (last one wins);
            # the explicit ones parsed above, so an error here is the file's
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.config, commands[args.command])
            try:
                args = parser.parse_args(argv[:at] + tokens + argv[at:])
            except ConfigError as exc:
                raise ConfigError(f"{args.config}: {exc}") from None
        return _COMMANDS[args.command](args)
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
