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
    ReportRow,
    compare_point,
    fit_scaling,
    load_report,
    resource_estimate,
    rows_to_text,
    run_sweep,
    simulation_ceiling,
)
from .noise import CycleCost, DistanceProfile, SurfaceParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

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

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

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


def _common_flags(p: _Parser) -> None:
    """The flags that `sim`, `bounds`, `resources` and `compare` share,
    declared once."""
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


def _resources_flags(p: _Parser) -> None:
    _common_flags(p)
    p.add_argument("--efficient", action="store_true", help="odd-paired distances")
    p.add_argument("--distance", type=int, help="uniform tree distance")


def _compare_flags(p: _Parser) -> None:
    _common_flags(p)
    p.add_argument("--mode", choices=("analytic", "simulated", "auto"), default="analytic")


def _fit_flags(p: _Parser) -> None:
    p.add_argument("--in", dest="input", required=True, help="sweep report (csv or json)")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


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


def _note_uncounted_phases() -> None:
    """Say on stderr that the simulated points leave phase errors out."""
    print("note: sampled-basis mode leaves phase (Z) errors uncounted: "
          "with one address per trial they are global", file=sys.stderr)


def _note_noiseless(row: ReportRow) -> None:
    """Name a row whose trials all came back noiseless (mean 0, CI [0, 0])
    in a `note:` line on stderr, with the one-sided 95% bound 3/trials on
    its mean infidelity: the chance of no loss in N trials is at most
    (1 - mean)^N <= exp(-mean N), since a trial's infidelity lies in
    [0, 1]."""
    if row.ci95_high == 0.0:
        print(f"note: {row.architecture} {row.router_kind} n={row.n} "
              f"p'={row.p_prime!r}: all {row.trials} trials were noiseless; "
              f"mean infidelity < 3/trials = {3 / row.trials:.3g} "
              "(one-sided 95%)", file=sys.stderr)


def _cmd_sim(args: argparse.Namespace) -> int:
    """A row whose trials all came back noiseless gets `_note_noiseless`."""
    config = _config_from(args)
    if config.address_mode == "basis":
        _note_uncounted_phases()
    report = run_sweep(config)
    for row in report.rows:
        _note_noiseless(row)
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
    """`--mode auto` prices the points past the simulation ceiling of the
    address mode from the closed-form bound, as `compare_resources` does,
    and names them in one `note:` line on stderr. A point simulated in
    sampled-basis mode gets `sim`'s note on the phases it leaves out, and
    a simulated point whose trials all came back noiseless, whose target
    is then the floor 1e-12, gets `sim`'s note on that row."""
    config = _config_from(args)
    points = [
        compare_point(n, config, architecture=arch, mode=args.mode)
        for arch in config.architectures
        for n in config.n_values
    ]
    rows = [astuple(row) for row, _ in points]
    simulated = [row for _, row in points if row is not None]
    if config.address_mode == "basis" and simulated:
        _note_uncounted_phases()
    for row in simulated:
        _note_noiseless(row)
    ceiling = simulation_ceiling(config.address_mode)
    bounded = ",".join(str(n) for n in config.n_values if n > ceiling)
    if args.mode == "auto" and bounded:
        print(f"note: --mode auto prices n={bounded} from the closed-form bound, "
              f"past the {config.address_mode} simulation ceiling n={ceiling}", file=sys.stderr)
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


#: each subcommand's runner, help line and flags
_COMMANDS = {
    "sim": (_cmd_sim, "Monte Carlo infidelity sweep", _common_flags),
    "bounds": (_cmd_bounds, "closed-form bound curves", _common_flags),
    "resources": (_cmd_resources, "physical qubit overhead tables", _resources_flags),
    "compare": (_cmd_compare, "equal-fidelity overhead comparison", _compare_flags),
    "fit": (_cmd_fit, "scaling exponent from a sweep CSV", _fit_flags),
}


def _top_parser() -> _Parser:
    """The parser of `hetqram` itself, which names every subcommand with
    its help line and takes no flag but --help: `main` consults it only
    when argv does not start with a subcommand."""
    parser = _Parser(
        prog="hetqram",
        description="Heterogeneously error-corrected QRAM simulator and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, _) in _COMMANDS.items():
        sub.add_parser(name, help=text)
    return parser


def _command_parser(name: str) -> _Parser:
    """The parser of subcommand `name`, with its flags."""
    parser = _Parser(prog=f"hetqram {name}")
    _COMMANDS[name][2](parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a call runs one subcommand, so only its parser is built; the top
        # parser answers --help and a missing or unknown subcommand
        name = argv[0] if argv and argv[0] in _COMMANDS else _top_parser().parse_args(argv).command
        flags = argv[argv.index(name) + 1 :]
        command = _command_parser(name)
        args = command.parse_args(flags)
        if getattr(args, "config", None):
            # the file's flags go first, so an explicit flag wins (last one wins);
            # the explicit ones parsed above, so an error here is the file's
            tokens = _config_tokens(args.config, command)
            try:
                args = command.parse_args(tokens + flags)
            except ConfigError as exc:
                raise ConfigError(f"{args.config}: {exc}") from None
        return _COMMANDS[name][0](args)
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
