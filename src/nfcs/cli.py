"""Command-line front end: one subcommand per experiment kind.

Exit codes: 0 on success, 2 on configuration errors, 3 on I/O errors and
when memory runs out (``error: out of memory: ...``).
Config files are flat key/value text with dotted sections, e.g.::

    array.n_antennas = 256
    experiment.trials = 200
    experiment.snr_db_list = 0, 5, 10

Every key, its value parser and its admissible range are declared once, on
the fields of ``harness.ExperimentConfig``; ``harness.CONFIG_FIELDS`` maps
each key to its field.
"""

import argparse
import sys
from dataclasses import replace

from .harness import (
    CONFIG_FIELDS,
    EXPERIMENT_KINDS,
    PRESETS,
    ConfigError,
    emit,
    preset_config,
    run,
)


def parse_config_file(path: str) -> dict:
    """Parse a flat dotted-key config file into ExperimentConfig overrides.

    Each key may appear once; a repeated key is a config error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(path, f"not UTF-8 text: {exc}") from exc
    overrides = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}", f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_FIELDS:
            raise ConfigError(key, "unknown config key")
        f = CONFIG_FIELDS[key]
        if f.name in overrides:
            raise ConfigError(key, f"given twice (again at line {lineno})")
        try:
            overrides[f.name] = f.metadata["parse"](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(key, f"bad value {value!r}: {exc}") from exc
    return overrides


_COMMAND_TO_KIND = {kind.lower().replace("_", "-"): kind for kind in EXPERIMENT_KINDS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfcs",
        description="Seeded Monte Carlo experiments for hybrid near/far-field "
        "channel modeling and block-sparse estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, kind in _COMMAND_TO_KIND.items():
        p = sub.add_parser(command, help=f"run the {kind} experiment")
        p.add_argument("--config", help="flat key/value config file")
        p.add_argument(
            "--seed",
            type=int,
            help="master seed (default: experiment.seed from --config, else 1)",
        )
        p.add_argument("--trials", type=int, help="override trial count")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--preset",
            choices=tuple(PRESETS),
            default="desk",
            help="experiment scale: full-size grids or quick desk-scale runs",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    kind = _COMMAND_TO_KIND[args.command]
    try:
        config = preset_config(kind, args.preset, seed=1)
        if args.config:
            try:
                overrides = parse_config_file(args.config)
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return 3
            config = replace(config, **overrides)
        if args.trials is not None:
            config = replace(config, trials=args.trials)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        text = emit(run(config), args.format, args.out)
        if args.out == "-":
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
