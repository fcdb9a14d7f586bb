"""Command-line entry point.

Verbs: run, sweep, unlearn-demo, validate-config. Every config-file key is
also a flag, with `_` written as `-` (`n_clients` is `--n-clients`, `lambda`
is `--lambda`), and a flag value is read the same way as a file value: a JSON
literal, or a bare word as a string (for example `--unlearn-round null` or
`--framework dsgd`). Two flags for one field (`--lambda` and
`--ensemble-lambda`) are a config error. A config file overrides built-in
defaults and flags override the file. `sweep --param KEY` takes any config
key and checks every cell before the first run; `unlearn-demo` is the sweep
over `framework`. Exit codes: 0 success, 2 config error, 3 runtime error; a
failing run fails a sweep as it fails `run`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace

from .errors import ConfigError, HdusError
from .harness import (CONFIG_KEYS, ExperimentConfig, emit_metrics, load_config,
                      parse_config_value, run_experiment, sweep, unlearn_demo)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a key = value config file")
    for key in CONFIG_KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key, metavar="VALUE")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    given = [key for key in CONFIG_KEYS if getattr(args, key) is not None]
    for name in dict.fromkeys(CONFIG_KEYS[key] for key in given):
        flags = ["--" + key.replace("_", "-")
                 for key in given if CONFIG_KEYS[key] == name]
        if len(flags) > 1:
            raise ConfigError(f"{name}: set twice, by {' and '.join(flags)}")
    overrides = dict(parse_config_value(key, getattr(args, key)) for key in given)
    return replace(cfg, **overrides)


@contextlib.contextmanager
def _output_dir(path: str):
    """Make `path` and its missing parents before any run, so an unmakeable
    path fails first. If the body fails, remove the ones made that are still
    empty, so a failed command leaves no new directory behind."""
    made, d = [], os.path.abspath(path)
    while not os.path.lexists(d):
        made.append(d)
        d = os.path.dirname(d)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        for d in made:   # deepest first
            try:
                os.rmdir(d)
            except OSError:
                break
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hdus",
                                     description="decentralized unlearning simulator")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "unlearn-demo", "validate-config"):
        _add_common(sub.add_parser(verb))
    sp = sub.add_parser("sweep")
    _add_common(sp)
    sp.add_argument("--param", required=True, help="a config key, e.g. lambda")
    sp.add_argument("--values", required=True,
                    help="comma-separated grid values, e.g. 0,0.1,0.3,0.5")

    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.verb == "validate-config":
            print(f"ok (config_hash={cfg.config_hash()})")
            return 0
        if args.verb == "sweep":
            values = [parse_config_value(args.param, v, "--values")[1]
                      for v in args.values.split(",")]
        out = cfg.output_path or "hdus-out"
        with _output_dir(out):
            if args.verb == "run":
                report = run_experiment(cfg)
                paths = emit_metrics(report, out)
                print(f"{cfg.framework}: final accuracy "
                      f"{report.mean():.4f} +- {report.std():.4f} "
                      f"({len(report.repeats)} repeats)")
            elif args.verb == "sweep":
                grid = sweep(cfg, args.param, values)
                for v, rep in grid.items():
                    print(f"{args.param}={v}: {rep.mean():.4f} +- {rep.std():.4f}")
                paths = emit_metrics(list(grid.values()), out)
            else:  # unlearn-demo
                reports = unlearn_demo(cfg)
                paths = emit_metrics(reports, out)
                for rep in reports:
                    print(f"{rep.config.framework}: final accuracy {rep.mean():.4f}")
        print(f"wrote {', '.join(sorted(paths.values()))}")
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (HdusError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
