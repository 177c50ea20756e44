"""Command-line front end for the experiment registry.

Config files are flat `key = value` lines: `#` comments and blank lines are
ignored, every key must be either `experiment`, `seed`, `out`, or a default
of the chosen experiment, and values are coerced to the type of the default
they override. `seed` is mandatory so no run is ever silently
irreproducible.

Exit codes: 0 success, 2 config or usage error, 3 infeasible experiment
budget, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .evaluation import BracketingError
from .experiments import CSV_COLUMNS, EXPERIMENTS, execute
from .partitions import partition_from_dict
from .smoothing import SmoothedClassifier

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4

ENV_OUT = "PADSMOOTH_OUT"
RESERVED_KEYS = ("experiment", "seed", "out")


class ConfigError(Exception):
    pass


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat key=value lines into a string dict, raising ConfigError
    with line numbers on any malformed or duplicate entry."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not all(c.isalnum() or c == "_" for c in key):
            raise ConfigError(f"{source}:{lineno}: bad key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        out[key] = value
    return out


def _coerce(key: str, value: str, default, source: str) -> object:
    kind = type(default)
    try:
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
        return value
    except ValueError:
        raise ConfigError(
            f"{source}: key {key!r} expects {kind.__name__}, got {value!r}") from None


def resolve_config(raw: dict, source: str = "<config>") -> dict:
    """Validate raw string config against the registry; returns typed dict
    including 'experiment' and 'seed'."""
    if "experiment" not in raw:
        raise ConfigError(f"{source}: missing required key 'experiment'")
    name = raw["experiment"]
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"{source}: unknown experiment {name!r} (known: {known})")
    if "seed" not in raw:
        raise ConfigError(f"{source}: missing required key 'seed' (runs must be reproducible)")
    try:
        seed = int(raw["seed"])
    except ValueError:
        raise ConfigError(f"{source}: 'seed' must be an integer, got {raw['seed']!r}") from None
    if seed < 0:
        raise ConfigError(f"{source}: 'seed' must be non-negative")
    defaults = EXPERIMENTS[name].defaults
    cfg: dict = {"experiment": name, "seed": seed}
    for key, value in raw.items():
        if key in RESERVED_KEYS:
            if key == "out":
                cfg["out"] = value
            continue
        if key not in defaults:
            allowed = ", ".join(sorted(defaults))
            raise ConfigError(
                f"{source}: unknown key {key!r} for experiment {name!r} (allowed: {allowed})")
        cfg[key] = _coerce(key, value, defaults[key], source)
    return cfg


def _resolve_out_dir(cfg: dict, flag_out: str | None) -> Path:
    env = os.environ.get(ENV_OUT)
    if env:
        return Path(env)
    if flag_out:
        return Path(flag_out)
    if "out" in cfg:
        return Path(cfg["out"])
    return Path("runs") / f"{cfg['experiment']}-seed{cfg['seed']}"


def _cmd_run(args) -> int:
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        raw = parse_config_text(text, str(path))
        cfg = resolve_config(raw, str(path))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = _resolve_out_dir(cfg, args.out)
    try:
        summary = execute(cfg["experiment"], cfg, out_dir)
    except (BracketingError, RuntimeError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{summary['experiment']}: {summary['rows']} rows, "
          f"{summary['checks']} checks, {len(summary['failed'])} failed -> {summary['out_dir']}")
    for name in summary["failed"]:
        print(f"  FAILED {name}")
    return EXIT_OK


def _cmd_list(_args) -> int:
    for name in sorted(EXPERIMENTS):
        info = EXPERIMENTS[name]
        print(f"{name}  [{info.group}]")
        print(f"    {info.description}")
        defaults = " ".join(f"{k}={info.defaults[k]}" for k in sorted(info.defaults))
        print(f"    defaults: {defaults}")
    return EXIT_OK


def _structural_check(run_dir: Path) -> list[str]:
    problems = []
    csv_path = run_dir / "results.csv"
    if not csv_path.is_file():
        problems.append("missing results.csv")
        return problems
    lines = csv_path.read_text().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        problems.append("results.csv header does not match the row schema")
    width = len(CSV_COLUMNS)
    for i, line in enumerate(lines[1:], start=2):
        if len(line.split(",")) != width:
            problems.append(f"results.csv:{i}: expected {width} fields")
            break
    report_path = run_dir / "report.json"
    if not report_path.is_file():
        problems.append("missing report.json")
    else:
        try:
            report = json.loads(report_path.read_text())
        except json.JSONDecodeError as exc:
            problems.append(f"report.json does not parse: {exc}")
        else:
            if len(report.get("rows", [])) != max(len(lines) - 1, 0):
                problems.append("report.json row count disagrees with results.csv")
            if "checks" not in report:
                problems.append("report.json missing checks")
    part_path = run_dir / "partition.json"
    if part_path.is_file():
        try:
            partition_from_dict(json.loads(part_path.read_text()))
        except Exception as exc:
            problems.append(f"partition.json does not round-trip: {exc}")
    clf_path = run_dir / "classifier.json"
    if clf_path.is_file():
        try:
            SmoothedClassifier.from_dict(json.loads(clf_path.read_text()))
        except Exception as exc:
            problems.append(f"classifier.json does not round-trip: {exc}")
    return problems


def _cmd_verify(args) -> int:
    run_dir = Path(args.run_dir)
    problems = _structural_check(run_dir)
    if problems:
        for p in problems:
            print(f"verify: {p}", file=sys.stderr)
        return EXIT_VERIFY
    config_path = run_dir / "config.txt"
    if not config_path.is_file():
        print("verify: missing config.txt, cannot replay", file=sys.stderr)
        return EXIT_VERIFY
    try:
        raw = parse_config_text(config_path.read_text(), str(config_path))
        cfg = resolve_config(raw, str(config_path))
    except ConfigError as exc:
        print(f"verify: config echo invalid: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    saved_env = os.environ.pop(ENV_OUT, None)
    try:
        with tempfile.TemporaryDirectory(prefix="padsmooth-verify-") as tmp:
            try:
                execute(cfg["experiment"], cfg, Path(tmp))
            except (BracketingError, RuntimeError) as exc:
                print(f"infeasible: {exc}", file=sys.stderr)
                return EXIT_INFEASIBLE
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            fresh = (Path(tmp) / "results.csv").read_bytes()
    finally:
        if saved_env is not None:
            os.environ[ENV_OUT] = saved_env
    original = (run_dir / "results.csv").read_bytes()
    if fresh != original:
        print("verify: replay produced different results.csv bytes", file=sys.stderr)
        return EXIT_VERIFY
    print(f"verify: {run_dir} ok (structure valid, replay byte-identical)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padsmooth",
        description="Partition-based smoothing experiments: run, list, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="path to a flat key=value config file")
    p_run.add_argument("--out", default=None,
                       help=f"output directory (overridden by ${ENV_OUT} when set)")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list the experiment catalog")
    p_list.set_defaults(func=_cmd_list)

    p_verify = sub.add_parser("verify", help="structurally check and replay a finished run")
    p_verify.add_argument("run_dir", help="directory produced by `padsmooth run`")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
