"""Command-line experiment runner.

Subcommands:
    run       one seeded experiment, outputs written to a directory
    compare   paired Monte Carlo comparison across enabled filters
    validate  fast invariant self-checks

Exit codes: 0 success, 1 validation failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import HarnessError, ValidationError, WassFilterError
from .harness import ExperimentConfig, _check_compare, monte_carlo_compare, run_experiment
from .validate import run_validation


def _load_config(args) -> ExperimentConfig:
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
        config = ExperimentConfig.from_json_dict(data)
    else:
        config = ExperimentConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["output_dir"] = args.out
    if getattr(args, "filters", None) is not None:
        overrides["filters"] = tuple(name.strip() for name in args.filters.split(",") if name.strip())
    return replace(config, **overrides) if overrides else config


def _cmd_run(args) -> int:
    config = _load_config(args)
    if config.output_dir is None:
        config = replace(config, output_dir="out")
    result = run_experiment(config)
    print(f"ran {len(result.records)} steps; outputs in {Path(config.output_dir).resolve()}")
    for name, metrics in result.summary.get("per_filter", {}).items():
        print(f"  {name}: rmse x1={metrics['rmse'][0]:.6f} x2={metrics['rmse'][1]:.6f}")
    return 0


def _cmd_compare(args) -> int:
    config = _load_config(args)
    if args.out is not None:
        _check_compare(config, args.runs)  # so that exit 1 leaves no directory
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise HarnessError(f"output directory: {exc}") from exc
    comparison = monte_carlo_compare(config, args.runs)
    print(comparison.to_text())
    if args.out is not None:
        path = Path(args.out) / "comparison.json"
        try:
            path.write_text(json.dumps(comparison.to_json_dict(), indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise HarnessError(f"output comparison.json: {exc}") from exc
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    results = run_validation(seed=args.seed if args.seed is not None else 0)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed}/{len(results)} suites failed")
        return 1
    print(f"all {len(results)} suites passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wassfilter",
        description="Wasserstein-metric filtering experiments on the Duffing benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one seeded experiment")
    run_p.add_argument("--config", help="JSON config path (defaults used when omitted)")
    run_p.add_argument("--seed", type=int, help="override master seed")
    run_p.add_argument("--out", help="output directory (default: ./out)")
    run_p.add_argument("--filters", help="comma-separated subset of gsf,ngsf,kf_momentmatch")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="paired Monte Carlo comparison")
    cmp_p.add_argument("--config", help="JSON config path")
    cmp_p.add_argument("--seed", type=int, help="override master seed")
    cmp_p.add_argument("--runs", type=int, default=20, help="number of paired runs")
    cmp_p.add_argument("--out", help="directory for comparison.json")
    cmp_p.add_argument("--filters", help="comma-separated filter subset")
    cmp_p.set_defaults(func=_cmd_compare)

    val_p = sub.add_parser("validate", help="run invariant self-checks")
    val_p.add_argument("--seed", type=int, help="seed for the randomized suites")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except WassFilterError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
