"""The ``python -m repro`` / ``repro`` command line.

Commands::

    repro run SCENARIO.toml [--workers N] [--trials N] [--seed S]
                            [--set key=value ...] [--json]
                            [--checkpoint PATH [--resume]]
    repro sweep SCENARIO.toml --param snr_db=0:20:2 [--metrics a,b] ...
    repro list
    repro demo [--seed S]

``run`` executes one scenario file and prints a metric table (mean, 95%
CI per metric) plus merged per-flow counters. ``sweep`` re-runs the
scenario along a parameter grid and prints one row per grid point.
``--set`` applies dotted-path overrides (``backoff.cw=32``,
``sender.alice.snr_db=14``, ``params.sinr_db=8``) before running.

``--checkpoint PATH`` journals completed trials to a JSONL file as they
land; re-running with ``--resume`` skips everything already journaled
(the journal carries a digest of the spec, so resuming with a different
scenario is rejected). Failure handling — retries, watchdog timeouts,
skip-vs-abort — is configured in the scenario file's ``[resilience]``
table; when trials fail under ``mode = "skip"`` or ``"retry"``, ``run``
prints a failure summary table after the metrics.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError, RunAbortedError
from repro.runner.results import RunResult
from repro.runner.runner import MonteCarloRunner
from repro.runner.scenarios import available_scenarios, get_scenario
from repro.runner.spec import ScenarioSpec, _coerce, parse_sweep

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel Monte-Carlo runner for the ZigZag "
                    "reproduction (Gollakota & Katabi, SIGCOMM 2008).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="path to a ScenarioSpec TOML file")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (0 = one per CPU)")
        p.add_argument("--trials", type=int, default=None,
                       help="override [scenario].n_trials")
        p.add_argument("--seed", type=int, default=None,
                       help="override the root seed")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="KEY=VALUE",
                       help="dotted-path override, repeatable")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of tables")
        p.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="journal completed trials to a JSONL file")
        p.add_argument("--resume", action="store_true",
                       help="skip trials already in --checkpoint "
                            "(validated against the spec)")

    run_p = sub.add_parser("run", help="run one scenario file")
    add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="run a scenario along a grid")
    add_common(sweep_p)
    sweep_p.add_argument("--param", required=True,
                         help="sweep expression, e.g. snr_db=0:20:2 or "
                              "design=zigzag,802.11")
    sweep_p.add_argument("--metrics", default=None,
                         help="comma-separated metrics to tabulate")

    sub.add_parser("list", help="list registered scenario kinds")

    demo_p = sub.add_parser("demo", help="decode one hidden-terminal "
                                         "collision pair end to end")
    demo_p.add_argument("--seed", type=int, default=1)
    return parser


def _load_spec(args: argparse.Namespace) -> ScenarioSpec:
    spec = ScenarioSpec.from_toml(args.scenario)
    for expr in args.overrides:
        key, sep, value = expr.partition("=")
        if not sep:
            raise ReproError(f"--set needs KEY=VALUE, got {expr!r}")
        spec = spec.with_override(key.strip(), _coerce(value))
    if args.trials is not None:
        spec = spec.with_override("n_trials", args.trials)
    if args.seed is not None:
        spec = spec.with_override("seed", args.seed)
    return spec


def _print_run(result: RunResult, as_json: bool) -> None:
    # Design-independent scenarios ignore spec.design; label them "n/a"
    # rather than implying a design comparison that never ran.
    design = result.spec.design \
        if get_scenario(result.spec.kind).designs is not None else "n/a"
    if as_json:
        payload = {
            "scenario": result.spec.kind,
            "design": design,
            "n_trials": result.spec.n_trials,
            "seed": result.spec.seed,
            "elapsed_s": result.elapsed,
            "metrics": result.summary(),
            "n_failed": result.n_failed,
            "failure_classes": result.failure_classes(),
        }
        # Only report supervision when it had to act: a clean run's JSON
        # stays byte-identical across worker counts (inline_batches is
        # routine bookkeeping that varies with the execution mode).
        if result.supervision is not None:
            stats = result.supervision.as_dict()
            if result.n_failed or any(
                    v for k, v in stats.items() if k != "inline_batches"):
                payload["supervision"] = stats
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(f"scenario={result.spec.kind} design={design} "
          f"trials={result.spec.n_trials} seed={result.spec.seed} "
          f"workers={result.n_workers} elapsed={result.elapsed:.2f}s")
    print(result.format_table())
    if result.failures:
        print()
        print(result.format_failure_table())
    flows = result.flows()
    if flows:
        print("\nper-flow totals:")
        for name, stats in sorted(flows.items()):
            print(f"  {name:<12} sent={stats.sent:<5d} "
                  f"delivered={stats.delivered:<5d} "
                  f"loss={stats.loss_rate:.3f}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            kinds = available_scenarios()
            width = max(map(len, kinds))
            for name, doc in kinds.items():
                declared = ", ".join(
                    f"{key}={'unset' if value is None else value}"
                    for key, value in get_scenario(name).params.items())
                print(f"{name:<{width}}  {doc}")
                print(f"{'':<{width}}  params: {declared or 'none'}")
            return 0
        if args.command == "demo":
            from repro import quick_hidden_terminal_demo
            results = quick_hidden_terminal_demo(seed=args.seed)
            for name, row in results.items():
                print(f"{name:<8} decoded={row['decoded']} "
                      f"ber={row['ber']:.5f}")
            return 0

        spec = _load_spec(args)
        runner = MonteCarloRunner(n_workers=args.workers,
                                  checkpoint=args.checkpoint,
                                  resume=args.resume)
        if args.command == "run":
            _print_run(runner.run(spec), args.json)
            return 0
        # sweep
        param, values = parse_sweep(args.param)
        sweep = runner.sweep(spec, param, values)
        if args.json:
            payload = {
                "scenario": spec.kind,
                "param": param,
                "points": [{"value": value, "metrics": result.summary()}
                           for value, result in sweep.points],
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            metrics = (args.metrics.split(",") if args.metrics else None)
            print(sweep.format_table(metrics))
        return 0
    except RunAbortedError as exc:
        # The supervisor gave up under fail_fast: summarize what failed
        # instead of dumping a traceback from inside a worker.
        print(f"repro: run aborted: {exc}", file=sys.stderr)
        for failure in exc.failures:
            print(f"  trial {failure.index}: {failure.error_class} "
                  f"({failure.stage}, {failure.attempts} attempt(s)): "
                  f"{failure.message}", file=sys.stderr)
        return 3
    except (ReproError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
