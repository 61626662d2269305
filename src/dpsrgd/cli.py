"""Command-line interface.

Verbs:
  factorize  build a noise-shaping strategy and print its error objective
             and multi-epoch sensitivity
  run        execute an experiment described by a key=value config file
  verify     run the acceptance criteria suite
  report     aggregate one or more summary CSVs and print the best rows

Exit codes: 0 success, 1 run/criterion failures present, 2 invalid
configuration or arguments.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import counting, harness, verify

EXIT_OK = 0
EXIT_RUN_FAILURES = 1
EXIT_INVALID = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsrgd",
        description="differentially private optimization toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_fact = sub.add_parser(
        "factorize", help="build a strategy and print its objective and sensitivity")
    p_fact.add_argument("--workload", default="ones", choices=counting.WORKLOADS,
                        help="workload the strategy is built for")
    p_fact.add_argument("--epochs", type=int, default=1,
                        help="number of passes over the batches")
    p_fact.add_argument("--batches", type=int, required=True,
                        help="batches per epoch")
    p_fact.add_argument("--momentum", type=float, default=0.9,
                        help="momentum weight for momentum workloads")
    p_fact.add_argument("--decay", type=float, default=1.0,
                        help="per-step decay for the momentum_decay workload")

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="key=value experiment config file")
    p_run.add_argument("--output", default=None,
                       help="override the config's output CSV path")
    p_run.add_argument("--data-dir", default=None,
                       help="override the dataset directory")

    p_verify = sub.add_parser("verify", help="run the acceptance criteria")
    p_verify.add_argument("--criteria", default=None,
                          help="comma-separated criterion numbers (default all)")

    p_report = sub.add_parser("report", help="aggregate summary CSVs")
    p_report.add_argument("csvs", nargs="+", help="summary CSV paths")
    return parser


def _cmd_factorize(args) -> int:
    strategy = counting.build_strategy(args.workload, args.epochs, args.batches,
                                       args.momentum, args.decay)
    print(f"{args.workload} strategy for {args.epochs} x {args.batches} steps: "
          f"objective={strategy.objective:.6f} sens={strategy.sens:.6f}")
    return EXIT_OK


def _cmd_run(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        spec = harness.ExperimentSpec.from_text(fh.read())
    if args.data_dir is not None:
        spec.data_path = args.data_dir
    if args.output is not None:
        spec.output = args.output
    spec.validate()
    out_dir = os.path.dirname(spec.output) or "."
    if os.path.isdir(spec.output):
        raise ValueError(f"cannot write output {spec.output!r}: it is a directory")
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK | os.X_OK)):
        raise ValueError(f"cannot write output {spec.output!r}: directory "
                         f"{out_dir!r} does not exist or is not writable")
    # each trajectory file is written as its run finishes, the summary last
    table, records = harness.run_experiment(
        spec, on_run=functools.partial(harness.write_trajectory, spec.output))
    harness.emit_csv(table, records, spec.output)
    aborted = sum(row.n_aborted for row in table.rows)
    for row in table.rows:
        marker = "*" if row is table.best else " "
        print(f"{marker} lr={row.lr:g} clip={row.clip:g} c={row.c:g} "
              f"metric={row.selection_metric:.6f} runs={row.n_runs} "
              f"aborted={row.n_aborted}")
    print(f"wrote {spec.output} ({len(table.rows)} grid points, "
          f"{aborted} aborted runs)")
    return EXIT_RUN_FAILURES if aborted else EXIT_OK


def _cmd_verify(args) -> int:
    indices = None
    if args.criteria is not None:
        indices = [int(tok) for tok in args.criteria.split(",") if tok.strip()]
        if not indices:
            raise ValueError("--criteria given but no criterion numbers parsed")
    results = verify.run_all(indices)
    return EXIT_RUN_FAILURES if any(r.passed is False for r in results) else EXIT_OK


def _report_metric(row) -> float | None:
    """Comparable goodness for a parsed summary row: accuracy when the
    task has one, else negated excess risk."""
    if row.acc_mean is not None:
        return row.acc_mean
    if row.excess_mean is not None:
        return -row.excess_mean
    return None


def _cmd_report(args) -> int:
    rows = []
    for path in args.csvs:
        table = harness.parse_summary_csv(path)
        rows.extend((path, row) for row in table.rows)
    if not rows:
        print("no rows found")
        return EXIT_RUN_FAILURES
    best_by_algo: dict[str, tuple[str, object, float]] = {}
    for path, row in rows:
        metric = _report_metric(row)
        if metric is None or math.isnan(metric):
            continue
        cur = best_by_algo.get(row.algorithm)
        if cur is None or metric > cur[2]:
            best_by_algo[row.algorithm] = (path, row, metric)
    print(f"{len(rows)} rows from {len(args.csvs)} file(s); "
          f"best per algorithm:")
    for algo in sorted(best_by_algo):
        path, row, _ = best_by_algo[algo]
        acc = "" if row.acc_mean is None else f" acc={row.acc_mean:.4f}"
        ci = "" if row.acc_ci95 is None else f"+-{row.acc_ci95:.4f}"
        excess = "" if row.excess_mean is None else f" excess={row.excess_mean:.6g}"
        print(f"  {algo}: workload={row.workload} lr={row.lr:g} "
              f"clip={row.clip:g} c={row.c:g}{acc}{ci}{excess}  [{path}]")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments already; normalize other codes
        return EXIT_INVALID if exc.code not in (0,) else EXIT_OK
    handlers = {"factorize": _cmd_factorize, "run": _cmd_run,
                "verify": _cmd_verify, "report": _cmd_report}
    try:
        return handlers[args.verb](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
