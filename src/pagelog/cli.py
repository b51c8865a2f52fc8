"""Command-line front end.

Subcommands:

* ``gen``     -- generate a synthetic workload trace file.
* ``run``     -- run one scenario, print its summary (or JSON), optionally
                 write the key,value report CSV.
* ``compare`` -- run the paired estimator comparison for one or more
                 scenarios and emit the comparison CSV.
* ``dist``    -- emit the observation time series of a scenario as CSV.

Exit codes: 0 on success, 1 on validation errors, 2 on I/O or parse errors
(argparse uses 2 for usage errors as well). Relative output paths are
resolved against ``$PAGELOG_OUTDIR`` when that variable is set.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import TraceParseError, ValidationError
from .estimator import estimate_from_series
from .sim import (
    NATIVE,
    load_scenario,
    report_to_json,
    run,
    run_paired,
)
from .trace import Pattern, WorkloadSpec, generate, write_trace_file

OUTDIR_ENV = "PAGELOG_OUTDIR"


def _resolve_out(path: str) -> Path:
    p = Path(path)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not p.is_absolute():
        return Path(outdir) / p
    return p


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        path = _resolve_out(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def cmd_gen(args) -> int:
    spec = WorkloadSpec(
        n_pages=args.pages,
        pattern=Pattern.parse(args.pattern),
        d_iters=args.iters,
        wi=args.wi,
        hot_pages=args.hot,
        cold_prefix=args.cold_prefix,
        seed=args.seed,
        inter_access_gap_ns=args.gap,
    )
    trace = generate(spec)
    out = _resolve_out(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_trace_file(trace, out)
    print(f"wrote {len(trace)} accesses to {out} (ground truth {trace.ground_truth_wss_pages} pages)")
    return 0


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run(scenario)
    if args.output:
        csv_text = "key,value\n" + "\n".join(f"{k},{v}" for k, v in report.csv_rows()) + "\n"
        _write_or_print(csv_text, args.output)
    if args.json:
        print(report_to_json(report))
    else:
        print(report.summary_text())
    return 0


def cmd_compare(args) -> int:
    paths = list(args.scenarios)
    comparisons = [run_paired(load_scenario(p)) for p in paths]
    with_scenario = len(paths) > 1
    lines: list[str] = []
    for i, comparison in enumerate(comparisons):
        body = comparison.csv_lines(with_scenario=with_scenario)
        if i > 0:
            body = body[1:]  # one shared header
        lines.extend(body)
    _write_or_print("\n".join(lines) + "\n", args.output)
    return 0


def cmd_dist(args) -> int:
    scenario = load_scenario(args.scenario)
    obs = run(scenario).observations
    column = obs[NATIVE[scenario.tracking.mode][1]]
    converged_index = estimate_from_series(column, scenario.estimator).converged_index
    lines = ["i,t_ns,dist,is_convergence_point"]
    for i, (t_ns, dist) in enumerate(zip(obs.t_ns.tolist(), column.tolist())):
        flag = 1 if i == converged_index else 0
        lines.append(f"{i},{t_ns},{dist},{flag}")
    _write_or_print("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pagelog",
        description="Simulate hardware page-access logging and working-set estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic trace file")
    p_gen.add_argument("--pattern", required=True, help="wi | rwrw | rrww | wwrr")
    p_gen.add_argument("--pages", type=int, required=True, help="array size in pages")
    p_gen.add_argument("--iters", type=int, default=WorkloadSpec.d_iters, help="number of passes")
    p_gen.add_argument("--wi", type=int, default=WorkloadSpec.wi,
                       help="write intensity percent (wi pattern)")
    p_gen.add_argument("--hot", type=int, default=None, help="hot subset size (with --cold-prefix)")
    p_gen.add_argument("--cold-prefix", action="store_true", help="emit a full write pass first")
    p_gen.add_argument("--seed", type=int, default=WorkloadSpec.seed)
    p_gen.add_argument("--gap", type=int, default=WorkloadSpec.inter_access_gap_ns,
                       help="ns between accesses")
    p_gen.add_argument("-o", "--output", required=True, help="trace file to write")
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario", help="scenario file")
    p_run.add_argument("-o", "--output", default=None, help="write the report CSV here")
    p_run.add_argument("--json", action="store_true", help="print the JSON report")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="paired estimator comparison")
    p_cmp.add_argument("scenarios", nargs="+", help="scenario file(s)")
    p_cmp.add_argument("-o", "--output", default=None, help="comparison CSV (default stdout)")
    p_cmp.set_defaults(func=cmd_compare)

    p_dist = sub.add_parser("dist", help="observation time series of a scenario")
    p_dist.add_argument("scenario", help="scenario file")
    p_dist.add_argument("-o", "--output", default=None, help="series CSV (default stdout)")
    p_dist.set_defaults(func=cmd_dist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TraceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
