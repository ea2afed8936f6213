"""Command-line entry points.

Four subcommands: `plan` runs the robust planner for one budget, `ladder`
sweeps a list of budgets, `certify` referees a finished run against
exhaustive enumeration of the maximal realizations, and `prep` turns raw
weather history into model-ready series.

Exit codes: 0 success, 1 internal failure, 2 input error, 3 the run did not
converge, 4 certification failed, 5 the enumeration cap was exceeded. The
default output directory comes from ROBUSTGRID_OUTPUT_DIR when set, else
the working directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .backend import BackendError, get_backend
from .ccg import CcgConfig, check_gammas, run_ccg, run_gamma_ladder
from .io import InstanceError, load_instance, save_instance
from .model import CapacityFactorBundle
from .oracle import certify_run
from .prep import (
    compute_deviation,
    read_history_csv,
    reduce_series,
    reference_series,
    synthesize_lower_bound,
)
from .report import (
    ladder_summary_rows,
    report_metrics,
    write_ladder_summary,
    write_metrics,
    write_realizations,
    write_solution,
    write_trace_csv,
)
from .uncertainty import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    UncertaintyBudget,
    maximal_sets,
)

__all__ = ["main"]

log = logging.getLogger(__name__)

OK = 0
INTERNAL = 1
INPUT_ERROR = 2
NOT_CONVERGED = 3
CERTIFY_FAILED = 4
CAP_EXCEEDED = 5

OUTPUT_DIR_ENV = "ROBUSTGRID_OUTPUT_DIR"


class InputError(Exception):
    """Bad file, flag, or instance content; maps to exit code 2."""


def _load(path: str):
    try:
        return load_instance(path)
    except (FileNotFoundError, InstanceError) as exc:
        raise InputError(str(exc)) from exc


def _budget(args) -> UncertaintyBudget:
    try:
        return UncertaintyBudget(args.gamma_pv, args.gamma_wind)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _config(args) -> CcgConfig:
    try:
        return CcgConfig(
            tolerance=args.tolerance,
            max_iterations=args.max_iterations,
            big_m=args.big_m,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _output_dir(args) -> Path:
    raw = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


# --- subcommands --------------------------------------------------------------

def cmd_plan(args) -> int:
    inst = _load(args.instance)
    budget = _budget(args)
    config = _config(args)
    outdir = _output_dir(args)
    solution, trace = run_ccg(inst, budget, config=config, backend=get_backend(args.backend))
    write_solution(outdir / "solution.json", inst, budget, solution, trace)
    write_trace_csv(outdir / "trace.csv", trace)
    write_realizations(outdir / "realizations.txt", inst, trace)
    write_metrics(outdir / "metrics.json", report_metrics(inst, solution))
    print(
        f"objective {solution.objective:.6g} after {len(trace.iterations)} "
        f"iteration(s), gap {trace.final_gap:.3g}; artifacts in {outdir}"
    )
    if not trace.converged:
        print(f"not converged: {trace.message}", file=sys.stderr)
        return NOT_CONVERGED
    return OK


def cmd_ladder(args) -> int:
    inst = _load(args.instance)
    config = _config(args)
    try:
        gammas = [int(v) for v in args.gammas.split(",") if v.strip() != ""]
        check_gammas(gammas)
    except ValueError as exc:
        raise InputError(f"bad --gammas value {args.gammas!r}: {exc}") from exc
    outdir = _output_dir(args)
    entries = run_gamma_ladder(inst, gammas, config=config, backend=get_backend(args.backend))
    write_ladder_summary(outdir / "summary.csv", ladder_summary_rows(inst, entries))
    failed = False
    unconverged = False
    for entry in entries:
        if entry.solution is None:
            print(f"gamma {entry.gamma}: {entry.error}", file=sys.stderr)
            failed = True
            continue
        write_solution(
            outdir / f"solution_gamma{entry.gamma}.json",
            inst, entry.budget, entry.solution, entry.trace,
        )
        if not entry.trace.converged:
            print(
                f"gamma {entry.gamma}: not converged: {entry.trace.message}",
                file=sys.stderr,
            )
            unconverged = True
    print(f"ladder of {len(entries)} budget(s); artifacts in {outdir}")
    if failed:
        return INTERNAL
    if unconverged:
        return NOT_CONVERGED
    return OK


def cmd_certify(args) -> int:
    inst = _load(args.instance)
    budget = _budget(args)
    config = _config(args)
    backend = get_backend(args.backend)
    if args.cap < 1:  # every budget has a maximal member
        raise InputError(f"--cap must be at least 1, got {args.cap}")
    maximal_sets(inst, budget, cap=args.cap)  # over the cap: exit 5 before solving
    outdir = _output_dir(args)
    result = run_ccg(inst, budget, config=config, backend=backend)
    report = certify_run(inst, budget, result, backend, cap=args.cap)
    with open(outdir / "certification.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    return OK if report.passed else CERTIFY_FAILED


def cmd_prep(args) -> int:
    """Reduce the manifest's hourly history to the instance's own step."""
    inst = _load(args.instance)
    step_hours = inst.timegrid.step_hours
    window = int(round(step_hours))
    if window < 1 or abs(window - step_hours) > 1e-9:
        raise InputError(f"instance step of {step_hours} h is not a whole number of hours")
    manifest_path = Path(args.manifest)
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError as exc:
        raise InputError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{manifest_path}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict) or not all(
        isinstance(v, str) for v in manifest.values()
    ):
        raise InputError(f"{manifest_path}: expected a unit id -> CSV path mapping")
    known = {u.id for u in inst.renewables}
    unknown = sorted(set(manifest) - known)
    if unknown:
        raise InputError(f"manifest names unknown renewable unit(s): {unknown}")

    paths = {uid: manifest_path.parent / rel for uid, rel in manifest.items()}
    try:
        history = read_history_csv(paths)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc

    steps = inst.timegrid.step_count
    prepared = []
    for unit in inst.renewables:
        if unit.id not in manifest:
            prepared.append(unit)
            continue
        try:
            lower = reduce_series(synthesize_lower_bound(history, unit.id), window)
            # align the reference with the complete weeks the lower bound uses
            reference = reduce_series(
                reference_series(history, unit.id)[: lower.size * window], window
            )
        except ValueError as exc:
            raise InputError(f"{unit.id}: {exc}") from exc
        if reference.size != steps:
            raise InputError(
                f"{unit.id}: prepared series has {reference.size} step(s), "
                f"instance expects {steps}"
            )
        deviation = compute_deviation(reference, lower)
        prepared.append(
            dataclasses.replace(
                unit,
                cf=CapacityFactorBundle(
                    reference=tuple(reference), deviation=tuple(deviation)
                ),
            )
        )
    outdir = _output_dir(args)
    out_path = outdir / "prepared_instance.json"
    save_instance(inst.replace(renewables=tuple(prepared)), out_path)
    print(f"prepared {len(manifest)} unit(s); instance written to {out_path}")
    return OK


# --- parser and dispatch ------------------------------------------------------

def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tolerance", type=float, default=1e-8,
                   help="relative convergence gap (default 1e-8)")
    p.add_argument("--max-iterations", type=int, default=50,
                   help="iteration cap for the planning loop (default 50)")
    p.add_argument("--big-m", type=float, default=None,
                   help="dual variable bound (default derived from shedding costs)")
    p.add_argument("--backend", choices=("scipy", "intree"), default="scipy",
                   help="LP/MILP engine (default scipy)")
    p.add_argument("--output-dir", default=None,
                   help=f"artifact directory (default ${OUTPUT_DIR_ENV} or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustgrid",
        description="Robust capacity expansion planning for electricity networks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve one robust plan")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--gamma-pv", type=int, default=0, help="solar budget per period")
    p.add_argument("--gamma-wind", type=int, default=0, help="wind budget per period")
    _add_run_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("ladder", help="sweep a list of budgets")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--gammas", required=True,
                   help="comma-separated budgets, e.g. 0,1,2 (applied to both technologies)")
    _add_run_flags(p)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("certify", help="referee a run against exhaustive enumeration")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--gamma-pv", type=int, default=0, help="solar budget per period")
    p.add_argument("--gamma-wind", type=int, default=0, help="wind budget per period")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="largest count of maximal realizations worth enumerating (at least 1)")
    _add_run_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("prep", help="build model-ready series from raw history")
    p.add_argument("instance", help="instance JSON file to take series into")
    p.add_argument("manifest", help="JSON mapping of renewable unit id -> history CSV")
    p.add_argument("--output-dir", default=None,
                   help=f"artifact directory (default ${OUTPUT_DIR_ENV} or .)")
    p.set_defaults(func=cmd_prep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_EXCEEDED
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
