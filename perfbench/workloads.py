"""The three benchmark workloads: what one operation runs and how it is checked.

Every workload calls the library entry points the command line uses, on
the scipy/HiGHS backend (the command-line default), and names them through
their modules (`ccg.run_ccg`, not a local alias) so that a traced run sees
the rebound names. A timed call runs from the workload's top-level
library call to its last artifact written; the checks run afterwards,
outside the timing.

Why each workload exists, and what should move on it, is in README.md
beside this file.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from robustgrid import ccg, oracle, report
from robustgrid.backend import get_backend
from robustgrid.uncertainty import UncertaintyBudget

from instances import Shape, objective_scale

CONFIG = ccg.CcgConfig()
OBJECTIVE_RTOL = 1e-6
LADDER_GAMMAS = [0, 1, 2, 3]
REFERENCES = Path(__file__).with_name("references.json")


@dataclass
class Outcome:
    """Operations one timed call attempted, how many failed, and why."""

    attempted: int
    failed: int
    problems: list[str]


def _check_solve(label, solution, trace, expected) -> list[str]:
    problems = []
    if not trace.converged:
        problems.append(f"{label}: not converged ({trace.message})")
    if trace.stalled:
        problems.append(f"{label}: stalled ({trace.message})")
    if not trace.final_gap <= CONFIG.tolerance:
        problems.append(f"{label}: final gap {trace.final_gap:.3e} above tolerance")
    if abs(solution.objective - expected) > OBJECTIVE_RTOL * max(1.0, abs(expected)):
        problems.append(
            f"{label}: objective {solution.objective:.10g} != reference {expected:.10g}"
        )
    return problems


class Workload:
    name: str
    shape: Shape
    ops: int  # operations attempted by one call of run()

    def run(self, inst, outdir: Path, tracer):
        """The timed part of one operation; returns what check() needs."""
        raise NotImplementedError

    def check(self, result, outdir: Path, expected) -> Outcome:
        raise NotImplementedError

    def expected(self, seed: int):
        """The seed's reference objective(s), scaled from the base instance."""
        base = json.loads(REFERENCES.read_text())[self.name]
        scale = objective_scale(seed)
        return [scale * v for v in base] if isinstance(base, list) else scale * base


class PlanFullBudget(Workload):
    name = "plan-fullbudget"
    shape = Shape(regions=6, periods=2, steps_per_period=7)
    ops = 1

    def run(self, inst, outdir, tracer):
        budget = UncertaintyBudget(gamma_pv=self.shape.regions, gamma_wind=self.shape.regions)
        solution, trace = ccg.run_ccg(inst, budget, CONFIG, get_backend("scipy"))
        with tracer.span("report.write"):
            report.write_solution(outdir / "solution.json", inst, budget, solution, trace)
            report.write_trace_csv(outdir / "trace.csv", trace)
            report.write_realizations(outdir / "realizations.txt", inst, trace)
            report.write_metrics(outdir / "metrics.json", report.report_metrics(inst, solution))
        return solution, trace

    def check(self, result, outdir, expected):
        solution, trace = result
        problems = _check_solve("plan", solution, trace, expected)
        written = json.loads((outdir / "solution.json").read_text())
        if written["objective"] != solution.objective:
            problems.append("plan: solution.json disagrees with the returned objective")
        return Outcome(attempted=1, failed=int(bool(problems)), problems=problems)


class LadderMid(Workload):
    name = "ladder-mid"
    shape = Shape(regions=6, periods=2, steps_per_period=7)
    ops = len(LADDER_GAMMAS)

    def run(self, inst, outdir, tracer):
        entries = ccg.run_gamma_ladder(inst, LADDER_GAMMAS, CONFIG, get_backend("scipy"))
        with tracer.span("report.write"):
            report.write_ladder_summary(
                outdir / "summary.csv", report.ladder_summary_rows(inst, entries)
            )
        return entries

    def check(self, entries, outdir, expected):
        with open(outdir / "summary.csv", newline="") as fh:
            summarized = {int(row["gamma"]) for row in csv.DictReader(fh)}
        problems, failed, previous = [], 0, None
        for gamma, entry, want in zip(LADDER_GAMMAS, entries, expected):
            label = f"ladder gamma {gamma}"
            if entry.solution is None:
                rung = [f"{label}: {entry.error}"]
            else:
                rung = _check_solve(label, entry.solution, entry.trace, want)
                objective = entry.solution.objective
                if previous is not None and objective < previous - OBJECTIVE_RTOL * abs(previous):
                    rung.append(f"{label}: objective {objective:.10g} below the rung before")
                previous = objective
            if gamma not in summarized:
                rung.append(f"{label}: missing from summary.csv")
            problems += rung
            failed += bool(rung)
        return Outcome(attempted=len(LADDER_GAMMAS), failed=failed, problems=problems)


class CertifySmall(Workload):
    name = "certify-small"
    shape = Shape(regions=3, periods=2, steps_per_period=4)
    ops = 4  # the CCG solve and the three certification checks
    budget = UncertaintyBudget(gamma_pv=1, gamma_wind=1)

    def run(self, inst, outdir, tracer):
        backend = get_backend("scipy")
        result = ccg.run_ccg(inst, self.budget, CONFIG, backend)
        return result, oracle.certify_run(inst, self.budget, result, backend)

    def check(self, result, outdir, expected):
        (solution, trace), certification = result
        problems = _check_solve("certify run", solution, trace, expected)
        failed = int(bool(problems))
        for c in certification.checks:
            if not c.passed:
                problems.append(f"certification {c.name}: {c.detail}")
                failed += 1
        return Outcome(attempted=self.ops, failed=failed, problems=problems)


WORKLOADS = {w.name: w for w in (PlanFullBudget(), LadderMid(), CertifySmall())}
