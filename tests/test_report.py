"""Report rendering: documents, CSV policy, realization matrix, metrics."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from robustgrid.backend import ScipyBackend
from robustgrid.ccg import (
    CcgConfig,
    CcgIteration,
    CcgTrace,
    LadderEntry,
    run_ccg,
    run_gamma_ladder,
)
from robustgrid.io import load_instance
from robustgrid.master import MasterSolution, dispatch_cost, dispatch_template
from robustgrid.model import HydrogenUnit
import robustgrid.subproblem as subproblem
from robustgrid.report import (
    fmt,
    ladder_summary_rows,
    realization_matrix,
    report_metrics,
    solution_document,
    write_ladder_summary,
    write_solution,
    write_trace_csv,
)
from robustgrid.uncertainty import (
    UncertaintyBudget,
    WorstCaseRealization,
    complete,
)

from toys import (
    single_node,
    symmetric_pair,
    three_region_hydro,
    toy6_priced,
    toy6_with_pumped_hydro,
    two_period_battery,
    two_region,
)

SCIPY = ScipyBackend()


def fake_solution(inst, capacities):
    """Solution shell with one idle block, for pure-arithmetic metrics."""
    return MasterSolution(
        capacities=capacities, investment_cost=0.0,
        recourse_bound=0.0, objective=0.0, realizations=[{}],
        dispatch=np.zeros((1, dispatch_template(inst).n_vars)), binding=0,
        iterations=None,
    )


# --- number policy ------------------------------------------------------------

def test_fmt_is_six_significant_digits():
    assert fmt(1.0 / 3.0) == "0.333333"
    assert fmt(1234567.0) == "1.23457e+06"
    assert fmt(0.0) == "0"


def test_fmt_idempotent_under_reparse():
    import random

    rng = random.Random(5)
    for _ in range(200):
        x = rng.uniform(-1, 1) * 10 ** rng.randint(-12, 12)
        assert fmt(float(fmt(x))) == fmt(x)


# --- solution document and trace CSV -------------------------------------------

def test_solution_document_round_trips():
    inst = two_region()
    budget = UncertaintyBudget(1, 1)
    solution, trace = run_ccg(inst, budget, backend=SCIPY)
    doc = solution_document(inst, budget, solution, trace)
    again = json.loads(json.dumps(doc))
    assert again == doc
    assert doc["converged"] is True
    assert doc["objective"] == solution.objective
    assert doc["iterations"] == len(trace.iterations)
    assert doc["budget"] == {"gamma_pv": 1, "gamma_wind": 1}
    kinds = {(c["kind"], c["id"]) for c in doc["capacities"]}
    assert kinds == set(solution.capacities)


def test_solution_document_counts_the_seeds():
    inst = three_region_hydro()
    budget = UncertaintyBudget(0, 1)
    solution, trace = run_ccg(inst, budget, backend=SCIPY)
    doc = solution_document(inst, budget, solution, trace)
    assert doc["seeds"] == len(trace.seeds) == 2


def test_trace_csv_round_trips_exactly(tmp_path, monkeypatch):
    # two_region's budget leaves one maximal member, so its iteration prices
    # it; symmetric_pair's leaves two, so its iteration searches the whole
    # horizon; toy6 has two periods and stores no energy, so its search
    # splits by period and prices each window's six members; with no window
    # priced, it solves one MILP per period instead
    toy6 = load_instance(Path(__file__).parent / "fixtures" / "toy6.json")
    runs = [
        run_ccg(two_region(), UncertaintyBudget(1, 1), backend=SCIPY)[1],
        run_ccg(symmetric_pair(), UncertaintyBudget(1, 0), backend=SCIPY)[1],
        run_ccg(toy6, UncertaintyBudget(1, 0), backend=SCIPY)[1],
    ]
    monkeypatch.setattr(subproblem, "WINDOW_ENUMERATION_LIMIT", 0)
    runs.append(run_ccg(toy6, UncertaintyBudget(1, 0), backend=SCIPY)[1])
    assert [it.realization.milp_nodes is None for trace in runs for it in trace.iterations] == [
        True, False, True, False
    ]
    assert [it.realization.milps for trace in runs for it in trace.iterations] == [0, 1, 0, 2]
    path = tmp_path / "trace.csv"
    for trace in runs:
        write_trace_csv(path, trace)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames[-2:] == ["milp_nodes", "milps"]
        assert reader.fieldnames.index("master_iterations") == (
            reader.fieldnames.index("master_s") + 1
        )
        assert len(rows) == len(trace.iterations)
        for row, it in zip(rows, trace.iterations):
            assert int(row["iteration"]) == it.index
            for col, value in (
                ("lower_bound", it.lower_bound),
                ("upper_bound", it.upper_bound),
                ("gap", it.gap),
                ("seconds", it.seconds),
                ("master_s", it.master_s),
                ("worst_s", it.worst_s),
            ):
                assert row[col] == fmt(value)
                assert float(row[col]) == float(fmt(value))
            assert row["realization"] == it.realization.summary()
            worst = it.realization
            assert row["exact"] == str(int(worst.exact))
            assert int(row["master_iterations"]) == it.master_iterations
            if worst.milp_nodes is None:
                assert row["milp_nodes"] == ""
            else:
                assert int(row["milp_nodes"]) == worst.milp_nodes
            assert int(row["milps"]) == worst.milps


def test_run_without_an_exact_search_writes_infinite_bounds(tmp_path):
    # toy6 with pumped hydro at gamma 2 stops its first search early; with
    # one iteration allowed no exact search ever runs, so there is no upper
    # bound yet
    inst = toy6_with_pumped_hydro()
    budget = UncertaintyBudget(2, 2)
    solution, trace = run_ccg(inst, budget, CcgConfig(max_iterations=1), SCIPY)
    write_solution(tmp_path / "solution.json", inst, budget, solution, trace)
    text = (tmp_path / "solution.json").read_text()

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    doc = json.loads(text, parse_constant=reject)
    assert doc["final_gap"] is None
    assert doc["converged"] is False
    write_trace_csv(tmp_path / "trace.csv", trace)
    with open(tmp_path / "trace.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["upper_bound"], row["gap"], row["exact"]) == ("inf", "inf", "0")


# --- realization matrix ---------------------------------------------------------

def trace_with(inst, flag_sets):
    iterations = [
        CcgIteration(
            index=i, lower_bound=0.0, upper_bound=0.0, gap=0.0,
            realization=WorstCaseRealization(frozenset(flags)),
            seconds=0.0, master_s=0.0, master_iterations=None, worst_s=0.0,
        )
        for i, flags in enumerate(flag_sets)
    ]
    return CcgTrace(iterations=iterations, converged=True)


def test_matrix_empty_without_adverse_events():
    inst = single_node()
    text = realization_matrix(inst, trace_with(inst, [set()]))
    lines = text.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].split() == ["iteration", "period", "R1"]


def test_matrix_single_solar_cell():
    inst = single_node()
    text = realization_matrix(inst, trace_with(inst, [{("pv", "R1", "p1")}]))
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["0", "p1", "S"]


def test_matrix_cell_alphabet():
    inst = three_region_hydro()
    flags = {
        ("pv", "R1", "p1"),
        ("wind", "R1", "p1"),
        ("wind", "R2", "p1"),
    }
    text = realization_matrix(inst, trace_with(inst, [set(), flags]))
    lines = text.strip().splitlines()
    assert lines[1].split() == ["1", "p1", "D", "W", "-"]


def test_matrix_lists_seeds_first_by_block_tag():
    inst = three_region_hydro()
    trace = trace_with(inst, [{("wind", "R3", "p1")}])
    trace.seeds = [
        WorstCaseRealization.reference(),
        WorstCaseRealization(frozenset({("pv", "R1", "p1"), ("wind", "R2", "p1")})),
    ]
    lines = realization_matrix(inst, trace).strip().splitlines()
    # the reference seed flags nothing and gets no row
    assert [line.split() for line in lines[1:]] == [
        ["s1", "p1", "S", "W", "-"],
        ["0", "p1", "-", "-", "W"],
    ]


def test_matrix_from_real_run():
    inst = single_node()
    _, trace = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    text = realization_matrix(inst, trace)
    assert "S" in text


# --- metrics --------------------------------------------------------------------

def test_cost_shares_and_region_totals():
    inst = two_region()
    solution, _ = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    m = report_metrics(inst, solution)
    shares = m["cost_shares"]
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    regional = sum(r["total"] for r in m["region_costs"].values())
    assert regional == pytest.approx(m["system_cost"], rel=1e-9)
    # investment plus the binding operating cost is the robust objective
    assert m["system_cost"] == pytest.approx(solution.objective, rel=1e-6)


def test_binding_realization_tags_a_seed_row():
    # two_region at (1, 1) converges on its one seed: block s0 binds
    inst = two_region()
    solution, trace = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    tag = report_metrics(inst, solution)["binding_realization"]
    assert tag == "s0" and len(trace.seeds) == 1
    rows = realization_matrix(inst, trace).strip().splitlines()[1:]
    assert [row.split()[0] for row in rows] == [tag]
    assert solution.realizations[solution.binding] == trace.seeds[0]


def test_blocks_past_the_seeds_are_the_completed_cuts(reference_start):
    # a binding_realization tag s<k> with k at or past the seed count names
    # the completed worst case of iteration k - len(seeds)
    inst = two_region()
    budget = UncertaintyBudget(1, 1)
    solution, trace = run_ccg(inst, budget, backend=SCIPY)
    past = len(solution.realizations) - len(trace.seeds)
    assert past and past == len(trace.iterations) - 1
    assert len(solution.dispatch) == len(solution.realizations)
    for it in trace.iterations[:past]:
        assert it.realization.flags
        cut = WorstCaseRealization(complete(inst, it.realization.flags, budget))
        assert solution.realizations[len(trace.seeds) + it.index] == cut


def binding_costs(inst, solution):
    """Fuel and shedding cost of the binding block's master dispatch."""
    tpl, x = dispatch_template(inst), solution.dispatch[solution.binding]
    return (
        float(tpl.fuel_costs @ x[tpl.fuel_cols]),
        float(tpl.shed_costs @ x[tpl.shed_cols]),
    )


def test_regional_costs_add_up_to_the_priced_totals():
    # the one toy with recourse at its robust optimum: gas covers the drought
    inst = two_region()
    solution, _ = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    fuel, shed = binding_costs(inst, solution)
    assert fuel > 0.0
    regional = report_metrics(inst, solution)["region_costs"].values()
    for part, total in (
        ("investment", solution.investment_cost),
        ("fuel", fuel),
        ("shedding", shed),
    ):
        assert sum(r[part] for r in regional) == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("gamma", [2, 4])
def test_binding_realization_prices_at_the_recourse_bound(gamma):
    # Several final blocks of this run are slack, and the master pads a
    # slack block's dispatch up to the bound. Picked by master cost, the
    # report named s1 at gamma 2 (priced 75.82 against 331.455) and s4 at
    # gamma 4 (363.57 against 391.31).
    inst = toy6_priced()
    budget = UncertaintyBudget(gamma, gamma)
    solution, trace = run_ccg(inst, budget, backend=SCIPY)
    m = report_metrics(inst, solution)
    # the tag read as the README tells a reader of metrics.json to read it
    k = int(m["binding_realization"].removeprefix("s")) - len(trace.seeds)
    if k < 0:
        named = trace.seeds[k]
    else:
        named = WorstCaseRealization(complete(inst, trace.iterations[k].realization.flags, budget))
    [priced] = dispatch_cost(inst, solution.capacities, [named], SCIPY)
    tol = CcgConfig().tolerance * max(1.0, abs(solution.objective))
    assert abs(priced - solution.recourse_bound) <= tol
    operating = sum(r["fuel"] + r["shedding"] for r in m["region_costs"].values())
    assert abs(operating - priced) <= tol


def test_unit_named_like_a_node_is_split_by_its_own_node():
    # gas unit "n1" sits at node n2 (RB); node n1 (RA) carries the demand
    base = two_region(gas_cap=5.0)
    gas = dataclasses.replace(base.conventionals[0], id="n1")
    inst = base.replace(conventionals=(gas,))
    solution, _ = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    fuel, shed = binding_costs(inst, solution)
    assert fuel > 0.0 and shed > 0.0
    m = report_metrics(inst, solution)
    costs, energy = m["region_costs"], m["region_energy"]
    assert costs["RB"]["fuel"] == pytest.approx(fuel, rel=1e-12)
    assert costs["RA"]["shedding"] == pytest.approx(shed, rel=1e-12)
    assert costs["RA"]["fuel"] == 0.0 and costs["RB"]["shedding"] == 0.0
    assert energy["RA"]["generation_mwh"] == 0.0
    assert energy["RB"]["generation_mwh"] > 0.0 and energy["RB"]["shed_mwh"] == 0.0


def test_capacity_mix_sums_to_hundred():
    inst = two_region()
    solution, _ = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    m = report_metrics(inst, solution)
    assert sum(m["capacity_mix_pct"].values()) == pytest.approx(100.0, abs=1e-9)
    assert m["capacity_mw"]["conventional"] == 30.0


def test_net_export_flags():
    # worst case wipes both renewables; the gas region exports to the load
    inst = two_region()
    solution, _ = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    m = report_metrics(inst, solution)
    assert m["region_energy"]["RB"]["net_exporter"] is True
    assert m["region_energy"]["RA"]["net_exporter"] is False
    assert m["region_energy"]["RA"]["demand_mwh"] == pytest.approx(20.0)


def test_storage_ratio_zero_without_storage():
    inst = two_region()
    solution, _ = run_ccg(inst, UncertaintyBudget(0, 0), backend=SCIPY)
    assert report_metrics(inst, solution)["storage_demand_ratio"] == 0.0


def test_storage_ratio_hand_example():
    # 4 MWh of tank against 1000 MWh of demand is a ratio of 0.4 %
    base = single_node(steps=2, demand=500.0)
    inst = base.replace(
        hydrogens=(
            HydrogenUnit(
                id="h1", node="n1", ocgt_cost=1.0, electrolyzer_cost=1.0,
                storage_cost=1.0, eta_el=0.7, eta_ocgt=0.5,
            ),
        )
    )
    solution = fake_solution(inst, {("h2_stor", "h1"): 4.0})
    m = report_metrics(inst, solution)
    assert m["demand_mwh_total"] == 1000.0
    assert m["storage_demand_ratio"] == pytest.approx(0.004, rel=1e-12)


def test_h2_duration_hand_example():
    # 48 MWh tank at 50 % turbine efficiency over 2400 MWh/day of demand
    base = single_node(steps=2, demand=100.0)
    inst = base.replace(
        hydrogens=(
            HydrogenUnit(
                id="h1", node="n1", ocgt_cost=1.0, electrolyzer_cost=1.0,
                storage_cost=1.0, eta_el=0.7, eta_ocgt=0.5,
            ),
        )
    )
    solution = fake_solution(inst, {("h2_stor", "h1"): 48.0})
    m = report_metrics(inst, solution)
    horizon_days = 2 * 1.0 / 24.0
    daily = 200.0 / horizon_days
    assert m["h2_discharge_duration_days"]["R1"] == pytest.approx(
        48.0 * 0.5 / daily, rel=1e-12
    )


def test_h2_duration_zero_for_demandless_region():
    inst = three_region_hydro()
    solution, _ = run_ccg(inst, UncertaintyBudget(0, 0), backend=SCIPY)
    m = report_metrics(inst, solution)
    assert set(m["h2_discharge_duration_days"]) == {"R1", "R2", "R3"}
    assert m["h2_discharge_duration_days"]["R2"] == 0.0


def test_transmission_summary():
    inst = two_region()
    solution, _ = run_ccg(inst, UncertaintyBudget(1, 1), backend=SCIPY)
    m = report_metrics(inst, solution)
    assert m["transmission"]["initial_mw"] == 50.0
    expected = solution.capacities[("line", "l12")]
    assert m["transmission"]["expansion_mw"] == pytest.approx(expected)
    assert m["transmission"]["expansion_pct"] == pytest.approx(
        100.0 * expected / 50.0
    )


@pytest.mark.parametrize(
    "build", [single_node, two_region, two_period_battery, three_region_hydro]
)
def test_capacity_and_transmission_figures_are_floats(build):
    # a sum over an empty fleet is 0.0, not the int 0, in metrics.json
    inst = build()
    solution, _ = run_ccg(inst, UncertaintyBudget(0, 0), backend=SCIPY)
    m = report_metrics(inst, solution)
    figures = {**m["capacity_mw"], **m["transmission"]}
    assert all(v is None or type(v) is float for v in figures.values()), figures


# --- ladder summary --------------------------------------------------------------

def test_ladder_summary_values(tmp_path):
    inst = two_region()
    entries = run_gamma_ladder(inst, [0, 1], backend=SCIPY)
    rows = ladder_summary_rows(inst, entries)
    assert [r["gamma"] for r in rows] == [0, 1]
    assert rows[0]["increase_pct_vs_gamma0"] == 0.0
    obj0, obj1 = rows[0]["objective"], rows[1]["objective"]
    assert rows[1]["increase_pct_vs_gamma0"] == pytest.approx(
        100.0 * (obj1 - obj0) / obj0
    )
    total = inst.demand.total()
    for r, entry in zip(rows, entries):
        assert r["avg_cost_per_mwh"] == pytest.approx(r["objective"] / total)
        # what each rung did, from its own trace (rungs may run in workers)
        assert r["iterations"] == len(entry.trace.iterations) >= 1
        assert r["seconds"] == sum(it.seconds for it in entry.trace.iterations) > 0

    path = tmp_path / "summary.csv"
    write_ladder_summary(path, rows)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert list(parsed[0]) == [
        "gamma", "objective", "increase_pct_vs_gamma0", "avg_cost_per_mwh",
        "iterations", "seconds",
    ]
    for text_row, row in zip(parsed, rows):
        assert int(text_row["gamma"]) == row["gamma"]
        assert int(text_row["iterations"]) == row["iterations"]
        for col in ("objective", "increase_pct_vs_gamma0", "avg_cost_per_mwh", "seconds"):
            assert text_row[col] == fmt(row[col])
            assert float(text_row[col]) == float(fmt(row[col]))


def test_ladder_summary_skips_failed_rungs():
    inst = two_region()
    good = run_gamma_ladder(inst, [1], backend=SCIPY)[0]
    broken = LadderEntry(
        gamma=0, budget=UncertaintyBudget(0, 0), error="solver exploded"
    )
    rows = ladder_summary_rows(inst, [broken, good])
    assert [r["gamma"] for r in rows] == [1]
    assert rows[0]["increase_pct_vs_gamma0"] == 0.0
