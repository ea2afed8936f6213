"""Command-line interface: artifacts, exit codes, error mapping."""

import csv
import dataclasses
import json

import numpy as np
import pytest

import robustgrid.cli as cli
import robustgrid.uncertainty as uncertainty
from robustgrid.cli import (
    CAP_EXCEEDED,
    CERTIFY_FAILED,
    INPUT_ERROR,
    NOT_CONVERGED,
    OK,
    main,
)
from robustgrid.io import instance_to_dict, load_instance, save_instance
from robustgrid.model import CapacityFactorBundle
from robustgrid.prep import read_history_csv

from toys import single_node, two_period_battery, two_region

pytestmark = pytest.mark.usefixtures("isolated_output_dir")


@pytest.fixture
def isolated_output_dir(monkeypatch, tmp_path):
    # keep artifacts out of the working directory even when a test forgets
    monkeypatch.setenv("ROBUSTGRID_OUTPUT_DIR", str(tmp_path / "default_out"))


def save(inst, tmp_path, name="inst.json"):
    path = tmp_path / name
    save_instance(inst, path)
    return str(path)


# --- plan -----------------------------------------------------------------------

def test_plan_gamma_zero(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["plan", save(single_node(), tmp_path), "--output-dir", str(out)])
    assert rc == OK
    doc = json.loads((out / "solution.json").read_text())
    assert doc["objective"] == pytest.approx(20.0)
    assert doc["converged"] is True
    # no adverse event: the matrix is just its header
    assert len((out / "realizations.txt").read_text().strip().splitlines()) == 1
    with open(out / "trace.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 1
    json.loads((out / "metrics.json").read_text())
    assert "objective 20" in capsys.readouterr().out


def test_plan_flags_show_in_matrix(tmp_path, reference_start):
    out = tmp_path / "out"
    rc = main([
        "plan", save(single_node(), tmp_path),
        "--gamma-pv", "1", "--gamma-wind", "1", "--output-dir", str(out),
    ])
    assert rc == OK
    lines = (out / "realizations.txt").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["0", "p1", "S"]


def test_plan_missing_file(tmp_path, capsys):
    rc = main(["plan", str(tmp_path / "nowhere.json")])
    assert rc == INPUT_ERROR
    assert "no such instance file" in capsys.readouterr().err


def test_plan_malformed_value_is_input_error(tmp_path, capsys):
    doc = instance_to_dict(two_region())
    doc["conventionals"][0]["existing_cap"] = "lots"
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    rc = main(["plan", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == INPUT_ERROR
    err = capsys.readouterr().err
    assert "error: conventionals[0].existing_cap:" in err
    assert "Traceback" not in err


def test_plan_non_finite_value_is_input_error(tmp_path, capsys):
    doc = instance_to_dict(two_region())
    doc["conventionals"][0]["variable_cost"] = "nan"
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    rc = main(["plan", str(path), "--output-dir", str(tmp_path / "out")])
    assert rc == INPUT_ERROR
    err = capsys.readouterr().err
    assert "error: instance violates" in err
    assert "gas_b: variable_cost_finite" in err
    assert "Traceback" not in err


def test_plan_negative_limit_is_input_error_before_any_output(tmp_path, capsys):
    doc = instance_to_dict(two_period_battery())
    doc["batteries"][0]["storage_limit"] = -2
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["plan", str(path), "--output-dir", str(out)])
    assert rc == INPUT_ERROR
    err = capsys.readouterr().err
    assert "bat_a: negative_limit (storage_limit = -2.0)" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_plan_rejects_negative_budget(tmp_path, capsys):
    rc = main(["plan", save(single_node(), tmp_path), "--gamma-pv", "-1"])
    assert rc == INPUT_ERROR
    assert "error:" in capsys.readouterr().err


def test_plan_rejects_bad_tolerance(tmp_path):
    rc = main(["plan", save(single_node(), tmp_path), "--tolerance", "-1"])
    assert rc == INPUT_ERROR


def test_plan_iteration_limit_exit(tmp_path, capsys, reference_start):
    out = tmp_path / "out"
    rc = main([
        "plan", save(single_node(), tmp_path),
        "--gamma-pv", "1", "--gamma-wind", "1",
        "--max-iterations", "1", "--output-dir", str(out),
    ])
    assert rc == NOT_CONVERGED
    assert "not converged" in capsys.readouterr().err
    # artifacts still land for post-mortems
    assert (out / "solution.json").exists()
    assert json.loads((out / "solution.json").read_text())["converged"] is False


def test_output_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("ROBUSTGRID_OUTPUT_DIR", str(target))
    rc = main(["plan", save(single_node(), tmp_path)])
    assert rc == OK
    assert (target / "solution.json").exists()


def test_output_dir_flag_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("ROBUSTGRID_OUTPUT_DIR", str(tmp_path / "env"))
    out = tmp_path / "flag"
    rc = main(["plan", save(single_node(), tmp_path), "--output-dir", str(out)])
    assert rc == OK
    assert (out / "solution.json").exists()
    assert not (tmp_path / "env" / "solution.json").exists()


def test_plan_intree_backend(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "plan", save(single_node(), tmp_path),
        "--gamma-pv", "1", "--gamma-wind", "1",
        "--backend", "intree", "--output-dir", str(out),
    ])
    assert rc == OK
    doc = json.loads((out / "solution.json").read_text())
    assert doc["objective"] == pytest.approx(202000.0)


# --- ladder ---------------------------------------------------------------------

def test_ladder_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "ladder", save(two_region(), tmp_path),
        "--gammas", "0,1", "--output-dir", str(out),
    ])
    assert rc == OK
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["gamma"] for r in rows] == ["0", "1"]
    objectives = [float(r["objective"]) for r in rows]
    assert objectives[1] >= objectives[0] - 1e-9
    assert float(rows[0]["increase_pct_vs_gamma0"]) == 0.0
    assert (out / "solution_gamma0.json").exists()
    assert (out / "solution_gamma1.json").exists()


def test_ladder_zero_deviation_is_flat(tmp_path):
    inst = two_region()
    rens = tuple(
        dataclasses.replace(
            u,
            cf=CapacityFactorBundle(
                reference=u.cf.reference,
                deviation=(0.0,) * len(u.cf.reference),
            ),
        )
        for u in inst.renewables
    )
    out = tmp_path / "out"
    rc = main([
        "ladder", save(inst.replace(renewables=rens), tmp_path),
        "--gammas", "0,1,2", "--output-dir", str(out),
    ])
    assert rc == OK
    with open(out / "summary.csv", newline="") as fh:
        objectives = {row["objective"] for row in csv.DictReader(fh)}
    assert len(objectives) == 1


def test_ladder_rejects_unsorted(tmp_path, capsys):
    for gammas in ("2,1", "1,1", ","):
        rc = main(["ladder", save(two_region(), tmp_path), "--gammas", gammas])
        assert rc == INPUT_ERROR
        assert "sorted" in capsys.readouterr().err


def test_ladder_rejected_gammas_leave_no_output_dir(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "ladder", save(two_region(), tmp_path), "--gammas", "1,1", "--output-dir", str(out),
    ])
    assert rc == INPUT_ERROR
    assert not out.exists()


def test_ladder_rejects_garbage(tmp_path):
    rc = main(["ladder", save(two_region(), tmp_path), "--gammas", "a,b"])
    assert rc == INPUT_ERROR


# --- certify --------------------------------------------------------------------

def test_certify_passes(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "certify", save(two_region(), tmp_path),
        "--gamma-pv", "1", "--gamma-wind", "1", "--output-dir", str(out),
    ])
    assert rc == OK
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 3
    report = json.loads((out / "certification.json").read_text())
    assert report["passed"] is True


def test_certify_flags_sabotaged_tolerance(tmp_path, capsys, reference_start):
    rc = main([
        "certify", save(two_region(), tmp_path),
        "--gamma-pv", "1", "--gamma-wind", "1", "--tolerance", "0.999",
    ])
    assert rc == CERTIFY_FAILED
    assert "FAIL objective_matches_enumeration" in capsys.readouterr().out


def test_certify_cap_exceeded(tmp_path, capsys):
    rc = main([
        "certify", save(two_region(), tmp_path),
        "--gamma-pv", "1", "--gamma-wind", "1", "--cap", "2",
    ])
    assert rc == CAP_EXCEEDED
    assert "enumeration cap" in capsys.readouterr().err


def test_certify_cap_below_maximal_count(tmp_path, capsys):
    # two_region at (1, 1): 9 realizations, 4 of them maximal
    rc = main([
        "certify", save(two_region(), tmp_path),
        "--gamma-pv", "1", "--gamma-wind", "1", "--cap", "3",
    ])
    assert rc == CAP_EXCEEDED
    assert "4 maximal realizations exceed the enumeration cap of 3" in capsys.readouterr().err


def test_certify_over_cap_exits_before_solving_or_writing(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved although the cap was exceeded")

    monkeypatch.setattr(cli, "run_ccg", unreachable)
    out = tmp_path / "out"
    rc = main([
        "certify", save(two_region(), tmp_path),
        "--gamma-pv", "1", "--gamma-wind", "1", "--cap", "3", "--output-dir", str(out),
    ])
    assert rc == CAP_EXCEEDED
    assert not out.exists()


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_certify_cap_below_one_is_input_error(tmp_path, monkeypatch, capsys, cap):
    # no budget has fewer than one maximal member, so such a cap is never met
    def unreachable(*args, **kwargs):
        raise AssertionError("solved although the cap is below 1")

    monkeypatch.setattr(cli, "run_ccg", unreachable)
    out = tmp_path / "out"
    rc = main([
        "certify", save(two_region(), tmp_path),
        "--gamma-pv", "1", "--gamma-wind", "1", "--cap", cap, "--output-dir", str(out),
    ])
    assert rc == INPUT_ERROR
    assert not out.exists()
    assert f"--cap must be at least 1, got {cap}" in capsys.readouterr().err


def test_certify_cap_between_maximal_and_full_count(tmp_path, capsys):
    # the cap counts the 4 maximal realizations, not all 9
    rc = main([
        "certify", save(two_region(), tmp_path),
        "--gamma-pv", "1", "--gamma-wind", "1", "--cap", "4",
    ])
    assert rc == OK
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 3
    assert "all 4 maximal realization(s) covered (they dominate all 9 members)" in stdout


def test_certify_enumerates_the_maximal_members_once(tmp_path, monkeypatch):
    # the cap is checked from the closed-form count, so the set is
    # enumerated once per run, by certify_run
    enumerated = []
    members = uncertainty.members

    def counted(flags, *args, **kwargs):
        enumerated.append(members(flags, *args, **kwargs))
        return enumerated[-1]

    monkeypatch.setattr(uncertainty, "members", counted)
    rc = main([
        "certify", save(two_region(), tmp_path),
        "--gamma-pv", "1", "--gamma-wind", "1", "--output-dir", str(tmp_path / "out"),
    ])
    assert rc == OK
    assert [len(each) for each in enumerated] == [4]


# --- prep -----------------------------------------------------------------------

def write_history(tmp_path, unit_ids, years=3, weeks=2, seed=11):
    rng = np.random.default_rng(seed)
    manifest = {}
    for k, uid in enumerate(unit_ids):
        data = rng.uniform(0.1, 0.9, size=(years, weeks * 168))
        rows = [
            "y%d,%s" % (2000 + y, ",".join("%.6f" % v for v in data[y]))
            for y in range(years)
        ]
        (tmp_path / f"{uid}.csv").write_text("\n".join(rows) + "\n")
        manifest[uid] = f"{uid}.csv"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return str(tmp_path / "manifest.json")


def stepped(inst, step_hours):
    """inst with every step standing for step_hours hours."""
    return inst.replace(timegrid=dataclasses.replace(inst.timegrid, step_hours=step_hours))


def daily(steps):
    """two_region over `steps` days: prep reduces an hourly history to 24-h means."""
    return stepped(two_region(steps=steps), 24.0)


def test_prep_writes_prepared_instance(tmp_path):
    inst = daily(14)
    manifest = write_history(tmp_path, ["pv_a"])
    out = tmp_path / "out"
    rc = main(["prep", save(inst, tmp_path), manifest, "--output-dir", str(out)])
    assert rc == OK
    prepared = load_instance(out / "prepared_instance.json")
    by_id = {u.id: u for u in prepared.renewables}

    history = read_history_csv({"pv_a": tmp_path / "pv_a.csv"})
    mat = history.unit_history("pv_a")
    expected_ref = mat.mean(axis=0).reshape(-1, 24).mean(axis=1)
    got_ref = np.asarray(by_id["pv_a"].cf.reference)
    assert got_ref == pytest.approx(expected_ref, abs=1e-12)

    weeks = mat.reshape(mat.shape[0], 2, 168)
    worst = weeks.mean(axis=2).argmin(axis=0)
    lb_hourly = np.concatenate([weeks[worst[w], w] for w in range(2)])
    expected_lb = lb_hourly.reshape(-1, 24).mean(axis=1)
    dev = np.asarray(by_id["pv_a"].cf.deviation)
    assert dev == pytest.approx(np.maximum(0.0, expected_ref - expected_lb), abs=1e-12)
    assert (dev >= 0.0).all()

    # the unit without history keeps its series
    original = {u.id: u for u in inst.renewables}["w_b"]
    assert by_id["w_b"].cf.reference == original.cf.reference
    assert by_id["w_b"].cf.deviation == original.cf.deviation


def test_prep_rejects_length_mismatch(tmp_path, capsys):
    manifest = write_history(tmp_path, ["pv_a"])
    rc = main(["prep", save(daily(10), tmp_path), manifest])
    assert rc == INPUT_ERROR
    assert "instance expects 10" in capsys.readouterr().err


def test_prep_reduces_to_the_instance_step(tmp_path, capsys):
    # on a 1-hour grid a 2-week history stays 336 steps long, not 14
    manifest = write_history(tmp_path, ["pv_a"])
    out = tmp_path / "out"
    rc = main(["prep", save(two_region(steps=14), tmp_path), manifest, "--output-dir", str(out)])
    assert rc == INPUT_ERROR
    assert "prepared series has 336 step(s), instance expects 14" in capsys.readouterr().err
    assert not (out / "prepared_instance.json").exists()


def test_prep_rejects_unknown_unit(tmp_path, capsys):
    manifest = write_history(tmp_path, ["mystery"])
    rc = main(["prep", save(daily(14), tmp_path), manifest])
    assert rc == INPUT_ERROR
    assert "unknown renewable unit" in capsys.readouterr().err


def test_prep_rejects_missing_csv(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"pv_a": "nowhere.csv"}))
    rc = main(["prep", save(daily(14), tmp_path), str(tmp_path / "manifest.json")])
    assert rc == INPUT_ERROR


def test_prep_rejects_fractional_step_hours(tmp_path, capsys):
    manifest = write_history(tmp_path, ["pv_a"])
    rc = main(["prep", save(stepped(two_region(steps=14), 24.5), tmp_path), manifest])
    assert rc == INPUT_ERROR
    assert "24.5 h is not a whole number of hours" in capsys.readouterr().err


def _spoil_history(tmp_path, line: int, edit) -> str:
    """A one-unit history whose CSV line `line` (1-based) goes through edit."""
    manifest = write_history(tmp_path, ["pv_a"])
    csv_path = tmp_path / "pv_a.csv"
    lines = csv_path.read_text().splitlines()
    lines[line - 1] = edit(lines[line - 1])
    csv_path.write_text("\n".join(lines) + "\n")
    return manifest


def test_prep_rejects_a_nan_history_cell(tmp_path, capsys):
    # NaN compares false with both ends of [0, 1], so a range check alone let
    # it through into the prepared series
    manifest = _spoil_history(tmp_path, 2, lambda row: row.rsplit(",", 1)[0] + ",nan")
    out = tmp_path / "out"
    rc = main(["prep", save(daily(14), tmp_path), manifest, "--output-dir", str(out)])
    assert rc == INPUT_ERROR
    assert "pv_a: non-finite" in capsys.readouterr().err
    assert not (out / "prepared_instance.json").exists()


def test_prep_names_the_line_of_a_ragged_history_row(tmp_path, capsys):
    manifest = _spoil_history(tmp_path, 3, lambda row: row.rsplit(",", 1)[0])
    rc = main(["prep", save(daily(14), tmp_path), manifest])
    assert rc == INPUT_ERROR
    assert "pv_a.csv:3: 335 hour(s), but the first row has 336" in capsys.readouterr().err


# --- parser ----------------------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
