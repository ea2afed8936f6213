"""Instance serialization: JSON round-trip, CSV bundles, error paths."""

import copy
import json
import re
from pathlib import Path

import pytest

from robustgrid.io import (
    SchemaError,
    ValidationError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)

import toys


FIXTURES = Path(__file__).parent / "fixtures"


def toy6():
    return load_instance(FIXTURES / "toy6.json")


@pytest.mark.parametrize(
    "build",
    [
        toys.single_node,
        toys.two_region,
        toys.two_period_battery,
        toys.three_region_hydro,
        toys.symmetric_pair,
        toy6,
    ],
)
def test_round_trip_preserves_instance(build, tmp_path):
    inst = build()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst
    # the writer leaves unset attributes out rather than writing null
    assert "null" not in path.read_text()


def test_dict_round_trip_is_identity():
    inst = toys.three_region_hydro()
    assert instance_from_dict(instance_to_dict(inst)) == inst


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_instance("/nonexistent/inst.json")


def test_bad_json_raises_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_instance(path)


def test_missing_required_key_raises_schema_error():
    doc = instance_to_dict(toys.single_node())
    del doc["nodes"]
    with pytest.raises(SchemaError):
        instance_from_dict(doc)


def test_invalid_instance_raises_validation_error(tmp_path):
    doc = instance_to_dict(toys.single_node())
    doc["nodes"][0]["reference"] = False
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_instance(path)
    assert any(v.rule == "reference_node" for v in err.value.violations)


def test_repeated_period_id_raises_validation_error(tmp_path):
    # two periods under one id would merge into one budget group
    doc = instance_to_dict(toys.two_region())
    doc["timegrid"]["periods"] = [
        {"id": "p1", "start": 1, "end": 1},
        {"id": "p1", "start": 2, "end": 2},
    ]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_instance(path)
    assert [(v.entity, v.rule) for v in err.value.violations] == [("p1", "duplicate_id")]


def test_repeated_region_id_raises_schema_error(tmp_path):
    # read as one mapping, the second entry would silently replace the first
    doc = instance_to_dict(toys.two_region())
    doc["regions"].append(copy.deepcopy(doc["regions"][0]))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"regions\[2\]\.id: region 'RA' listed twice"):
        load_instance(path)


def test_periods_are_one_based_in_documents():
    doc = instance_to_dict(toys.single_node(steps=2))
    period = doc["timegrid"]["periods"][0]
    assert (period["start"], period["end"]) == (1, 2)
    inst = instance_from_dict(doc)
    assert (inst.timegrid.periods[0].start, inst.timegrid.periods[0].end) == (0, 1)


def _at(doc, path):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    return doc, last


# (toy, key path, value, what loading gives): a key path string names the
# SchemaError expected; None means the value reads as if the key were absent.
MALFORMED = [
    ("two_region", ("conventionals", 0, "existing_cap"), "lots", "conventionals[0].existing_cap"),
    ("two_period_battery", ("batteries", 0, "inverter_limit"), None, None),
    ("two_region", ("timegrid", "periods", 0, "start"), "first", "timegrid.periods[0].start"),
    ("two_region", ("shedding", "node_costs"), [1, 2], "shedding.node_costs"),
    ("two_region", ("timegrid", "step_hours"), None, None),
    ("two_region", ("nodes", 1, "reference"), "false", "nodes[1].reference"),
    ("two_region", ("timegrid", "periods", 0, "start"), 1.7, "timegrid.periods[0].start"),
    ("two_region", ("nodes", 0, "name"), None, None),
    # null on an optional key of every other family, and on a required one
    ("three_region_hydro", ("lines", 0, "expansion_limit"), None, None),
    ("three_region_hydro", ("renewables", 0, "expansion_limit"), None, None),
    ("three_region_hydro", ("hydros", 0, "storage_scale"), None, None),
    ("three_region_hydro", ("hydrogens", 0, "el_limit"), None, None),
    ("three_region_hydro", ("regions", 0, "name"), None, None),
    ("three_region_hydro", ("conventionals", 0, "variable_cost"), None, "conventionals[0]"),
]


@pytest.mark.parametrize("toy, path, value, error", MALFORMED)
def test_malformed_value_raises_and_null_reads_as_absent(toy, path, value, error):
    doc = instance_to_dict(getattr(toys, toy)())
    parent, key = _at(doc, path)
    parent[key] = value
    if error is not None:
        with pytest.raises(SchemaError, match=re.escape(error)):
            instance_from_dict(doc)
        return
    absent = copy.deepcopy(doc)
    parent, key = _at(absent, path)
    del parent[key]
    assert instance_from_dict(doc) == instance_from_dict(absent)


def test_numeric_strings_read_as_numbers():
    doc = instance_to_dict(toys.two_region())
    doc["conventionals"][0]["existing_cap"] = "8.5"
    doc["timegrid"]["step_count"] = str(doc["timegrid"]["step_count"])
    doc["timegrid"]["periods"][0]["end"] = float(doc["timegrid"]["periods"][0]["end"])
    inst = instance_from_dict(doc)
    assert inst.conventionals[0].existing_cap == 8.5
    assert inst.timegrid == toys.two_region().timegrid


def test_line_expansion_limit_defaults_to_existing_cap():
    doc = instance_to_dict(toys.two_region())
    del doc["lines"][0]["expansion_limit"]
    inst = instance_from_dict(doc)
    assert inst.lines[0].expansion_limit == inst.lines[0].existing_cap


def test_csv_bundle_loading(tmp_path):
    inst = toys.two_region()
    doc = instance_to_dict(inst)
    # move the cf reference series out into a CSV, keep the rest inline
    (tmp_path / "cf_ref.csv").write_text("pv_a,w_b\n0.5,0.4\n0.5,0.4\n")
    for r in doc["renewables"]:
        del r["cf"]["reference"]
    doc["series_files"] = {"cf_reference": "cf_ref.csv"}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    again = load_instance(path)
    assert again.renewables[0].cf.reference == (0.5, 0.5)
    assert again.renewables[1].cf.reference == (0.4, 0.4)


def test_csv_bundle_missing_column_raises(tmp_path):
    inst = toys.two_region()
    doc = instance_to_dict(inst)
    (tmp_path / "cf_ref.csv").write_text("pv_a\n0.5\n0.5\n")
    for r in doc["renewables"]:
        del r["cf"]["reference"]
    doc["series_files"] = {"cf_reference": "cf_ref.csv"}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_instance(path)


def test_csv_with_bad_cell_raises(tmp_path):
    inst = toys.two_region()
    doc = instance_to_dict(inst)
    (tmp_path / "cf_ref.csv").write_text("pv_a,w_b\n0.5,oops\n0.5,0.4\n")
    for r in doc["renewables"]:
        del r["cf"]["reference"]
    doc["series_files"] = {"cf_reference": "cf_ref.csv"}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_instance(path)


def test_unknown_series_family_raises(tmp_path):
    doc = instance_to_dict(toys.single_node())
    doc["series_files"] = {"wind_speeds": "x.csv"}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_instance(path)


def test_bundled_six_region_fixture_loads():
    from robustgrid.model import validate

    inst = toy6()
    assert len(inst.regions) == 6
    assert len(inst.nodes) == 12
    # regions partition the nodes
    covered = sorted(n for r in inst.regions for n in r.nodes)
    assert covered == sorted(n.id for n in inst.nodes)
    assert validate(inst) == []
