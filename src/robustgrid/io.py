"""Instance file ingestion and serialization.

The native format is a single JSON document with top-level keys
``nodes, lines, renewables, conventionals, hydros, batteries, hydrogens,
demand, regions, shedding, timegrid``. Time series are flat numeric arrays.
Period bounds are 1-based inclusive step indices in files and 0-based
internally.

The keys of the seven entity families are listed once, in ``_FAMILIES``;
the reader and the writer both walk that table. The rules:

- ``nodes``, ``regions``, ``shedding`` and ``timegrid`` are required, and so
  is every entity key without a default. The defaults: line
  ``susceptance`` 0, ``expansion_cost`` 0 and ``expansion_limit`` the
  line's ``existing_cap``; ``step_hours`` 1; node ``name`` and ``region``
  ""; ``reference`` false; unit limits unset.
- ``null`` reads as absent.
- A number may be a JSON number or a numeric string. ``step_count`` and
  period ``start``/``end`` take whole numbers only, and ``reference`` takes
  a JSON boolean only. A value that cannot be read raises SchemaError
  naming its key path, e.g. ``conventionals[0].existing_cap``.
- A region id listed twice raises SchemaError; validation reports every
  other repeated id.

Alternatively, bulk series can live in CSV files next to the instance:
a document carrying a ``series_files`` key maps series families to CSV
paths (relative to the document), each CSV holding one header row of
entity ids and one row per step. Families: ``cf_reference`` and
``cf_deviation`` keyed by renewable unit id, ``demand`` keyed by node id,
``availability`` keyed by reservoir unit id.

Region membership may be given on the nodes (``region`` key), on the
regions (``nodes`` lists), or both; the loader fills in the missing side
and validation cross-checks when both are present.
"""

from __future__ import annotations

import csv
import json
import logging
from pathlib import Path
from typing import Any, Callable, NamedTuple

from robustgrid.model import (
    BatteryUnit,
    CapacityFactorBundle,
    ConventionalUnit,
    DemandSeries,
    HydroUnit,
    HydrogenUnit,
    Line,
    LoadSheddingPolicy,
    NetworkInstance,
    Node,
    Period,
    RenewableUnit,
    TimeGrid,
    WeatherRegion,
    describe_violations,
    validate,
)

__all__ = [
    "InstanceError",
    "SchemaError",
    "ValidationError",
    "load_instance",
    "save_instance",
    "instance_to_dict",
    "instance_from_dict",
]

log = logging.getLogger(__name__)


class InstanceError(Exception):
    """Base class for instance ingestion failures."""


class SchemaError(InstanceError):
    """The document does not match the instance schema."""


class ValidationError(InstanceError):
    """The document parsed but violates model invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(describe_violations(self.violations))


_REQUIRED = object()


def _text(value: Any) -> str:
    if isinstance(value, (bool, list, dict)):
        raise TypeError
    return str(value)


def _number(value: Any) -> float:
    if isinstance(value, bool):
        raise TypeError
    return float(value)


def _whole(value: Any) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError
    return int(value)


def _flag(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError
    return value


def _same(value: Any) -> Any:
    return value


_EXPECTED = {
    _text: "a string", _number: "a number", _whole: "a whole number", _flag: "true or false"
}


def _get(obj: dict, key: str, where: str, read: Callable, default: Any = _REQUIRED) -> Any:
    """obj[key] converted by read; absent or null gives default, if there is one."""
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise SchemaError(f"{where}: missing required key {key!r}")
        return default
    try:
        return read(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}.{key}: expected {_EXPECTED[read]}, got {value!r}") from None


def _require(obj: dict, key: str, where: str) -> Any:
    return _get(obj, key, where, _same)


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object")
    return value


def _array(value: Any, where: str) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array")
    return value


def _series(value: Any, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{where}: expected a numeric array")
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: non-numeric entry ({exc})") from exc


def _triple(value: Any, where: str) -> tuple[float, float, float]:
    arr = _series(value, where)
    if len(arr) != 3:
        raise SchemaError(f"{where}: expected exactly 3 values, got {len(arr)}")
    return (arr[0], arr[1], arr[2])


class _Field(NamedTuple):
    """One document key of an entity family."""

    key: str
    read: Callable | None  # None: the family's fill hook reads the key
    default: Any = _REQUIRED
    attr: str = ""  # the model attribute, where it is not the key


_ID = _Field("id", _text)
_NODE = _Field("node", _text)

_FAMILIES: dict[str, tuple[type, tuple[_Field, ...]]] = {
    "nodes": (Node, (
        _ID, _Field("name", _text, ""), _Field("region", _text, ""),
        _Field("reference", _flag, False, "is_reference"),
    )),
    "lines": (Line, (
        _ID, _Field("kind", _text),
        _Field("from", _text, attr="from_node"), _Field("to", _text, attr="to_node"),
        _Field("susceptance", _number, 0.0), _Field("existing_cap", _number),
        _Field("expansion_cost", _number, 0.0), _Field("expansion_limit", _number, None),
    )),
    "renewables": (RenewableUnit, (
        _ID, _NODE, _Field("technology", _text), _Field("region", _text),
        _Field("annualized_cost", _number), _Field("cf", None),
        _Field("expansion_limit", _number, None),
    )),
    "conventionals": (ConventionalUnit, (
        _ID, _NODE, _Field("existing_cap", _number), _Field("variable_cost", _number),
    )),
    "hydros": (HydroUnit, (
        _ID, _NODE, _Field("kind", _text), _Field("existing_cap", _number),
        _Field("availability", None),
        _Field("storage_scale", _number, None), _Field("efficiency", _number, None),
    )),
    "batteries": (BatteryUnit, (
        _ID, _NODE, _Field("inverter_cost", _number), _Field("storage_cost", _number),
        _Field("efficiency", _number),
        _Field("inverter_limit", _number, None), _Field("storage_limit", _number, None),
    )),
    "hydrogens": (HydrogenUnit, (
        _ID, _NODE, _Field("ocgt_cost", _number), _Field("electrolyzer_cost", _number),
        _Field("storage_cost", _number), _Field("eta_el", _number), _Field("eta_ocgt", _number),
        _Field("ocgt_limit", _number, None), _Field("el_limit", _number, None),
        _Field("storage_limit", _number, None),
    )),
}

# The scalar keys of the timegrid; its periods are read and written by hand.
_TIMEGRID = (_Field("step_count", _whole), _Field("step_hours", _number, 1.0))

# The keys of a renewable's "cf" object; "cf_<part>" names its CSV family.
_CF_PARTS = ("reference", "deviation")


def _read_fields(fields: tuple[_Field, ...], item: dict, where: str) -> dict:
    """Constructor arguments from a document object, for the keys the table reads."""
    return {
        attr or key: _get(item, key, where, read, default)
        for key, read, default, attr in fields
        if read is not None
    }


def _plain(value: Any) -> Any:
    """A model value as the document holds it: series become arrays."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, CapacityFactorBundle):
        return {part: list(getattr(value, part)) for part in _CF_PARTS}
    return value


def _write_fields(fields: tuple[_Field, ...], entity: Any) -> dict:
    """An entity's document object; an attribute that is None is left out."""
    return {
        f.key: _plain(v) for f in fields if (v := getattr(entity, f.attr or f.key)) is not None
    }


def _read_family(family: str, items: Any, fill: Callable | None = None) -> tuple:
    """Build a family's entities from its document array.

    fill(kw, item, where) completes the constructor arguments kw from the
    item, for the keys the table leaves to it.
    """
    cls, fields = _FAMILIES[family]
    out = []
    for k, item in enumerate(_array(items, family)):
        where = f"{family}[{k}]"
        kw = _read_fields(fields, _object(item, where), where)
        if fill is not None:
            fill(kw, item, where)
        out.append(cls(**kw))
    return tuple(out)


def _fill_line(kw: dict, item: dict, where: str) -> None:
    # Expansion defaults to a doubling of what already stands.
    if kw["expansion_limit"] is None:
        kw["expansion_limit"] = kw["existing_cap"]


def _read_series_csv(path: Path) -> dict[str, tuple[float, ...]]:
    """Read one series-family CSV: header of entity ids, one row per step."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty CSV") from None
        columns: list[list[float]] = [[] for _ in header]
        for ln, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise SchemaError(f"{path}:{ln}: expected {len(header)} cells, got {len(row)}")
            for j, cell in enumerate(row):
                try:
                    columns[j].append(float(cell))
                except ValueError as exc:
                    raise SchemaError(f"{path}:{ln}: non-numeric cell {cell!r}") from exc
    return {name.strip(): tuple(col) for name, col in zip(header, columns)}


def _load_series_files(doc: dict, base: Path) -> dict[str, dict[str, tuple[float, ...]]]:
    files = doc["series_files"]
    if not isinstance(files, dict):
        raise SchemaError("series_files: expected a mapping of family -> CSV path")
    known = {"cf_reference", "cf_deviation", "demand", "availability"}
    tables: dict[str, dict[str, tuple[float, ...]]] = {}
    for family, rel in files.items():
        if family not in known:
            raise SchemaError(f"series_files: unknown family {family!r}")
        path = base / str(rel)
        if not path.exists():
            raise SchemaError(f"series_files[{family}]: no such file {path}")
        tables[family] = _read_series_csv(path)
    return tables


def instance_from_dict(doc: dict, base: Path | None = None) -> NetworkInstance:
    """Build a NetworkInstance from a parsed document (without validating)."""
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object")
    tables = _load_series_files(doc, base or Path(".")) if "series_files" in doc else {}

    def pick(family: str, entity: str, inline: Any, where: str) -> tuple[float, ...]:
        table = tables.get(family)
        if table is not None:
            if entity in table:
                return table[entity]
            if inline is None:
                raise SchemaError(f"{where}: no column {entity!r} in {family} CSV")
        if inline is None:
            raise SchemaError(f"{where}: missing series")
        return _series(inline, where)

    tg_doc = _object(_require(doc, "timegrid", "timegrid"), "timegrid")
    periods = []
    for k, p in enumerate(_array(tg_doc.get("periods"), "timegrid.periods")):
        where = f"timegrid.periods[{k}]"
        p = _object(p, where)
        periods.append(
            Period(
                id=_get(p, "id", where, _text, f"p{k + 1}"),
                start=_get(p, "start", where, _whole) - 1,
                end=_get(p, "end", where, _whole) - 1,
            )
        )
    timegrid = TimeGrid(**_read_fields(_TIMEGRID, tg_doc, "timegrid"), periods=tuple(periods))

    region_nodes: dict[str, list[str]] = {}
    region_names: dict[str, str] = {}
    for k, g in enumerate(_array(_require(doc, "regions", "regions"), "regions")):
        where = f"regions[{k}]"
        g = _object(g, where)
        gid = _get(g, "id", where, _text)
        if gid in region_nodes:
            raise SchemaError(f"{where}.id: region {gid!r} listed twice")
        region_names[gid] = _get(g, "name", where, _text, gid)
        region_nodes[gid] = [str(n) for n in _array(g.get("nodes"), f"{where}.nodes")]

    def fill_node(kw: dict, item: dict, where: str) -> None:
        nid, region = kw["id"], kw["region"]
        if not region:
            kw["region"] = next(
                (gid for gid, members in region_nodes.items() if nid in members), ""
            )
        elif region in region_nodes and nid not in region_nodes[region]:
            region_nodes[region].append(nid)

    def fill_renewable(kw: dict, item: dict, where: str) -> None:
        cf_doc = _object(item.get("cf") or {}, f"{where}.cf")
        kw["cf"] = CapacityFactorBundle(
            *(
                pick(f"cf_{part}", kw["id"], cf_doc.get(part), f"{where}.cf.{part}")
                for part in _CF_PARTS
            )
        )

    def fill_hydro(kw: dict, item: dict, where: str) -> None:
        avail = item.get("availability")
        if kw["kind"] in ("rsv", "ror"):
            kw["availability"] = pick("availability", kw["id"], avail, f"{where}.availability")
        elif avail is not None:
            kw["availability"] = _series(avail, f"{where}.availability")

    nodes = _read_family("nodes", _require(doc, "nodes", "nodes"), fill_node)
    regions = tuple(
        WeatherRegion(id=gid, name=region_names[gid], nodes=tuple(region_nodes[gid]))
        for gid in region_nodes
    )

    demand_doc = doc.get("demand")
    if demand_doc is None:
        demand_doc = {}
    if not isinstance(demand_doc, dict):
        raise SchemaError("demand: expected a mapping of node id -> series")
    by_node = dict(tables.get("demand", {}))
    for nid, series in demand_doc.items():
        by_node.setdefault(str(nid), _series(series, f"demand[{nid}]"))

    shed_doc = _object(_require(doc, "shedding", "shedding"), "shedding")
    node_costs = shed_doc.get("node_costs")
    if node_costs is None:
        node_costs = {}
    if not isinstance(node_costs, dict):
        raise SchemaError("shedding.node_costs: expected a mapping of node id -> costs")
    shedding = LoadSheddingPolicy(
        fractions=_triple(_require(shed_doc, "fractions", "shedding"), "shedding.fractions"),
        costs=_triple(_require(shed_doc, "costs", "shedding"), "shedding.costs"),
        node_costs={
            str(nid): _triple(cs, f"shedding.node_costs[{nid}]")
            for nid, cs in node_costs.items()
        },
    )

    return NetworkInstance(
        nodes=nodes,
        lines=_read_family("lines", doc.get("lines"), _fill_line),
        renewables=_read_family("renewables", doc.get("renewables"), fill_renewable),
        conventionals=_read_family("conventionals", doc.get("conventionals")),
        hydros=_read_family("hydros", doc.get("hydros"), fill_hydro),
        batteries=_read_family("batteries", doc.get("batteries")),
        hydrogens=_read_family("hydrogens", doc.get("hydrogens")),
        demand=DemandSeries(by_node=by_node),
        regions=regions,
        shedding=shedding,
        timegrid=timegrid,
    )


def load_instance(path: str | Path) -> NetworkInstance:
    """Load, parse, and validate an instance document.

    Raises SchemaError when the document shape is wrong and ValidationError
    (listing every named violation) when invariants fail.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such instance file: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    inst = instance_from_dict(doc, base=path.parent)
    violations = validate(inst)
    if violations:
        raise ValidationError(violations)
    log.debug(
        "loaded instance: %d nodes, %d lines, %d renewables, T=%d",
        len(inst.nodes),
        len(inst.lines),
        len(inst.renewables),
        inst.timegrid.step_count,
    )
    return inst


def instance_to_dict(inst: NetworkInstance) -> dict:
    """Serialize an instance to the document schema (inline series)."""
    doc: dict[str, Any] = {
        family: [_write_fields(fields, e) for e in getattr(inst, family)]
        for family, (_, fields) in _FAMILIES.items()
    }
    doc["demand"] = {nid: list(s) for nid, s in inst.demand.by_node.items()}
    doc["regions"] = [{"id": g.id, "name": g.name, "nodes": list(g.nodes)} for g in inst.regions]
    doc["shedding"] = {
        "fractions": list(inst.shedding.fractions),
        "costs": list(inst.shedding.costs),
    }
    if inst.shedding.node_costs:
        doc["shedding"]["node_costs"] = {
            nid: list(cs) for nid, cs in inst.shedding.node_costs.items()
        }
    doc["timegrid"] = {
        **_write_fields(_TIMEGRID, inst.timegrid),
        "periods": [
            {"id": p.id, "start": p.start + 1, "end": p.end + 1} for p in inst.timegrid.periods
        ],
    }
    return doc


def save_instance(inst: NetworkInstance, path: str | Path) -> None:
    """Write an instance back to the JSON document schema."""
    path = Path(path)
    path.write_text(json.dumps(instance_to_dict(inst), indent=1) + "\n")
