"""Scene and sweep documents (JSON on disk, validated dataclasses here).

A scene document looks like

    {
      "spinray_scene": 1,
      "media": [
        {"region": {"type": "half_space", "normal": [0, 0, 1], "offset": 0.0},
         "field": {"type": "constant", "n0": 1.0}},
        {"region": {"type": "box", "min": [-5, -5, 0], "max": [5, 5, 5]},
         "field": {"type": "linear_gradient", "n0": 1.5, "gradient": [0, 0, 0.1]}}
      ],
      "interfaces": [
        {"normal": [0, 0, 1], "anchor": [0, 0, 0], "n1": 1.0, "n2": 1.5}
      ],
      "sources": [
        {"origin": [0, 0, -1], "direction": [0.5, 0, 0.866], "p": 1.0, "s": 1.0}
      ],
      "limits": {"max_path_length": 10.0, "max_interface_events": 8}
    }

Field variants: constant {n0}, linear_gradient {n0, gradient},
gaussian_bump {n0, amplitude, center, width}, grid {path} where path
points at a grid text file resolved against the scene file location.
Region variants: half_space {normal, offset} (inside means
<normal, x> < offset) and box {min, max}.  The keys of every record kind
are listed once, in the key tables that parse_scene and emit_scene share.

Angles never appear in scene documents (directions are vectors); sweep
documents carry angles in degrees, converted to radians on parse.  All
numbers must be finite and unknown keys are rejected, with errors naming
the JSON path of the offender.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import OutOfDomainError, SceneError
from .fields import (
    ConstantIndex,
    GaussianBumpIndex,
    GridIndex,
    IndexField,
    LinearGradientIndex,
    load_index_grid,
)
from .scattering import Interface
from .vectors import vec3

SCENE_VERSION = 1
SWEEP_VERSION = 1
SWEEP_PARAMETERS = ("incidence_angle", "index_ratio", "spin", "color")
_SWEEP_BASE = {"n1": 1.0, "n2": 1.5, "theta1_deg": 30.0, "p": 1.0, "s": 1.0}


@dataclass(frozen=True)
class HalfSpace:
    """Points with <normal, x> < offset."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", vec3(self.normal))

    def inside_distance(self, x) -> float:
        x0, x1, x2 = x
        a0, a1, a2 = self.normal.tolist()
        return float(self.offset - (a0 * x0 + a1 * x1 + a2 * x2))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", vec3(self.lo))
        object.__setattr__(self, "hi", vec3(self.hi))
        if not np.all(self.hi > self.lo):
            raise ValueError("box max must exceed min on every axis")

    def inside_distance(self, x) -> float:
        x0, x1, x2 = x
        (l0, l1, l2), (h0, h1, h2) = self.lo.tolist(), self.hi.tolist()
        return float(min(x0 - l0, x1 - l1, x2 - l2, h0 - x0, h1 - x1, h2 - x2))


@dataclass(frozen=True)
class Medium:
    region: HalfSpace | Box
    field: IndexField
    grid_path: str | None = None

    def contains(self, x) -> bool:
        return self.region.inside_distance(x) > 0.0


@dataclass(frozen=True)
class Source:
    origin: np.ndarray
    direction: np.ndarray
    p: float
    s: float

    def __post_init__(self):
        object.__setattr__(self, "origin", vec3(self.origin))
        object.__setattr__(self, "direction", vec3(self.direction))


@dataclass(frozen=True)
class Limits:
    max_path_length: float
    max_interface_events: int


@dataclass(frozen=True)
class Scene:
    media: tuple[Medium, ...]
    interfaces: tuple[Interface, ...]
    sources: tuple[Source, ...]
    limits: Limits

    def medium_at(self, x) -> int | None:
        """Index of the single medium containing x, None if not covered."""
        x = [*map(float, x)]
        hits = [i for i, m in enumerate(self.media) if m.contains(x)]
        if len(hits) == 1:
            return hits[0]
        return None


@dataclass(frozen=True)
class SweepSpec:
    """One-interface parameter sweep.

    The swept parameter replaces the matching entry of the base template
    (n1, n2, theta1 in radians, p, s) at count points from start to stop
    inclusive.  incidence_angle start/stop are degrees in the document.
    """

    parameter: str
    start: float
    stop: float
    count: int
    n1: float
    n2: float
    theta1: float
    p: float
    s: float


def _require_keys(obj, allowed: dict, path: str) -> None:
    if not isinstance(obj, dict):
        raise SceneError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise SceneError(f"{path}: unknown key {key!r}")
    for key, required in allowed.items():
        if required and key not in obj:
            raise SceneError(f"{path}: missing required key {key!r}")


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SceneError(f"{path}: expected a number")
    val = float(obj)
    if not math.isfinite(val):
        raise SceneError(f"{path}: number must be finite")
    return val


def _integer(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SceneError(f"{path}: expected an integer")
    return obj


def _check_version(doc: dict, key: str, version: int) -> None:
    """The document's version entry must be the JSON integer `version`."""
    found = doc[key]
    if isinstance(found, bool) or not isinstance(found, int) or found != version:
        raise SceneError(
            f"{key}: unsupported version {found!r} (this build reads version {version})"
        )


def _vector(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 3:
        raise SceneError(f"{path}: expected a 3-element array")
    return np.array([_number(c, f"{path}[{i}]") for i, c in enumerate(obj)])


# One key table per record kind: the class and, per constructor argument,
# (JSON key, attribute, reader).  parse_scene reads and emit_scene writes
# the keys in table order; grid fields read a file and stay a special case.
_REGIONS = {
    "half_space": (HalfSpace, (("normal", "normal", _vector), ("offset", "offset", _number))),
    "box": (Box, (("min", "lo", _vector), ("max", "hi", _vector))),
}
_FIELDS = {
    "constant": (ConstantIndex, (("n0", "n0", _number),)),
    "linear_gradient": (LinearGradientIndex, (("n0", "n0", _number), ("gradient", "k", _vector))),
    "gaussian_bump": (GaussianBumpIndex, (("n0", "n0", _number),
                                          ("amplitude", "amplitude", _number),
                                          ("center", "center", _vector),
                                          ("width", "width", _number))),
}
_INTERFACE = (Interface, (("normal", "normal", _vector), ("anchor", "anchor", _vector),
                          ("n1", "n1", _number), ("n2", "n2", _number)))
_SOURCE = (Source, (("origin", "origin", _vector), ("direction", "direction", _vector),
                    ("p", "p", _number), ("s", "s", _number)))
_LIMITS = (Limits, (("max_path_length", "max_path_length", _number),
                    ("max_interface_events", "max_interface_events", _integer)))


def _read_record(table, obj, path: str, typed: bool = False):
    """Build a record from a JSON object through its key table; typed
    objects also carry the "type" key that selected the table."""
    cls, keys = table
    allowed = {"type": True} if typed else {}
    _require_keys(obj, allowed | {key: True for key, _, _ in keys}, path)
    try:
        return cls(**{attr: read(obj[key], f"{path}.{key}") for key, attr, read in keys})
    except ValueError as exc:
        raise SceneError(f"{path}: {exc}") from exc


def _read_typed(tables: dict, obj: dict, path: str, what: str):
    kind = obj["type"]
    if not (isinstance(kind, str) and kind in tables):
        raise SceneError(f"{path}.type: unknown {what} type {kind!r}")
    return _read_record(tables[kind], obj, path, typed=True)


def _write_record(table, record) -> dict:
    """The JSON object of a record, keys from its table."""
    doc = {}
    for key, attr, _ in table[1]:
        val = getattr(record, attr)
        doc[key] = val.tolist() if isinstance(val, np.ndarray) else val
    return doc


def _write_typed(tables: dict, record, what: str) -> dict:
    for kind, table in tables.items():
        if isinstance(record, table[0]):
            return {"type": kind, **_write_record(table, record)}
    raise SceneError(f"cannot serialize {what} type {type(record).__name__}")


def _parse_field(obj, path: str, base_dir: Path) -> tuple[IndexField, str | None]:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SceneError(f"{path}: expected an object with a 'type' key")
    if obj["type"] != "grid":
        return _read_typed(_FIELDS, obj, path, "field"), None
    _require_keys(obj, {"type": True, "path": True}, path)
    rel = obj["path"]
    if not isinstance(rel, str):
        raise SceneError(f"{path}.path: expected a string")
    full = base_dir / rel
    try:
        return load_index_grid(full), rel
    except OSError as exc:
        raise SceneError(f"{path}.path: cannot read grid file {full}: {exc}") from exc
    except ValueError as exc:
        raise SceneError(f"{path}: {exc}") from exc


def _validate_scene(scene: Scene) -> None:
    for i, src in enumerate(scene.sources):
        hits = [j for j, m in enumerate(scene.media) if m.contains(src.origin)]
        if len(hits) != 1:
            raise SceneError(
                f"sources[{i}]: origin must lie inside exactly one medium region, "
                f"found {len(hits)}"
            )
        if float(np.linalg.norm(src.direction)) < 1e-9:
            raise SceneError(f"sources[{i}].direction: must be nonzero")
        if src.p <= 0.0:
            raise SceneError(f"sources[{i}].p: color must be positive")
    for k, iface in enumerate(scene.interfaces):
        eps = 1e-6 * (1.0 + float(np.linalg.norm(iface.anchor)))
        for side, n_expect in ((-1.0, iface.n1), (+1.0, iface.n2)):
            probe = iface.anchor + side * eps * iface.normal
            idx = scene.medium_at(probe)
            label = "n1" if side < 0 else "n2"
            if idx is None:
                raise SceneError(
                    f"interfaces[{k}]: no single medium covers the {label} side "
                    f"(probe {probe.tolist()})"
                )
            try:
                n_found = scene.media[idx].field.value(probe)
            except OutOfDomainError as exc:
                raise SceneError(f"interfaces[{k}]: {label} side probe failed: {exc}") from exc
            if abs(n_found - n_expect) > 1e-5 * max(1.0, abs(n_expect)):
                raise SceneError(
                    f"interfaces[{k}].{label} = {n_expect} disagrees with the adjacent "
                    f"medium index {n_found:.8g}; the normal must point from the n1 "
                    "medium into the n2 medium"
                )


def parse_scene(text: str, base_dir: str | Path | None = None) -> Scene:
    """Parse and validate a scene document.

    base_dir resolves grid file references (defaults to the working
    directory).  Raises SceneError on malformed JSON, unknown or missing
    keys, non-finite numbers, or inconsistent geometry (source origins
    must lie in exactly one medium; interface index labels must match the
    adjacent media).
    """
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene is not valid JSON: {exc}") from exc
    _require_keys(
        doc,
        {"spinray_scene": True, "media": True, "interfaces": False,
         "sources": True, "limits": True},
        "scene",
    )
    _check_version(doc, "spinray_scene", SCENE_VERSION)
    media = []
    if not isinstance(doc["media"], list) or not doc["media"]:
        raise SceneError("media: expected a non-empty array")
    region_keys = {key: False for _, keys in _REGIONS.values() for key, _, _ in keys}
    for i, entry in enumerate(doc["media"]):
        path = f"media[{i}]"
        _require_keys(entry, {"region": True, "field": True}, path)
        _require_keys(entry["region"], {"type": True, **region_keys}, f"{path}.region")
        region = _read_typed(_REGIONS, entry["region"], f"{path}.region", "region")
        fld, grid_path = _parse_field(entry["field"], f"{path}.field", base)
        media.append(Medium(region=region, field=fld, grid_path=grid_path))
    if not isinstance(doc.get("interfaces", []), list):
        raise SceneError("interfaces: expected an array")
    interfaces = [
        _read_record(_INTERFACE, entry, f"interfaces[{k}]")
        for k, entry in enumerate(doc.get("interfaces", []))
    ]
    if not isinstance(doc["sources"], list):
        raise SceneError("sources: expected an array")
    sources = [_read_record(_SOURCE, entry, f"sources[{i}]")
               for i, entry in enumerate(doc["sources"])]
    limits = _read_record(_LIMITS, doc["limits"], "limits")
    if limits.max_path_length <= 0.0:
        raise SceneError("limits.max_path_length: must be positive")
    if limits.max_interface_events < 0:
        raise SceneError("limits.max_interface_events: must be non-negative")
    scene = Scene(
        media=tuple(media), interfaces=tuple(interfaces), sources=tuple(sources), limits=limits
    )
    _validate_scene(scene)
    return scene


def emit_scene(scene: Scene) -> str:
    """Serialize a scene back to canonical JSON (parse(emit(s)) == s)."""
    media = []
    for m in scene.media:
        if not isinstance(m.field, GridIndex):
            field = _write_typed(_FIELDS, m.field, "field")
        elif m.grid_path is None:
            raise SceneError("grid fields can only be emitted when loaded from a path")
        else:
            field = {"type": "grid", "path": m.grid_path}
        media.append({"region": _write_typed(_REGIONS, m.region, "region"), "field": field})
    doc = {
        "spinray_scene": SCENE_VERSION,
        "media": media,
        "interfaces": [_write_record(_INTERFACE, i) for i in scene.interfaces],
        "sources": [_write_record(_SOURCE, s) for s in scene.sources],
        "limits": _write_record(_LIMITS, scene.limits),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_sweep(text: str) -> SweepSpec:
    """Parse and validate a sweep document.

    Document shape:

        {"spinray_sweep": 1, "parameter": "incidence_angle",
         "start": 5.0, "stop": 85.0, "count": 9,
         "base": {"n1": 1.0, "n2": 1.5, "theta1_deg": 30.0, "p": 1.0, "s": 1.0}}

    parameter is one of incidence_angle (degrees), index_ratio (n2/n1),
    spin or color; base entries are optional with the defaults above.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"sweep is not valid JSON: {exc}") from exc
    _require_keys(
        doc,
        {"spinray_sweep": True, "parameter": True, "start": True, "stop": True,
         "count": True, "base": False},
        "sweep",
    )
    _check_version(doc, "spinray_sweep", SWEEP_VERSION)
    parameter = doc["parameter"]
    if parameter not in SWEEP_PARAMETERS:
        raise SceneError(
            f"parameter: must be one of {', '.join(SWEEP_PARAMETERS)}, got {parameter!r}"
        )
    start = _number(doc["start"], "start")
    stop = _number(doc["stop"], "stop")
    count = _integer(doc["count"], "count")
    if count < 2:
        raise SceneError("count: a sweep needs at least 2 samples")
    base = doc.get("base", {})
    _require_keys(base, dict.fromkeys(_SWEEP_BASE, False), "base")
    n1, n2, theta1_deg, p, s = (
        _number(base.get(key, default), f"base.{key}") for key, default in _SWEEP_BASE.items()
    )
    if parameter == "incidence_angle":
        lo, hi = min(start, stop), max(start, stop)
        if lo < 0.0 or hi >= 90.0:
            raise SceneError("start/stop: incidence angles must lie in [0, 90) degrees")
    if parameter == "color" and (start <= 0.0 or stop <= 0.0):
        raise SceneError("start/stop: colors must be positive")
    if parameter == "index_ratio" and (start == 0.0 or stop == 0.0):
        raise SceneError("start/stop: index ratio must be nonzero")
    if not 0.0 <= theta1_deg < 90.0:
        raise SceneError("base.theta1_deg: must lie in [0, 90)")
    if p <= 0.0:
        raise SceneError("base.p: must be positive")
    if abs(n1) < 1e-9 or abs(n2) < 1e-9:
        raise SceneError("base.n1/n2: must be nonzero")
    return SweepSpec(
        parameter=parameter,
        start=start,
        stop=stop,
        count=count,
        n1=n1,
        n2=n2,
        theta1=math.radians(theta1_deg),
        p=p,
        s=s,
    )
