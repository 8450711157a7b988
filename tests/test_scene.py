import json

import numpy as np
import pytest

from spinray.errors import SceneError
from spinray.fields import ConstantIndex, GridIndex, dump_index_grid
from spinray.scene import (
    Box,
    HalfSpace,
    Limits,
    Medium,
    Scene,
    emit_scene,
    parse_scene,
    parse_sweep,
)

from conftest import two_media_doc


def test_parse_two_media_scene(scene_doc):
    scene = parse_scene(json.dumps(scene_doc))
    assert len(scene.media) == 2
    assert len(scene.interfaces) == 1
    assert len(scene.sources) == 1
    assert scene.limits.max_path_length == 6.0
    assert scene.limits.max_interface_events == 4
    assert scene.medium_at([0, 0, -0.5]) == 0
    assert scene.medium_at([0, 0, 0.5]) == 1
    assert scene.medium_at([0, 0, 0.0]) is None  # on the boundary of both


def test_half_space_and_box_regions():
    hs = HalfSpace(normal=[0, 0, 1], offset=2.0)
    assert hs.inside_distance([0, 0, 0]) == 2.0
    assert hs.inside_distance([0, 0, 3]) == -1.0
    box = Box(lo=[0, 0, 0], hi=[2, 4, 6])
    assert box.inside_distance([1, 2, 3]) == 1.0
    assert box.inside_distance([1, 2, 7]) == -1.0
    with pytest.raises(ValueError):
        Box(lo=[0, 0, 0], hi=[2, 0, 6])


def array_inside_distance(region, x) -> float:
    """The array form of a region's signed distance."""
    x = np.asarray(x, dtype=float)
    if isinstance(region, HalfSpace):
        return region.offset - float(region.normal @ x)
    return float(min(np.min(x - region.lo), np.min(region.hi - x)))


def test_float_region_tests_equal_the_array_forms(rng):
    box = Box(lo=rng.uniform(-2.0, -0.5, size=3), hi=rng.uniform(0.5, 2.0, size=3))
    axis = HalfSpace(normal=[0.0, 0.0, -1.0], offset=0.25)
    # a tilted plane with dyadic coefficients: on points of eighths every
    # product and sum is exact
    dyadic = HalfSpace(normal=[0.5, 0.25, -1.0], offset=0.375)
    tilted = HalfSpace(normal=rng.normal(size=3), offset=0.3)
    points = list(rng.uniform(-3.0, 3.0, size=(200, 3)))
    for _ in range(100):  # points of the box, some exactly on a face, edge or corner
        x = rng.uniform(box.lo, box.hi)
        on = rng.uniform(size=3) < 0.5
        x[on] = np.where(rng.uniform(size=3) < 0.5, box.lo, box.hi)[on]
        points.append(x)
    for _ in range(100):  # points exactly on the axis and the dyadic planes
        x = rng.integers(-24, 25, size=3) / 8.0
        points.append(np.array([x[0], x[1], -0.25]))
        points.append(np.array([x[0], x[1], 0.5 * x[0] + 0.25 * x[1] - 0.375]))
    regions = (box, axis, dyadic)
    scene = Scene(media=tuple(Medium(region=r, field=ConstantIndex(n0=1.0)) for r in regions),
                  interfaces=(), sources=(), limits=Limits(1.0, 0))
    on_boundary = 0
    for x in points:
        for form in (x, x.tolist()):
            dists = [r.inside_distance(form) for r in regions]
            assert all(type(d) is float for d in dists)
            assert dists == [array_inside_distance(r, x) for r in regions]
            hits = [i for i, d in enumerate(dists) if d > 0.0]
            assert scene.medium_at(form) == (hits[0] if len(hits) == 1 else None)
        on_boundary += 0.0 in dists
        # numpy forms this dot as a fused multiply-add chain, the float
        # form rounds each product: they agree to rounding
        scale = 1.0 + float(np.abs(tilted.normal) @ np.abs(x))
        assert abs(tilted.inside_distance(x) - array_inside_distance(tilted, x)) <= 4e-16 * scale
    assert on_boundary >= 250


def test_parse_rejects_wrong_version(scene_doc):
    scene_doc["spinray_scene"] = 2
    with pytest.raises(SceneError, match="version"):
        parse_scene(json.dumps(scene_doc))


@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_document_version_must_be_the_json_integer_1(scene_doc, version):
    scene_doc["spinray_scene"] = version
    with pytest.raises(SceneError, match=f"spinray_scene: unsupported version {version!r}"):
        parse_scene(json.dumps(scene_doc))
    sweep = {"spinray_sweep": version, "parameter": "spin", "start": -1.0, "stop": 1.0,
             "count": 3}
    with pytest.raises(SceneError, match=f"spinray_sweep: unsupported version {version!r}"):
        parse_sweep(json.dumps(sweep))


@pytest.mark.parametrize("interfaces", [None, 3, True, {}])
def test_interfaces_must_be_an_array(scene_doc, interfaces):
    scene_doc["interfaces"] = interfaces
    with pytest.raises(SceneError, match=r"^interfaces: expected an array$"):
        parse_scene(json.dumps(scene_doc))


def test_parse_rejects_bad_json():
    with pytest.raises(SceneError, match="JSON"):
        parse_scene("{not json")


def test_parse_rejects_unknown_keys(scene_doc):
    scene_doc["extra"] = 1
    with pytest.raises(SceneError, match="unknown key 'extra'"):
        parse_scene(json.dumps(scene_doc))


def test_parse_rejects_missing_keys(scene_doc):
    del scene_doc["limits"]
    with pytest.raises(SceneError, match="missing required key 'limits'"):
        parse_scene(json.dumps(scene_doc))


def test_parse_error_messages_carry_json_paths(scene_doc):
    scene_doc["media"][0]["region"]["normal"] = [0, 0]
    with pytest.raises(SceneError, match=r"media\[0\].region.normal"):
        parse_scene(json.dumps(scene_doc))
    doc = two_media_doc()
    doc["sources"][0]["p"] = "red"
    with pytest.raises(SceneError, match=r"sources\[0\].p"):
        parse_scene(json.dumps(doc))
    doc = two_media_doc()
    doc["interfaces"][0]["n1"] = float("nan")
    with pytest.raises(SceneError):
        parse_scene(json.dumps(doc).replace("NaN", "1e999"))


def test_source_must_lie_in_exactly_one_medium(scene_doc):
    scene_doc["sources"][0]["origin"] = [0, 0, 0]  # on the seam: in neither
    with pytest.raises(SceneError, match="exactly one medium"):
        parse_scene(json.dumps(scene_doc))


def test_source_validation(scene_doc):
    scene_doc["sources"][0]["direction"] = [0, 0, 0]
    with pytest.raises(SceneError, match="direction"):
        parse_scene(json.dumps(scene_doc))
    doc = two_media_doc()
    doc["sources"][0]["p"] = -1.0
    with pytest.raises(SceneError, match="color must be positive"):
        parse_scene(json.dumps(doc))


def test_interface_labels_must_match_adjacent_media(scene_doc):
    scene_doc["interfaces"][0]["n2"] = 1.4  # medium says 1.5
    with pytest.raises(SceneError, match="disagrees"):
        parse_scene(json.dumps(scene_doc))
    doc = two_media_doc()
    doc["interfaces"][0]["anchor"] = [0, 0, 3.0]  # plane off the seam
    with pytest.raises(SceneError):
        parse_scene(json.dumps(doc))


def test_limits_validation(scene_doc):
    scene_doc["limits"]["max_path_length"] = 0.0
    with pytest.raises(SceneError, match="max_path_length"):
        parse_scene(json.dumps(scene_doc))
    doc = two_media_doc()
    doc["limits"]["max_interface_events"] = -1
    with pytest.raises(SceneError, match="max_interface_events"):
        parse_scene(json.dumps(doc))
    doc = two_media_doc()
    doc["limits"]["max_interface_events"] = 2.5
    with pytest.raises(SceneError, match="integer"):
        parse_scene(json.dumps(doc))


def test_all_field_types_parse(tmp_path):
    vals = np.full((6, 6, 6), 1.25)
    (tmp_path / "n.grid").write_text(
        dump_index_grid(GridIndex(values=vals, origin=(-3, -3, -3), spacing=(1, 1, 1)))
    )
    doc = {
        "spinray_scene": 1,
        "media": [
            {"region": {"type": "box", "min": [-2, -2, -2], "max": [2, 2, 2]},
             "field": {"type": "grid", "path": "n.grid"}},
            {"region": {"type": "half_space", "normal": [0, 0, -1], "offset": -2.0},
             "field": {"type": "gaussian_bump", "n0": 1.0, "amplitude": 0.2,
                       "center": [0, 0, 4], "width": 1.0}},
        ],
        "sources": [
            {"origin": [0, 0, 0], "direction": [0, 0, 1], "p": 1.0, "s": 0.0}
        ],
        "limits": {"max_path_length": 4.0, "max_interface_events": 2},
    }
    scene = parse_scene(json.dumps(doc), base_dir=tmp_path)
    assert isinstance(scene.media[0].field, GridIndex)
    assert scene.media[0].grid_path == "n.grid"
    assert scene.interfaces == ()


def test_grid_field_requires_readable_path(tmp_path):
    doc = two_media_doc()
    doc["media"][0]["field"] = {"type": "grid", "path": "missing.grid"}
    with pytest.raises(SceneError, match="cannot read grid file"):
        parse_scene(json.dumps(doc), base_dir=tmp_path)


def test_unknown_field_and_region_types(scene_doc):
    scene_doc["media"][0]["field"] = {"type": "quadratic", "n0": 1.0}
    with pytest.raises(SceneError, match="unknown field type"):
        parse_scene(json.dumps(scene_doc))
    doc = two_media_doc()
    doc["media"][0]["region"] = {"type": "sphere", "normal": [0, 0, 1], "offset": 0.0}
    with pytest.raises(SceneError, match="unknown region type"):
        parse_scene(json.dumps(doc))


def test_emit_scene_round_trips(scene_doc, tmp_path):
    text = json.dumps(scene_doc)
    scene = parse_scene(text)
    emitted = emit_scene(scene)
    again = parse_scene(emitted)
    assert emit_scene(again) == emitted  # canonical fixed point
    assert emitted.endswith("\n")
    # the emitted document is plain sorted-key JSON
    doc = json.loads(emitted)
    assert doc["spinray_scene"] == 1


def test_emit_scene_covers_all_field_types(tmp_path):
    vals = np.full((6, 6, 6), 1.25)
    (tmp_path / "n.grid").write_text(
        dump_index_grid(GridIndex(values=vals, origin=(-3, -3, -3), spacing=(1, 1, 1)))
    )
    doc = {
        "spinray_scene": 1,
        "media": [
            {"region": {"type": "box", "min": [-2, -2, -2], "max": [2, 2, 2]},
             "field": {"type": "grid", "path": "n.grid"}},
            {"region": {"type": "half_space", "normal": [0, 0, -1], "offset": -2.0},
             "field": {"type": "linear_gradient", "n0": 1.0, "gradient": [0, 0, 0.01]}},
        ],
        "sources": [{"origin": [0, 0, 0], "direction": [0, 0, 1], "p": 2.0, "s": -1.0}],
        "limits": {"max_path_length": 4.0, "max_interface_events": 2},
    }
    scene = parse_scene(json.dumps(doc), base_dir=tmp_path)
    emitted = emit_scene(scene)
    again = parse_scene(emitted, base_dir=tmp_path)
    assert emit_scene(again) == emitted


def test_emitted_grid_scene_needs_the_path():
    vals = np.full((6, 6, 6), 1.25)
    grid = GridIndex(values=vals, origin=(-3, -3, -3), spacing=(1, 1, 1))
    from spinray.scene import Limits, Medium, Source

    scene = Scene(
        media=(Medium(region=Box(lo=[-2, -2, -2], hi=[2, 2, 2]), field=grid),),
        interfaces=(),
        sources=(Source(origin=[0, 0, 0], direction=[0, 0, 1], p=1.0, s=0.0),),
        limits=Limits(max_path_length=1.0, max_interface_events=0),
    )
    with pytest.raises(SceneError, match="path"):
        emit_scene(scene)


def test_parse_sweep_defaults_and_conversion():
    spec = parse_sweep(json.dumps({
        "spinray_sweep": 1, "parameter": "incidence_angle",
        "start": 5.0, "stop": 85.0, "count": 9,
    }))
    assert spec.parameter == "incidence_angle"
    assert spec.count == 9
    assert spec.n1 == 1.0 and spec.n2 == 1.5
    assert spec.p == 1.0 and spec.s == 1.0
    assert spec.theta1 == pytest.approx(np.radians(30.0))


def test_parse_sweep_validation():
    base = {"spinray_sweep": 1, "parameter": "color", "start": 0.5, "stop": 5.0, "count": 4}
    parse_sweep(json.dumps(base))
    bad = dict(base, parameter="wavelength")
    with pytest.raises(SceneError, match="parameter"):
        parse_sweep(json.dumps(bad))
    bad = dict(base, count=1)
    with pytest.raises(SceneError, match="count"):
        parse_sweep(json.dumps(bad))
    bad = dict(base, start=-1.0)
    with pytest.raises(SceneError, match="positive"):
        parse_sweep(json.dumps(bad))
    bad = dict(base, parameter="incidence_angle", start=0.0, stop=90.0)
    with pytest.raises(SceneError, match=r"\[0, 90\)"):
        parse_sweep(json.dumps(bad))
    bad = dict(base, parameter="index_ratio", start=0.0, stop=2.0)
    with pytest.raises(SceneError, match="nonzero"):
        parse_sweep(json.dumps(bad))
    bad = dict(base, spinray_sweep=3)
    with pytest.raises(SceneError, match="version"):
        parse_sweep(json.dumps(bad))
    bad = dict(base, base={"theta1_deg": 95.0})
    with pytest.raises(SceneError, match="theta1_deg"):
        parse_sweep(json.dumps(bad))
    bad = dict(base, base={"p": 0.0})
    with pytest.raises(SceneError, match="base.p"):
        parse_sweep(json.dumps(bad))


def every_kind_doc():
    """A valid scene holding one record of every kind: three media (both
    region kinds, the three analytic field kinds), an interface, a source
    and the limits."""
    return {
        "spinray_scene": 1,
        "media": [
            {"region": {"type": "half_space", "normal": [0, 0, 1], "offset": 0.0},
             "field": {"type": "constant", "n0": 1.0}},
            {"region": {"type": "box", "min": [-5, -5, 0], "max": [5, 5, 1]},
             "field": {"type": "linear_gradient", "n0": 1.5, "gradient": [0, 0, 0.01]}},
            {"region": {"type": "half_space", "normal": [0, 0, -1], "offset": -1.0},
             "field": {"type": "gaussian_bump", "n0": 1.2, "amplitude": 0.1,
                       "center": [0, 0, 5], "width": 1.0}},
        ],
        "interfaces": [{"normal": [0, 0, 1], "anchor": [0, 0, 0], "n1": 1.0, "n2": 1.5}],
        "sources": [{"origin": [0, 0, -1], "direction": [0, 0.6, 0.8], "p": 1.0, "s": 1.0}],
        "limits": {"max_path_length": 4.0, "max_interface_events": 3},
    }


# The scene schema: per record kind, its place in every_kind_doc and the
# reader of each key.
SCHEMA = {
    "half_space": ("media[0].region", {"normal": "vector", "offset": "number"}),
    "box": ("media[1].region", {"min": "vector", "max": "vector"}),
    "constant": ("media[0].field", {"n0": "number"}),
    "linear_gradient": ("media[1].field", {"n0": "number", "gradient": "vector"}),
    "gaussian_bump": ("media[2].field", {"n0": "number", "amplitude": "number",
                                         "center": "vector", "width": "number"}),
    "interface": ("interfaces[0]", {"normal": "vector", "anchor": "vector",
                                    "n1": "number", "n2": "number"}),
    "source": ("sources[0]", {"origin": "vector", "direction": "vector",
                              "p": "number", "s": "number"}),
    "limits": ("limits", {"max_path_length": "number", "max_interface_events": "integer"}),
}
WRONG_TYPED = {"vector": [1.0, 2.0], "number": "x", "integer": 2.5}
SCHEMA_KEYS = [(kind, key) for kind, (_, keys) in SCHEMA.items() for key in keys]


def record_at(doc: dict, path: str) -> dict:
    """The object at a JSON path such as media[1].region."""
    obj = doc
    for part in path.split("."):
        name, _, index = part.partition("[")
        obj = obj[name] if not index else obj[name][int(index[:-1])]
    return obj


def scene_error(doc: dict) -> str:
    with pytest.raises(SceneError) as info:
        parse_scene(json.dumps(doc))
    return str(info.value)


def test_every_kind_doc_parses():
    scene = parse_scene(json.dumps(every_kind_doc()))
    assert len(scene.media) == 3 and len(scene.interfaces) == 1


@pytest.mark.parametrize("kind,key", SCHEMA_KEYS)
def test_schema_key_missing(kind, key):
    path, _ = SCHEMA[kind]
    doc = every_kind_doc()
    del record_at(doc, path)[key]
    assert scene_error(doc) == f"{path}: missing required key {key!r}"


@pytest.mark.parametrize("kind,key", SCHEMA_KEYS)
def test_schema_key_is_unknown_in_every_other_record(kind, key):
    for path, _ in SCHEMA.values():
        doc = every_kind_doc()
        record = record_at(doc, path)
        if key in record:
            continue
        record[key] = [0, 0, 1]
        assert scene_error(doc) == f"{path}: unknown key {key!r}"


@pytest.mark.parametrize("kind,key", SCHEMA_KEYS)
def test_schema_key_wrong_type(kind, key):
    path, keys = SCHEMA[kind]
    doc = every_kind_doc()
    record_at(doc, path)[key] = WRONG_TYPED[keys[key]]
    assert scene_error(doc).startswith(f"{path}.{key}: expected ")


@pytest.mark.parametrize("kind", SCHEMA)
def test_keys_are_checked_in_schema_order(kind):
    # with the keys from the i-th on all missing (or all wrong-typed), the
    # error names the i-th key
    path, keys = SCHEMA[kind]
    names = list(keys)
    for i, first in enumerate(names):
        doc = every_kind_doc()
        record = record_at(doc, path)
        for key in names[i:]:
            del record[key]
        assert scene_error(doc) == f"{path}: missing required key {first!r}"
        doc = every_kind_doc()
        record_at(doc, path).update({key: WRONG_TYPED[keys[key]] for key in names[i:]})
        assert scene_error(doc).startswith(f"{path}.{first}: expected ")


def test_constructor_errors_carry_the_record_path():
    doc = every_kind_doc()
    doc["media"][1]["region"]["max"] = [5, 5, -1]
    assert scene_error(doc) == "media[1].region: box max must exceed min on every axis"
    doc = every_kind_doc()
    doc["media"][2]["field"]["width"] = 0.0
    assert scene_error(doc) == "media[2].field: width must be positive, got 0.0"
    doc = every_kind_doc()
    doc["interfaces"][0]["n2"] = 0.0
    assert scene_error(doc).startswith("interfaces[0]: interface n2 must be finite")


def test_every_analytic_kind_round_trips():
    doc = every_kind_doc()
    kinds = {record_at(doc, path).get("type") for path, _ in SCHEMA.values()}
    assert kinds >= {"half_space", "box", "constant", "linear_gradient", "gaussian_bump"}
    assert json.loads(emit_scene(parse_scene(json.dumps(doc)))) == doc


def test_region_error_precedence():
    doc = every_kind_doc()
    doc["media"][0]["region"].update(type="sphere", foo=1)
    assert scene_error(doc) == "media[0].region: unknown key 'foo'"
    doc = every_kind_doc()
    doc["media"][0]["region"]["type"] = "sphere"
    assert scene_error(doc) == "media[0].region.type: unknown region type 'sphere'"
    doc = every_kind_doc()
    doc["media"][0]["region"] = [0, 0, 1]
    assert scene_error(doc) == "media[0].region: expected an object, got list"
    doc = every_kind_doc()
    del doc["media"][0]["region"]["type"]
    assert scene_error(doc) == "media[0].region: missing required key 'type'"
    doc = every_kind_doc()
    doc["media"][0]["region"]["min"] = [0, 0, 0]  # a box key in a half space
    assert scene_error(doc) == "media[0].region: unknown key 'min'"


def test_field_error_precedence():
    doc = every_kind_doc()
    doc["media"][0]["field"].update(type="quadratic", foo=1)
    assert scene_error(doc) == "media[0].field.type: unknown field type 'quadratic'"
    doc = every_kind_doc()
    doc["media"][0]["field"]["type"] = ["constant"]
    assert scene_error(doc) == "media[0].field.type: unknown field type ['constant']"
    doc = every_kind_doc()
    del doc["media"][0]["field"]["type"]
    assert scene_error(doc) == "media[0].field: expected an object with a 'type' key"


def test_records_are_read_in_document_order():
    doc = every_kind_doc()
    doc["interfaces"][0]["foo"] = 1
    doc["sources"][0]["foo"] = 1
    doc["limits"]["foo"] = 1
    assert scene_error(doc) == "interfaces[0]: unknown key 'foo'"
    del doc["interfaces"][0]["foo"]
    assert scene_error(doc) == "sources[0]: unknown key 'foo'"
    del doc["sources"][0]["foo"]
    assert scene_error(doc) == "limits: unknown key 'foo'"
