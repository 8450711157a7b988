import json
import math

import numpy as np
import pytest

from spinray.errors import SceneError
from spinray.runner import (
    CSV_COLUMNS,
    _stop_function,
    run_sweep,
    run_trace,
    sweep_csv,
    sweep_rows,
)
from spinray.scattering import Interface
from spinray.scene import Box, HalfSpace, parse_scene, parse_sweep

from conftest import two_media_doc


def make_scene(**kwargs):
    return parse_scene(json.dumps(two_media_doc(**kwargs)))


def sweep_spec(parameter="incidence_angle", start=5.0, stop=85.0, count=9, **base):
    doc = {"spinray_sweep": 1, "parameter": parameter,
           "start": start, "stop": stop, "count": count}
    if base:
        doc["base"] = base
    return parse_sweep(json.dumps(doc))


def test_stop_function_is_the_nearest_wall_on_floats(rng):
    # the float walls against the array distances they replace
    planes = [Interface(normal=rng.normal(size=3), anchor=rng.normal(size=3), n1=1.0, n2=1.5)
              for _ in range(2)]
    regions = [HalfSpace(normal=rng.normal(size=3), offset=0.3),
               Box(lo=[-1.0, -2.0, -0.5], hi=[1.5, 0.5, 2.0])]
    for region in regions:
        for signs in ([1.0, -1.0], [-1.0, 1.0]):
            stop = _stop_function(region, planes, signs)
            for _ in range(50):
                x = rng.uniform(-2.0, 2.0, size=3)
                want = min([region.inside_distance(x)]
                           + [sg * pl.signed_distance(x) for sg, pl in zip(signs, planes)])
                assert stop(tuple(x.tolist())) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_trace_refracts_at_the_expected_angle():
    scene = make_scene(theta1_deg=30.0)
    result = run_trace(scene, 0)
    assert result.termination == "path-length-limit"
    scatters = result.scatter_events
    assert len(scatters) == 1
    ev = scatters[0]
    assert ev["mode"] == "refraction"
    assert ev["theta1_deg"] == pytest.approx(30.0, abs=1e-6)
    assert ev["theta2_deg"] == pytest.approx(math.degrees(math.asin(1.0 / 3.0)), abs=1e-6)
    assert ev["s_in"] == 1.0 and ev["s_out"] == 1.0
    assert abs(ev["res_L"]) < 1e-10 and abs(ev["res_P"]) < 1e-10
    # the Hall shift points out of the incidence plane
    assert ev["shift"][0] == pytest.approx(0.0, abs=1e-12)
    assert ev["shift"][2] == pytest.approx(0.0, abs=1e-12)
    assert ev["shift"][1] == pytest.approx(0.1535672755952496, abs=1e-9)


def test_trace_shift_flips_with_helicity():
    doc = two_media_doc()
    doc["sources"].append(dict(doc["sources"][0], s=-1.0))
    scene = parse_scene(json.dumps(doc))
    plus = run_trace(scene, 0).scatter_events[0]
    minus = run_trace(scene, 1).scatter_events[0]
    assert plus["shift"][1] == pytest.approx(-minus["shift"][1], abs=1e-15)


def test_trace_segments_alternate_with_scatters():
    scene = make_scene()
    result = run_trace(scene, 0)
    kinds = [e["type"] for e in result.events]
    assert kinds == ["segment", "scatter", "segment"]
    seg0, seg1 = result.events[0], result.events[2]
    assert seg0["medium"] == 0 and seg1["medium"] == 1
    assert seg0["t_start"] == 0.0
    assert seg0["points"][0] == [0.0, 0.0, -1.0]
    # segment 0 ends on the interface plane
    assert abs(seg0["end"]["x"][2]) < 1e-8
    doc = result.to_doc()
    assert doc["spinray_trace"] == 1
    assert doc["model"] == "full_spin"
    # the document is JSON-serializable as is
    json.dumps(doc)


def test_trace_total_reflection_flips_spin_and_stays_below():
    scene = make_scene(n2=0.5, theta1_deg=50.0)
    result = run_trace(scene, 0)
    ev = result.scatter_events[0]
    assert ev["mode"] == "total_reflection"
    assert ev["s_out"] == -1.0
    final = result.events[-1]
    assert final["type"] == "segment"
    assert final["end"]["x"][2] < 0.0  # still in the lower medium
    assert final["end"]["u"][2] < 0.0  # heading away from the interface


def test_trace_respects_interface_limit():
    # bounce forever between two mirrors: glass slab inside air with total
    # reflection on both faces is overkill; instead cap events at 0 so the
    # first crossing already exceeds the budget
    scene = make_scene(max_interface_events=0)
    result = run_trace(scene, 0)
    assert result.termination == "interface-limit"
    assert result.scatter_events == []


def test_trace_terminates_at_boundary():
    doc = two_media_doc()
    # shrink side 2 to a thin box; the refracted ray leaves it
    doc["media"][1] = {
        "region": {"type": "box", "min": [-5, -5, 0], "max": [5, 5, 0.4]},
        "field": {"type": "constant", "n0": 1.5},
    }
    scene = parse_scene(json.dumps(doc))
    result = run_trace(scene, 0)
    assert result.termination == "boundary"
    assert result.events[-1]["type"] == "segment"


def test_trace_source_index_validation():
    scene = make_scene()
    with pytest.raises(SceneError, match="source index"):
        run_trace(scene, 5)
    with pytest.raises(SceneError, match="source index"):
        run_trace(scene, -1)


def test_trace_approached_from_the_far_side():
    # aim a source in the upper medium downward through the same plane:
    # the runner flips the working orientation so n1/n2 swap
    doc = two_media_doc()
    doc["sources"][0] = {
        "origin": [0, 0, 1.0],
        "direction": [math.sin(0.3), 0, -math.cos(0.3)],
        "p": 1.0, "s": 1.0,
    }
    scene = parse_scene(json.dumps(doc))
    result = run_trace(scene, 0)
    ev = result.scatter_events[0]
    assert ev["mode"] == "refraction"
    # from the dense side the outgoing angle opens up
    theta2 = math.radians(abs(ev["theta2_deg"]))
    assert math.sin(theta2) == pytest.approx(1.5 * math.sin(0.3), abs=1e-9)


def test_trace_matches_direct_scatter_for_flat_media():
    import spinray as sr

    scene = make_scene(theta1_deg=40.0)
    result = run_trace(scene, 0)
    ev = result.scatter_events[0]
    th = math.radians(40.0)
    ray = sr.ray_from_point_direction([0, 0, -1.0], [math.sin(th), 0, math.cos(th)])
    iface = sr.Interface(normal=(0, 0, 1), anchor=(0, 0, 0), n1=1.0, n2=1.5)
    out = sr.scatter(ray, 1.0, iface, sr.OrbitInvariants(p=1.0, s=1.0))
    assert np.allclose(ev["shift"], out.shift, atol=1e-9)
    theta2 = math.degrees(math.acos(float(out.ray2.u @ [0, 0, 1])))
    assert ev["theta2_deg"] == pytest.approx(theta2, abs=1e-7)


def test_sweep_rows_emit_both_helicities():
    rows = sweep_rows(sweep_spec(count=3))
    assert len(rows) == 6
    assert [r["s1"] for r in rows[:2]] == [1.0, -1.0]
    assert rows[0]["param"] == 5.0 and rows[-1]["param"] == 85.0
    for r in rows:
        assert r["error"] == ""
        assert abs(r["res_L"]) < 1e-10


def test_sweep_spin_parameter_single_row_per_value():
    rows = sweep_rows(sweep_spec(parameter="spin", start=-1.0, stop=1.0, count=5))
    assert len(rows) == 5
    mid = rows[2]
    assert mid["s1"] == 0.0
    assert mid["shift_y"] == 0.0


def test_sweep_color_rows_scale_like_inverse_p():
    rows = sweep_rows(sweep_spec(parameter="color", start=1.0, stop=4.0, count=4))
    plus = [r for r in rows if r["s1"] > 0]
    shifts = np.array([r["shift_y"] for r in plus])
    ps = np.array([r["param"] for r in plus])
    assert np.allclose(shifts * ps, shifts[0] * ps[0], atol=1e-12)


def test_sweep_total_reflection_rows_carry_the_error():
    rows = sweep_rows(sweep_spec(parameter="incidence_angle", start=5.0, stop=85.0,
                                 count=9, n1=1.0, n2=0.5))
    # auto mode falls back to the mirror branch, so no refraction errors,
    # spins flip instead
    tr = [r for r in rows if r["mode"] == "total_reflection"]
    assert tr and all(r["s2"] == -r["s1"] for r in tr)
    # indices below the floor do error out per row
    bad = sweep_rows(sweep_spec(parameter="index_ratio", start=-2.0, stop=2.0, count=5,
                                n1=1.0))
    center = [r for r in bad if r["param"] == 0.0]
    assert center and all("ValueError" in r["error"] for r in center)
    assert all(math.isnan(r["theta2_deg"]) for r in center)
    good = [r for r in bad if r["param"] != 0.0]
    assert all(r["error"] == "" for r in good)


def test_sweep_from_a_left_handed_side_has_no_error_rows():
    rows = sweep_rows(sweep_spec(parameter="incidence_angle", start=0.0, stop=85.0,
                                 count=18, n1=-1.3, n2=1.0))
    assert all(r["error"] == "" for r in rows)
    assert all(r["res_L"] < 1e-10 and r["res_P"] < 1e-10 for r in rows)
    # negative refraction below the critical angle, total reflection past it
    assert {r["mode"] for r in rows} == {"refraction", "total_reflection"}
    assert all(r["theta2_deg"] <= 0.0 for r in rows if r["mode"] == "refraction")


def test_sweep_csv_layout_and_determinism():
    spec = sweep_spec(count=5)
    rows1, csv1 = run_sweep(spec)
    rows2, csv2 = run_sweep(spec)
    assert csv1 == csv2
    lines = csv1.splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 1 + len(rows1)
    assert csv1.endswith("\n")
    # numeric cells are full-precision reprs
    first = lines[1].split(",")
    assert first[0] == "5.0"
    assert first[11] == ""


def test_sweep_csv_quotes_messages_with_commas():
    rows = [dict(
        param=1.0, theta1_deg=30.0, theta2_deg=math.nan, s1=1.0, s2=math.nan,
        mode="", shift_x=math.nan, shift_y=math.nan, shift_z=math.nan,
        res_L=math.nan, res_P=math.nan, error="SomeError: bad, worse, worst",
    )]
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert len(lines) == 2
    assert '"SomeError: bad, worse, worst"' in lines[1]
    import csv as csvmod
    import io

    parsed = list(csvmod.reader(io.StringIO(text)))
    assert parsed[1][11] == "SomeError: bad, worse, worst"
