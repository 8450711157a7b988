"""Correctness checks on the outputs of benchmark ops.

Each check returns a list of problems; an op with any problem counts as
failed.  The checks run outside the timed region, with tracing off.

* trace: the termination is the expected one; every scatter event has
  conservation residuals below 1e-10 and is re-derived from its hit
  point and incoming direction with `scatter`, which must give the same
  mode, outgoing spin and Hall shift; the end state passes
  `kernel_residual` below 1e-10 p n.  On grin_fan the `full` and
  `general` traces of one source must also end at the same state (the
  two models agree to rounding, as the model-tower check asserts).
* sweep: the rows match the spec, no row has an error, the residuals
  are below 1e-10, and the Hall shift is odd in the spin.
* check: the command exits 0 and its report passes every check.

For the default seed the outputs must also match the committed
reference in reference/<workload>.json within 1e-9.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-10
SHIFT_TOL = 1e-12
MODEL_TOWER_TOL = 1e-6
REFERENCE_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def check_trace(op, text: str, scene) -> list[str]:
    import spinray

    problems = []
    doc = json.loads(text)
    if doc.get("termination") != "path-length-limit":
        problems.append(f"termination {doc.get('termination')!r}, expected 'path-length-limit'")
    if doc.get("model") != spinray.canonical_model(op.model):
        problems.append(f"model {doc.get('model')!r}")
    src = scene.sources[0]
    s_cur = float(src.s)
    segment = None
    for ev in doc["events"]:
        if ev["type"] == "segment":
            segment = ev
            continue
        if segment is None:
            problems.append("scatter event before any segment")
            break
        if not (ev["res_L"] < RESIDUAL_TOL and ev["res_P"] < RESIDUAL_TOL):
            problems.append(f"event residuals {ev['res_L']:.3e}, {ev['res_P']:.3e}")
        if ev["s_in"] != s_cur:
            problems.append(f"spin in {ev['s_in']} after spin out {s_cur}")
        iface = scene.interfaces[ev["interface"]]
        if iface.signed_distance(segment["start"]["x"]) > 0.0:
            iface = spinray.Interface(normal=-iface.normal, anchor=iface.anchor,
                                      n1=iface.n2, n2=iface.n1)
        inv = spinray.OrbitInvariants(p=src.p, s=s_cur)
        ray1 = spinray.ray_from_point_direction(ev["hit"], segment["end"]["u"])
        out = spinray.scatter(ray1, s_cur, iface, inv, mode="auto")
        shift_err = float(np.max(np.abs(out.shift - np.array(ev["shift"]))))
        if out.mode != ev["mode"] or out.s2 != ev["s_out"] or shift_err > SHIFT_TOL:
            problems.append(f"scatter event differs from re-derivation: mode {ev['mode']} vs "
                            f"{out.mode}, s_out {ev['s_out']} vs {out.s2}, "
                            f"shift by {shift_err:.3e}")
        s_cur = ev["s_out"]
    if segment is None:
        return problems + ["no segment"]
    field = scene.media[segment["medium"]].field
    state = spinray.PhotonState(x=segment["end"]["x"], u=segment["end"]["u"])
    inv = spinray.OrbitInvariants(p=src.p, s=s_cur)
    direction = spinray.direction_full_spin(state, inv, field)
    res = spinray.kernel_residual(state, direction, inv, field)
    bound = RESIDUAL_TOL * src.p * field.value(state.x)
    if not res < bound:
        problems.append(f"end-state kernel residual {res:.3e} above {bound:.3e}")
    return problems


def check_model_tower(full_text: str, general_text: str) -> list[str]:
    """The full and general traces of one source end at the same state."""
    ends = []
    for text in (full_text, general_text):
        last = [e for e in json.loads(text)["events"] if e["type"] == "segment"][-1]
        ends.append(np.array(last["end"]["x"] + last["end"]["u"]))
    gap = float(np.max(np.abs(ends[0] - ends[1])))
    if not gap < MODEL_TOWER_TOL:
        return [f"full and general end states differ by {gap:.3e}"]
    return []


def check_sweep(text: str, spec) -> list[str]:
    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    spins_per_value = 1 if spec.parameter == "spin" else 2
    if len(rows) != spec.count * spins_per_value:
        return [f"{len(rows)} rows, expected {spec.count * spins_per_value}"]
    for k, row in enumerate(rows):
        if row["error"]:
            problems.append(f"row {k}: error {row['error']!r}")
            continue
        res = (float(row["res_L"]), float(row["res_P"]))
        if not all(r < RESIDUAL_TOL for r in res):
            problems.append(f"row {k}: residuals {res}")
    if problems:
        return problems
    shifts = np.array([[float(r[f"shift_{c}"]) for c in "xyz"] for r in rows])
    spins = np.array([float(r["s1"]) for r in rows])
    if spins_per_value == 2:
        pairs = [(k, k + 1) for k in range(0, len(rows), 2)]
    else:
        pairs = [(k, len(rows) - 1 - k) for k in range(len(rows) // 2 + 1)]
    for a, b in pairs:
        if abs(spins[a] + spins[b]) > 1e-12 * (1.0 + abs(spins[a])):
            problems.append(f"rows {a}, {b}: spins {spins[a]}, {spins[b]} are not opposite")
            continue
        scale = 1.0 + float(np.max(np.abs(shifts[a])))
        if float(np.max(np.abs(shifts[a] + shifts[b]))) > 1e-9 * scale:
            problems.append(f"rows {a}, {b}: shift is not odd in the spin")
        if rows[a]["mode"] != rows[b]["mode"]:
            problems.append(f"rows {a}, {b}: modes differ")
    return problems


def check_check(op, text: str, exit_code: int) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    doc = json.loads(text)
    if not doc.get("passed"):
        failed = [c["name"] for c in doc.get("checks", []) if not c["passed"]]
        problems.append(f"report failed: {failed}")
    if doc.get("n_checks") != op.expect_checks:
        problems.append(f"{doc.get('n_checks')} checks, expected {op.expect_checks}")
    return problems


def flip_first_shift_trace(text: str) -> str | None:
    """The trace document with the sign of its first nonzero Hall shift
    flipped, or None if it has none."""
    doc = json.loads(text)
    for ev in doc["events"]:
        if ev["type"] == "scatter" and any(ev["shift"]):
            ev["shift"] = [-c for c in ev["shift"]]
            return json.dumps(doc)
    return None


def flip_first_shift_sweep(text: str) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("shift_y")
    for row in rows[1:]:
        if float(row[col]) != 0.0:
            row[col] = repr(-float(row[col]))
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            return buf.getvalue()
    return None


def digest(op, text: str) -> list:
    """The op's output as a flat list of strings and numbers.

    Trace documents keep every field except the point lists, of which
    every eighth point and the last are kept.
    """
    if op.kind == "sweep":
        out = []
        for row in csv.reader(io.StringIO(text)):
            for cell in row:
                try:
                    out.append(float(cell))
                except ValueError:
                    out.append(cell)
        return out
    doc = json.loads(text)
    if op.kind == "check":
        return [doc["passed"], doc["n_checks"]] + [
            v for c in doc["checks"] for v in (c["name"], c["passed"], c["max_residual"])]
    for ev in doc["events"]:
        if "points" in ev:
            ev["points"] = ev["points"][::8] + ev["points"][-1:]
    out = []

    def walk(obj) -> None:
        if isinstance(obj, dict):
            for key in sorted(obj):
                out.append(key)
                walk(obj[key])
        elif isinstance(obj, list):
            for item in obj:
                walk(item)
        else:
            out.append(obj)

    walk(doc)
    return out


def compare_reference(workload: str, digests: list[list]) -> dict[int, str]:
    """Op index -> how its output differs from the committed reference."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {k: f"reference file {path.name} is missing" for k in range(len(digests))}
    ref = json.loads(path.read_text())["ops"]
    if len(ref) != len(digests):
        return {k: f"{len(digests)} ops, reference has {len(ref)}" for k in range(len(digests))}
    problems = {}
    for k, (got, want) in enumerate(zip(digests, ref)):
        if len(got) != len(want):
            problems[k] = f"{len(got)} values, reference has {len(want)}"
            continue
        for a, b in zip(got, want):
            if isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
                same = (math.isnan(a) and math.isnan(b)) or abs(a - b) <= REFERENCE_TOL * max(
                    1.0, abs(b))
            else:
                same = a == b
            if not same:
                problems[k] = f"{a!r} differs from reference {b!r}"
                break
    return problems
