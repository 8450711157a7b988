"""Scene execution: multi-segment traces and single-interface sweeps.

A trace alternates smooth transport inside the medium containing the
photon with scattering events at interface planes.  Each segment stops at
the first plane crossed (or at the edge of the containing region), the
crossing is resolved against the scene's interface list, and the outgoing
ray of the scattering map seeds the next segment.  Spin flips at (total)
reflections are tracked across segments.

A sweep scatters a canonical ray (interface normal +z anchored at the
origin, incoming ray through the origin in the x-z plane) over a sampled
parameter and tabulates angles, spins, the Hall shift and conservation
residuals; rows for both helicities are emitted unless the spin itself is
swept.  Row errors are recorded in the final CSV column and the sweep
continues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SceneError, SpinrayError
from .orbits import OrbitInvariants, Ray, make_ray, ray_from_point_direction
from .propagation import PhotonState, canonical_model, integrate
from .scattering import (
    Interface,
    conservation_check,
    scatter,
)
from .scene import Box, HalfSpace, Scene, SweepSpec
from .vectors import cross, unit

CSV_COLUMNS = (
    "param,theta1_deg,theta2_deg,s1,s2,mode,shift_x,shift_y,shift_z,res_L,res_P,error"
)


@dataclass(frozen=True)
class TraceResult:
    """Event list of one traced source plus the termination reason."""

    source: int
    model: str
    events: tuple[dict, ...]
    termination: str

    def to_doc(self) -> dict:
        return {
            "spinray_trace": 1,
            "source": self.source,
            "model": self.model,
            "termination": self.termination,
            "events": list(self.events),
        }

    @property
    def scatter_events(self) -> list[dict]:
        return [e for e in self.events if e["type"] == "scatter"]


def _scatter_event(ray1: Ray, s: float, iface: Interface, inv: OrbitInvariants):
    """Scatter on the automatic branch: the outcome, the signed in-plane angles
    theta1 and theta2 of u1 and u2, and the scaled residuals res_L and res_P."""
    out = scatter(ray1, s, iface, inv, mode="auto")
    res = conservation_check(ray1, s, out, iface, inv)
    n, u1, u2 = iface.normal, ray1.u, out.ray2.u
    theta1 = math.atan2(float(np.linalg.norm(cross(n, u1))), float(n @ u1))
    tang = u1 - n * float(n @ u1)
    norm = float(np.linalg.norm(tang))
    tang = tang / norm if norm > 1e-12 else np.zeros(3)
    theta2 = math.atan2(float(u2 @ tang), float(u2 @ n))
    return out, theta1, theta2, res.angular / res.scale, res.tangential / res.scale


def _stop_function(region: HalfSpace | Box, planes, signs):
    """Signed distance, on three floats, to the nearest wall of a segment.

    The walls are the region's faces and the interface planes, each plane's
    distance signed positive on the side the segment starts from.  Every
    wall is an affine form c - <a, x>, its coefficients taken as floats
    once per segment.
    """
    if isinstance(region, HalfSpace):
        walls = [(*region.normal.tolist(), float(region.offset))]
    else:  # Box: x - lo and hi - x on each axis
        walls = []
        for e, lo, hi in zip(np.eye(3).tolist(), region.lo.tolist(), region.hi.tolist()):
            walls += [(-e[0], -e[1], -e[2], -lo), (*e, hi)]
    for sg, pl in zip(signs, planes):
        a0, a1, a2 = (-sg * pl.normal).tolist()
        b0, b1, b2 = pl.anchor.tolist()
        walls.append((a0, a1, a2, a0 * b0 + a1 * b1 + a2 * b2))

    def stop(pos) -> float:
        x0, x1, x2 = pos
        return min([c - (a0 * x0 + a1 * x1 + a2 * x2) for a0, a1, a2, c in walls])

    return stop


def run_trace(
    scene: Scene, source_index: int, model: str = "full", step: float = 0.01
) -> TraceResult:
    """Trace one source through the scene.

    Terminations: "boundary" (left all media or the field domain),
    "path-length-limit", "interface-limit".  Raises the kernel errors of
    the transport model, and NotIncomingError if a ray meets a plane
    without its direction of travel crossing it.
    """
    if not 0 <= source_index < len(scene.sources):
        raise SceneError(f"source index {source_index} out of range "
                         f"(scene has {len(scene.sources)} sources)")
    model = canonical_model(model)
    src = scene.sources[source_index]
    x = src.origin.copy()
    u = unit(src.direction)
    s_cur = float(src.s)
    remaining = scene.limits.max_path_length
    events: list[dict] = []
    n_scatter = 0
    termination = "path-length-limit"
    while remaining > 1e-12:
        medium_idx = scene.medium_at(x)
        if medium_idx is None:
            termination = "boundary"
            break
        medium = scene.media[medium_idx]
        inv = OrbitInvariants(p=src.p, s=s_cur)
        planes = scene.interfaces
        signs = [math.copysign(1.0, pl.signed_distance(x)) for pl in planes]
        traj = integrate(
            PhotonState(x=x, u=u), inv, medium.field, model=model,
            step=step, max_len=remaining, stop=_stop_function(medium.region, planes, signs),
        )
        x_end, u_end = traj.x[-1], traj.u[-1]
        events.append(
            {
                "type": "segment",
                "medium": medium_idx,
                "t_start": float(scene.limits.max_path_length - remaining),
                "t_end": float(scene.limits.max_path_length - remaining + traj.arc_length),
                "n_steps": len(traj) - 1,
                "start": {"x": traj.x[0].tolist(), "u": traj.u[0].tolist()},
                "end": {"x": x_end.tolist(), "u": u_end.tolist()},
                "points": [pt.tolist() for pt in traj.x],
            }
        )
        remaining -= traj.arc_length
        if traj.reason == "boundary":
            termination = "boundary"
            break
        if traj.reason == "max-steps":
            termination = "path-length-limit"
            break
        # reason == "interface": find which plane was crossed
        dists = [abs(pl.signed_distance(x_end)) for pl in planes]
        if not dists or min(dists) > 1e-7 * (1.0 + float(np.linalg.norm(x_end))):
            termination = "boundary"
            break
        j = int(np.argmin(dists))
        if n_scatter >= scene.limits.max_interface_events:
            termination = "interface-limit"
            break
        iface = planes[j]
        if signs[j] > 0.0:
            # approached from the n2 side: flip the working orientation
            iface = iface.flipped()
        hit = x_end - iface.normal * iface.signed_distance(x_end)
        ray1 = ray_from_point_direction(hit, u_end)
        outcome, theta1, theta2, res_l, res_p = _scatter_event(ray1, s_cur, iface, inv)
        events.append(
            {
                "type": "scatter",
                "interface": j,
                "mode": outcome.mode,
                "hit": hit.tolist(),
                "theta1_deg": math.degrees(theta1),
                "theta2_deg": math.degrees(theta2),
                "s_in": s_cur,
                "s_out": outcome.s2,
                "shift": outcome.shift.tolist(),
                "res_L": res_l,
                "res_P": res_p,
            }
        )
        n_scatter += 1
        s_cur = outcome.s2
        u = outcome.ray2.u
        x_on_line = outcome.ray2.q + u * float(u @ hit)
        x = x_on_line + u * 1e-9 * (1.0 + float(np.linalg.norm(x_on_line)))
        termination = "path-length-limit"
    return TraceResult(
        source=source_index, model=model, events=tuple(events), termination=termination
    )


def sweep_rows(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep table (one dict per row, CSV column keys)."""
    values = np.linspace(spec.start, spec.stop, spec.count)
    rows = []
    for val in values:
        n1, n2, theta1, p, s = spec.n1, spec.n2, spec.theta1, spec.p, spec.s
        if spec.parameter == "incidence_angle":
            theta1 = math.radians(float(val))
        elif spec.parameter == "index_ratio":
            n2 = float(val) * n1
        elif spec.parameter == "spin":
            s = float(val)
        elif spec.parameter == "color":
            p = float(val)
        spins = [s] if (spec.parameter == "spin" or s == 0.0) else [abs(s), -abs(s)]
        for s_row in spins:
            rows.append(_sweep_row(float(val), n1, n2, theta1, p, s_row))
    return rows


def _sweep_row(param: float, n1: float, n2: float, theta1: float, p: float, s: float) -> dict:
    row = {
        "param": param,
        "theta1_deg": math.degrees(theta1),
        "theta2_deg": math.nan,
        "s1": s,
        "s2": math.nan,
        "mode": "",
        "shift_x": math.nan,
        "shift_y": math.nan,
        "shift_z": math.nan,
        "res_L": math.nan,
        "res_P": math.nan,
        "error": "",
    }
    try:
        iface = Interface(normal=(0.0, 0.0, 1.0), anchor=(0.0, 0.0, 0.0), n1=n1, n2=n2)
        ray1 = make_ray(np.zeros(3), (math.sin(theta1), 0.0, math.cos(theta1)))
        outcome, _, theta2, res_l, res_p = _scatter_event(
            ray1, s, iface, OrbitInvariants(p=p, s=s))
        row.update(
            theta2_deg=math.degrees(theta2),
            s2=outcome.s2,
            mode=outcome.mode,
            shift_x=float(outcome.shift[0]),
            shift_y=float(outcome.shift[1]),
            shift_z=float(outcome.shift[2]),
            res_L=res_l,
            res_P=res_p,
        )
    except (SpinrayError, ValueError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def sweep_csv(rows: list[dict]) -> str:
    """Render sweep rows as deterministic CSV (fixed column order)."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = CSV_COLUMNS.split(",")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            [row[col] if isinstance(row[col], str) else repr(float(row[col])) for col in columns]
        )
    return buf.getvalue()


def run_sweep(spec: SweepSpec) -> tuple[list[dict], str]:
    """Sweep table plus its CSV rendering."""
    rows = sweep_rows(spec)
    return rows, sweep_csv(rows)
