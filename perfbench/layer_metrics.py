"""Per-layer metrics from the spans of a traced run.

Self time is a span's duration minus the durations of its child spans.
A time per call comes from the calls the workload made; for a function
the workload never calls, `probe` makes a few direct calls with seeded
inputs so that every per-call time is measured on every workload.
Counts and `*_per_*` ratios come from the workload's spans only, and a
ratio whose base is zero is reported as 0.  Shares are fractions of the
traced op time, the summed duration of the top-level `cli.main` spans.
"""

from __future__ import annotations

import json
import math

import numpy as np

from tracer import LAYERS

MODELS = {"spinless": "direction_spinless", "full": "direction_full_spin",
          "linearized": "direction_linearized", "general": "direction_general_metric"}
CHECKS = ("check_orbit_invariants", "check_wave_plane_bracket", "check_kernel_residual",
          "check_model_tower", "check_trace_identity", "check_interface_conservation",
          "check_symplectomorphism", "check_equivariance", "check_reversibility",
          "check_snell_spin_rules", "check_rk4_order", "check_straight_lines")
CURVATURE_FNS = ("curvature.christoffel", "curvature.r_omega", "curvature.einstein_uu")

# Metric name -> unit.  The `*_per_*` ratios and the counts repeat
# exactly for a fixed seed; the times vary from run to run.
PER_LAYER: dict[str, str] = {
    "fields.value.calls_per_eval": "count",
    "fields.gradient.calls_per_eval": "count",
    "fields.hessian.calls_per_eval": "count",
    "fields.velocity_data.us": "us",
    "fields.busy_share": "ratio",
    "curvature.calls_per_eval": "count",
    "curvature.us": "us",
    "vectors.vec3.calls_per_eval": "count",
    "vectors.unit.calls_per_eval": "count",
    **{f"propagation.kernel_us.{m}": "us" for m in MODELS},
    "propagation.kernel_evals_per_step": "count",
    "propagation.integrate.self_share": "ratio",
    "propagation.momentum_hat.us": "us",
    "propagation.kernel_residual.us": "us",
    "scattering.scatter.us": "us",
    "scattering.conservation_check.us": "us",
    "scattering.coefficient_attempts_per_scatter": "count",
    "scattering.inverse_scatter.us": "us",
    "scattering.symplecto_check.ms": "ms",
    "orbits.make_ray.us": "us",
    "orbits.translate_ray.calls_per_scatter": "count",
    "scene.parse_scene.us": "us",
    "scene.parse_sweep.us": "us",
    "scene.medium_at.us": "us",
    "scene.medium_at.calls_per_segment": "count",
    "runner.run_trace.self_share": "ratio",
    "runner.run_sweep.self_share": "ratio",
    "runner.sweep_csv.us_per_row": "us",
    **{f"checks.{c}.ms": "ms" for c in CHECKS},
    "checks.scene_checks.ms": "ms",
    "cli.main.self_share": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS if layer != "cli"},
    # bases of the ratios above, per round of the op list
    "cli.ops_per_round": "count",
    "propagation.kernel_evals_per_round": "count",
    "propagation.steps_per_round": "count",
    "runner.segments_per_round": "count",
    "runner.sweep_rows_per_round": "count",
    "scattering.scatter.calls_per_round": "count",
    "tracing.overhead_share": "ratio",
}

# Per-call times: metric -> (span names, scale to the unit, self time?).
_PER_CALL = {
    "fields.velocity_data.us": (("fields.velocity_data",), 1e6, False),
    "curvature.us": (CURVATURE_FNS, 1e6, False),
    **{f"propagation.kernel_us.{m}": ((f"propagation.{fn}",), 1e6, True)
       for m, fn in MODELS.items()},
    "propagation.momentum_hat.us": (("propagation.momentum_hat",), 1e6, False),
    "propagation.kernel_residual.us": (("propagation.kernel_residual",), 1e6, False),
    "scattering.scatter.us": (("scattering.scatter",), 1e6, False),
    "scattering.conservation_check.us": (("scattering.conservation_check",), 1e6, False),
    "scattering.inverse_scatter.us": (("scattering.inverse_scatter",), 1e6, False),
    "scattering.symplecto_check.ms": (("scattering.symplecto_check",), 1e3, False),
    "orbits.make_ray.us": (("orbits.make_ray",), 1e6, False),
    "scene.parse_scene.us": (("scene.parse_scene",), 1e6, False),
    "scene.parse_sweep.us": (("scene.parse_sweep",), 1e6, False),
    "scene.medium_at.us": (("scene.medium_at",), 1e6, False),
    **{f"checks.{c}.ms": ((f"checks.{c}",), 1e3, False) for c in CHECKS},
    "checks.scene_checks.ms": (("checks.scene_checks",), 1e3, False),
}


def probe(tracer, seed: int, called: set[str]) -> list[str]:
    """Call, traced, each timed function the workload did not call.

    Inputs are drawn from the seed and sit in the same regimes as the
    workloads: a point inside the GRIN lens, an oblique ray on a
    positive-index interface, a small stack scene and sweep.  Returns
    the span names probed.
    """
    from spinray import checks, curvature, fields, orbits, propagation, runner, scattering
    from spinray import scene as scene_mod

    rng = np.random.default_rng([seed, 99])
    lens = fields.GaussianBumpIndex(n0=1.0, amplitude=0.45, center=(0.0, 0.0, 0.0), width=0.9)
    x = rng.uniform(-0.5, 0.5, size=3)
    state = propagation.PhotonState(x=x, u=rng.normal(size=3))
    inv = orbits.OrbitInvariants(p=float(rng.uniform(2.0, 4.0)), s=1.0)
    U = state.u / lens.value(x)
    mstate = propagation.MetricState.from_photon(state, lens)
    iface = scattering.Interface(normal=(0, 0, 1), anchor=(0, 0, 0), n1=1.0,
                                 n2=float(rng.uniform(1.2, 2.0)))
    theta = float(rng.uniform(0.3, 1.0))
    ray = orbits.make_ray(rng.normal(size=3), (math.sin(theta), 0.0, math.cos(theta)))
    outcome = scattering.scatter(ray, 1.0, iface, inv)
    direction = propagation.direction_full_spin(state, inv, lens)
    scene_text = json.dumps({
        "spinray_scene": 1,
        "media": [{"region": {"type": "half_space", "normal": [0, 0, 1], "offset": 0.0},
                   "field": {"type": "constant", "n0": 1.0}},
                  {"region": {"type": "half_space", "normal": [0, 0, -1], "offset": 0.0},
                   "field": {"type": "constant", "n0": iface.n2}}],
        "interfaces": [{"normal": [0, 0, 1], "anchor": [0, 0, 0], "n1": 1.0, "n2": iface.n2}],
        "sources": [{"origin": [0, 0, -0.05], "direction": ray.u.tolist(), "p": inv.p, "s": 1.0}],
        "limits": {"max_path_length": 0.2, "max_interface_events": 4},
    })
    spec_text = json.dumps({"spinray_sweep": 1, "parameter": "incidence_angle",
                            "start": 5.0, "stop": 80.0, "count": 16})
    scene = scene_mod.parse_scene(scene_text)
    spec = scene_mod.parse_sweep(spec_text)
    calls = {
        "fields.velocity_data": (lambda: fields.velocity_data(lens, x), 20),
        "curvature.christoffel": (lambda: curvature.christoffel(lens, x), 20),
        "curvature.r_omega": (lambda: curvature.r_omega(lens, x, U), 20),
        "curvature.einstein_uu": (lambda: curvature.einstein_uu(lens, x, U), 20),
        "propagation.direction_spinless":
            (lambda: propagation.direction_spinless(state, lens), 20),
        "propagation.direction_full_spin":
            (lambda: propagation.direction_full_spin(state, inv, lens), 20),
        "propagation.direction_linearized":
            (lambda: propagation.direction_linearized(state, inv, lens), 20),
        "propagation.direction_general_metric":
            (lambda: propagation.direction_general_metric(mstate, inv, lens), 20),
        "propagation.momentum_hat": (lambda: propagation.momentum_hat(state, inv, lens), 20),
        "propagation.kernel_residual":
            (lambda: propagation.kernel_residual(state, direction, inv, lens), 20),
        "scattering.scatter": (lambda: scattering.scatter(ray, 1.0, iface, inv), 20),
        "scattering.conservation_check":
            (lambda: scattering.conservation_check(ray, 1.0, outcome, iface, inv), 20),
        "scattering.inverse_scatter":
            (lambda: scattering.inverse_scatter(outcome, iface, inv), 20),
        "scattering.symplecto_check":
            (lambda: scattering.symplecto_check(ray, 1.0, iface, inv, samples=4), 3),
        "orbits.make_ray": (lambda: orbits.make_ray(ray.q, ray.u), 20),
        "scene.parse_scene": (lambda: scene_mod.parse_scene(scene_text), 10),
        "scene.parse_sweep": (lambda: scene_mod.parse_sweep(spec_text), 10),
        "scene.medium_at": (lambda: scene.medium_at(x), 20),
        "runner.sweep_csv": (lambda: runner.sweep_csv(runner.sweep_rows(spec)), 5),
        **{f"checks.{c}": (lambda c=c: getattr(checks, c)(np.random.default_rng(seed)), 1)
           for c in CHECKS},
        "checks.scene_checks": (lambda: checks.scene_checks(scene), 1),
    }
    probed = []
    tracer.active = True
    try:
        for span, (call, repeats) in calls.items():
            if span in called:
                continue
            probed.append(span)
            for _ in range(repeats):
                call()
    finally:
        tracer.active = False
    return probed


def compute(spans: dict[str, np.ndarray], names: list[str], probe_start: int,
            rounds: int, overhead_share: float) -> dict[str, float]:
    """All PER_LAYER metrics from the span arrays.

    Spans below `probe_start` belong to the workload's traced ops, which
    ran `rounds` identical rounds; the rest belong to the probe.  Span
    times are multiplied by spans["scale"], the calibration scale of the
    op they belong to.
    """
    nid = spans["name"]
    parent = spans["parent"]
    dur = (spans["t1"] - spans["t0"]) * spans["scale"]
    n = len(dur)
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    index = {name: i for i, name in enumerate(names)}
    layer_of = np.array([LAYERS.index(s.split(".")[0]) for s in names] or [0], dtype=int)

    # Ancestor flags: which layers, and which marked functions, sit above
    # each span.  Parents precede children, so one forward pass suffices.
    marks = {"direction": [index[f"propagation.{fn}"] for fn in MODELS.values() if
                           f"propagation.{fn}" in index],
             "integrate": [index.get("propagation.integrate", -1)],
             "run_trace": [index.get("runner.run_trace", -1)],
             "run_sweep": [index.get("runner.run_sweep", -1)]}
    mark_bit = {m: 1 << (len(LAYERS) + k) for k, m in enumerate(marks)}
    own_bits = [1 << layer_of[i] for i in range(len(names))]
    for m, ids in marks.items():
        for i in ids:
            if i >= 0:
                own_bits[i] |= mark_bit[m]
    anc = [0] * n
    name_list = nid.tolist()
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            anc[i] = anc[p] | own_bits[name_list[p]]
    anc = np.array(anc, dtype=np.int64)
    own = np.array(own_bits, dtype=np.int64)[nid] if n else np.zeros(0, dtype=np.int64)
    work = np.arange(n) < probe_start

    def sel(*span_names: str) -> np.ndarray:
        ids = [index[s] for s in span_names if s in index]
        return np.isin(nid, ids) & work

    def under(mark: str) -> np.ndarray:
        return (anc & mark_bit[mark]) != 0

    def ratio(num: float, den: float) -> float:
        return float(num) / float(den) if den else 0.0

    top_main = sel("cli.main") & ~has_parent
    op_time = float(dur[top_main].sum())
    is_dir = sel(*(f"propagation.{fn}" for fn in MODELS.values()))
    evals = is_dir & ~under("direction")
    n_evals = int(evals.sum())
    evals_in_integrate = int((evals & under("integrate")).sum())
    steps = int(spans["count"][sel("propagation.integrate")].sum())
    n_scatter = int(sel("scattering.scatter").sum())
    segments = int((sel("propagation.integrate") & under("run_trace")).sum())
    rows = int(spans["count"][sel("runner.sweep_rows")].sum())

    out: dict[str, float] = {}
    for what in ("value", "gradient", "hessian"):
        out[f"fields.{what}.calls_per_eval"] = ratio(
            (sel(f"fields.{what}") & under("direction")).sum(), n_evals)
    fields_bit = 1 << LAYERS.index("fields")
    outer_fields = ((own & fields_bit) != 0) & ((anc & fields_bit) == 0) & work
    out["fields.busy_share"] = ratio(dur[outer_fields].sum(), op_time)
    out["curvature.calls_per_eval"] = ratio((sel(*CURVATURE_FNS) & under("direction")).sum(),
                                            n_evals)
    for what in ("vec3", "unit"):
        out[f"vectors.{what}.calls_per_eval"] = ratio(
            (sel(f"vectors.{what}") & under("integrate")).sum(), evals_in_integrate)
    out["propagation.kernel_evals_per_step"] = ratio(evals_in_integrate, steps)
    out["propagation.integrate.self_share"] = ratio(
        self_time[sel("propagation.integrate")].sum(), op_time)
    out["scattering.coefficient_attempts_per_scatter"] = ratio(
        sel("scattering.scatter_coefficients").sum(), n_scatter)
    out["orbits.translate_ray.calls_per_scatter"] = ratio(
        sel("orbits.translate_ray").sum(), n_scatter)
    out["scene.medium_at.calls_per_segment"] = ratio(
        (sel("scene.medium_at") & under("run_trace")).sum(), segments)
    out["runner.run_trace.self_share"] = ratio(self_time[sel("runner.run_trace")].sum(), op_time)
    runner_bit = 1 << LAYERS.index("runner")
    in_sweep = (sel("runner.run_sweep") | under("run_sweep")) & ((own & runner_bit) != 0)
    out["runner.run_sweep.self_share"] = ratio(self_time[in_sweep].sum(), op_time)
    out["cli.main.self_share"] = ratio(self_time[sel("cli.main")].sum(), op_time)
    for layer in LAYERS:
        if layer != "cli":
            ids = [i for i, s in enumerate(names) if s.split(".")[0] == layer]
            out[f"{layer}.self_share"] = ratio(
                self_time[np.isin(nid, ids) & work].sum(), op_time)

    for metric, (span_names, scale, use_self) in _PER_CALL.items():
        ids = [index[s] for s in span_names if s in index]
        mask = np.isin(nid, ids)
        if not (mask & work).any():
            mask &= ~work
        times = self_time[mask] if use_self else dur[mask]
        out[metric] = float(times.mean()) * scale if times.size else 0.0
    phase = work if sel("runner.sweep_csv").any() else ~work
    csv_time = dur[np.isin(nid, [index.get("runner.sweep_csv", -1)]) & phase].sum()
    phase_rows = spans["count"][np.isin(nid, [index.get("runner.sweep_rows", -1)]) & phase].sum()
    out["runner.sweep_csv.us_per_row"] = ratio(csv_time * 1e6, phase_rows)

    out["cli.ops_per_round"] = int(top_main.sum()) // rounds
    out["propagation.kernel_evals_per_round"] = n_evals // rounds
    out["propagation.steps_per_round"] = steps // rounds
    out["runner.segments_per_round"] = segments // rounds
    out["runner.sweep_rows_per_round"] = rows // rounds
    out["scattering.scatter.calls_per_round"] = n_scatter // rounds
    out["tracing.overhead_share"] = overhead_share
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
