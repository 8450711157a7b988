"""Seeded inputs and op lists for the four benchmark workloads.

Every workload is a list of ops, each the argument list of one
`spinray` command (`trace`, `sweep` or `check`), plus the input files the
ops read.  The files are written into a work directory from the seed
alone; the program under test sees only those files.  One pass over the
op list is a round, and the benchmark repeats whole rounds, so every run
measures the same mix of ops.

Continuous parameters are drawn by Latin-hypercube stratification: each
of the n draws falls in its own 1/n slice of the range, with the slices
shuffled independently per parameter.  Different seeds then give
populations whose quantiles agree closely, which keeps the medians the
benchmark reports steady from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("grin_fan", "slab_stack", "hall_sweep", "check_suite")

GRIN_MODELS = ("spinless", "full", "linearized", "general")
SLAB_MODELS = ("spinless", "full")
GRIN_STEP = 0.02
SLAB_STEP = 0.02


@dataclass(frozen=True)
class Op:
    """One command: its argument list (without --out) and what the
    checker needs: the input file it read, the model of a trace, and the
    number of checks a `check` must report.  kind is "trace", "sweep" or
    "check".
    """

    kind: str
    args: tuple[str, ...]
    scene: str | None = None
    model: str | None = None
    spec: str | None = None
    expect_checks: int | None = None


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op] = field(default_factory=list)
    scenes: list[str] = field(default_factory=list)
    specs: list[str] = field(default_factory=list)
    # what one unit of `work_per_s` counts on this workload
    work_unit: str = ""


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws in [0, 1), one in each slice of width 1/n, in random order."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def _lerp(lo: float, hi: float, t) -> np.ndarray:
    return lo + (hi - lo) * np.asarray(t)


def _direction(theta: float, phi: float, axis: int) -> list[float]:
    """Unit vector at polar angle theta from the given coordinate axis."""
    along = math.cos(theta)
    a, b = math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)
    if axis == 0:
        return [along, a, b]
    return [a, b, along]


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return str(path)


# The Gaussian-bump lens of demos/scenes/grin_lens.json, centred at the
# origin.  Amplitude and width keep the kernel well away from its
# singularities for colors p >= 2: the full-model coefficient
# a = 1 + (s/p)^2 |g|^2 - v (s/p)^2 div g stays above 0.5 and the
# general-model denominator p^2 + s^2 Ein(U, U) above 3.
_LENS = {"type": "gaussian_bump", "n0": 1.0, "amplitude": 0.45,
         "center": [0.0, 0.0, 0.0], "width": 0.9}


def grin_fan(seed: int, work: Path, n_sources: int = 16) -> Workload:
    """A fan of sources through the GRIN lens, each traced with all four models.

    Each source gets its own scene file so that its path length can be
    drawn on its own: op latencies then spread continuously rather than
    clustering by model, and the median does not sit on a gap between
    clusters.  Every path ends inside the lens box, so each trace ends
    with "path-length-limit" after exactly ceil(L / step) steps.
    """
    rng = np.random.default_rng([seed, 1])
    wl = Workload("grin_fan", seed, work_unit="committed RK4 steps")
    length = _lerp(0.5, 1.3, _strata(rng, n_sources))
    height = _lerp(0.0, 0.5, _strata(rng, n_sources))
    tilt = _lerp(0.0, math.radians(20.0), _strata(rng, n_sources))
    color = _lerp(2.0, 4.0, _strata(rng, n_sources))
    for i in range(n_sources):
        psi, phi = rng.uniform(0.0, 2.0 * math.pi, size=2)
        origin = [-1.2, height[i] * math.cos(psi), height[i] * math.sin(psi)]
        doc = {
            "spinray_scene": 1,
            "media": [{"region": {"type": "box", "min": [-3, -3, -3], "max": [3, 3, 3]},
                       "field": _LENS}],
            "interfaces": [],
            "sources": [{"origin": origin, "direction": _direction(tilt[i], phi, 0),
                         "p": float(color[i]), "s": 1.0 if i % 2 == 0 else -1.0}],
            "limits": {"max_path_length": float(length[i]), "max_interface_events": 0},
        }
        scene = _write_json(work / f"grin_{i:02d}.json", doc)
        wl.scenes.append(scene)
        for model in GRIN_MODELS:
            wl.ops.append(Op("trace", ("trace", "--scene", scene, "--source", "0",
                                       "--model", model, "--step", repr(GRIN_STEP)),
                             scene=scene, model=model))
    return wl


# Layer indices of a stack, bottom to top, before jitter.  Rays leave a
# dense bottom medium (index near 1.75) at 15 to 60 degrees, so the
# low-index layers total-reflect the steeper rays: about 40% at the
# second layer, more at the sixth and the top.  A fixed order keeps the
# share of rays reaching each interface, and so the work of a trace, the
# same from seed to seed.
_LAYER_INDEX = (1.5, 1.2, 1.7, 1.3, 1.9, 1.1)


def _stack_doc(rng: np.random.Generator, n_layers: int) -> dict:
    """Thin constant-index layers on z in [0, top], between two half-spaces.

    The seed jitters each index by up to 0.05 and each thickness by up
    to 10% around 0.09.  Above the stack the index is 1.  Every index is
    positive: the runner cannot leave a left-handed medium, and a
    constant field rejects a negative index.
    """
    n_below = float(rng.uniform(1.7, 1.8))
    thick = 0.09 * (1.0 + _lerp(-0.1, 0.1, rng.uniform(size=n_layers)))
    index = np.array(_LAYER_INDEX[:n_layers]) + _lerp(-0.05, 0.05, rng.uniform(size=n_layers))
    tops = np.cumsum(thick)
    bottoms = tops - thick
    media = [{"region": {"type": "half_space", "normal": [0, 0, 1], "offset": 0.0},
              "field": {"type": "constant", "n0": n_below}}]
    interfaces = []
    below = n_below
    for lo, hi, n in zip(bottoms, tops, index):
        media.append({"region": {"type": "box", "min": [-20, -20, float(lo)],
                                 "max": [20, 20, float(hi)]},
                      "field": {"type": "constant", "n0": float(n)}})
        interfaces.append({"normal": [0, 0, 1], "anchor": [0, 0, float(lo)],
                           "n1": below, "n2": float(n)})
        below = float(n)
    top = float(tops[-1])
    media.append({"region": {"type": "half_space", "normal": [0, 0, -1], "offset": -top},
                  "field": {"type": "constant", "n0": 1.0}})
    interfaces.append({"normal": [0, 0, 1], "anchor": [0, 0, top], "n1": below, "n2": 1.0})
    return {"spinray_scene": 1, "media": media, "interfaces": interfaces}


def _stack_sources(rng: np.random.Generator, n: int, p_range=(1.0, 3.0)) -> list[dict]:
    """Sources just below the stack at oblique incidence, random azimuth,
    alternating helicity."""
    tilt = _lerp(math.radians(15.0), math.radians(60.0), _strata(rng, n))
    color = _lerp(*p_range, _strata(rng, n))
    depth = _lerp(0.01, 0.05, _strata(rng, n))
    out = []
    for i in range(n):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        out.append({"origin": [0.0, 0.0, -float(depth[i])],
                    "direction": _direction(tilt[i], phi, 2),
                    "p": float(color[i]), "s": 1.0 if i % 2 == 0 else -1.0})
    return out


def slab_stack(seed: int, work: Path, n_sources: int = 26) -> Workload:
    """One seeded stack of thin layers, crossed by each source under the
    spinless and full models.

    As in grin_fan, each source has its own path length (and so its own
    scene file around the same stack), which spreads op latencies
    continuously instead of clustering them by crossing count.
    """
    rng = np.random.default_rng([seed, 2])
    wl = Workload("slab_stack", seed, work_unit="committed RK4 steps")
    stack = _stack_doc(rng, n_layers=len(_LAYER_INDEX))
    sources = _stack_sources(rng, n_sources)
    length = _lerp(0.2, 0.6, _strata(rng, n_sources))
    for i, src in enumerate(sources):
        doc = dict(stack, sources=[src],
                   limits={"max_path_length": float(length[i]), "max_interface_events": 64})
        scene = _write_json(work / f"slab_{i:02d}.json", doc)
        wl.scenes.append(scene)
        for model in SLAB_MODELS:
            wl.ops.append(Op("trace", ("trace", "--scene", scene, "--source", "0",
                                       "--model", model, "--step", repr(SLAB_STEP)),
                             scene=scene, model=model))
    return wl


def _index_ratio(rng: np.random.Generator) -> float:
    """n2/n1 in [0.4, 2.5] or [-2.5, -0.4]: below 1 gives total reflection
    at steep incidence, negative gives a left-handed medium."""
    r = float(rng.uniform(0.4, 2.5))
    return -r if rng.uniform() < 0.3 else r


def hall_sweep(seed: int, work: Path, n_specs: int = 64) -> Workload:
    """Sweep specs cycling over the four swept parameters.

    Ranges avoid inputs the sweep reports as row errors: index-ratio
    sweeps never cross zero, angles stay below 85 degrees.  Spin sweeps
    run over a symmetric range so that each row has its mirror-spin
    partner for the oddness check.
    """
    rng = np.random.default_rng([seed, 3])
    wl = Workload("hall_sweep", seed, work_unit="sweep rows")
    params = ("incidence_angle", "index_ratio", "color", "spin")
    per_param = -(-n_specs // len(params))
    counts = np.concatenate([np.rint(_lerp(6, 30, _strata(rng, per_param))).astype(int)
                             for _ in params])
    for i in range(n_specs):
        parameter = params[i % len(params)]
        count = int(counts[(i % len(params)) * per_param + i // len(params)])
        n1 = float(rng.uniform(1.0, 1.5))
        base = {"n1": n1, "n2": n1 * _index_ratio(rng),
                "theta1_deg": float(rng.uniform(10.0, 70.0)),
                "p": float(rng.uniform(0.5, 3.0)), "s": 1.0}
        if parameter == "incidence_angle":
            start, stop = float(rng.uniform(0.0, 30.0)), float(rng.uniform(50.0, 85.0))
        elif parameter == "index_ratio":
            start, stop = sorted(abs(_index_ratio(rng)) for _ in range(2))
            if rng.uniform() < 0.3:
                start, stop = -stop, -start
        elif parameter == "color":
            start, stop = float(rng.uniform(0.2, 1.0)), float(rng.uniform(2.0, 6.0))
        else:
            stop = float(rng.uniform(0.5, 2.0))
            start = -stop
        doc = {"spinray_sweep": 1, "parameter": parameter, "start": start, "stop": stop,
               "count": count, "base": base}
        spec = _write_json(work / f"sweep_{i:02d}.json", doc)
        wl.specs.append(spec)
        wl.ops.append(Op("sweep", ("sweep", "--spec", spec), spec=spec))
    return wl


def check_suite(seed: int, work: Path, n_scenes: int = 40) -> Workload:
    """`check --seed` with the built-in suite, then `check --scene` on
    small generated stack scenes.

    The built-in suite is one op of about 1.4 s; the scene checks are
    many short ops, so a run holds enough ops for a tail percentile.
    """
    rng = np.random.default_rng([seed, 4])
    wl = Workload("check_suite", seed, work_unit="checks executed")
    check_seed = int(rng.integers(0, 2**31 - 1))
    wl.ops.append(Op("check", ("check", "--seed", str(check_seed)), expect_checks=12))
    length = _lerp(0.1, 0.3, _strata(rng, n_scenes))
    sources = _stack_sources(rng, n_scenes)
    for i in range(n_scenes):
        doc = _stack_doc(rng, n_layers=3)
        doc["sources"] = [sources[i]]
        doc["limits"] = {"max_path_length": float(length[i]), "max_interface_events": 32}
        scene = _write_json(work / f"check_{i:02d}.json", doc)
        wl.scenes.append(scene)
        wl.ops.append(Op("check", ("check", "--scene", scene), scene=scene,
                         model="full", expect_checks=1))
    return wl


BUILDERS = {
    "grin_fan": grin_fan,
    "slab_stack": slab_stack,
    "hall_sweep": hall_sweep,
    "check_suite": check_suite,
}

# Sizes for the smoke test: a handful of ops per workload.
TINY = {"grin_fan": 2, "slab_stack": 3, "hall_sweep": 6, "check_suite": 2}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    if tiny:
        return BUILDERS[name](seed, work, TINY[name])
    return BUILDERS[name](seed, work)
