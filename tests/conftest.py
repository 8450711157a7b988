"""Shared fixtures: deterministic rng and a standard two-media scene."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

# The CLI and demo tests run `python -m spinray` and the demo scripts in
# subprocesses; they import the package from this checkout's src/.
SRC = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def two_media_doc(n1=1.0, n2=1.5, theta1_deg=30.0, p=1.0, s=1.0,
                  max_path_length=6.0, max_interface_events=4):
    """Flat interface at z = 0 with a source aimed at it from below."""
    th = math.radians(theta1_deg)
    return {
        "spinray_scene": 1,
        "media": [
            {"region": {"type": "half_space", "normal": [0, 0, 1], "offset": 0.0},
             "field": {"type": "constant", "n0": n1}},
            {"region": {"type": "half_space", "normal": [0, 0, -1], "offset": 0.0},
             "field": {"type": "constant", "n0": n2}},
        ],
        "interfaces": [
            {"normal": [0, 0, 1], "anchor": [0, 0, 0], "n1": n1, "n2": n2}
        ],
        "sources": [
            {"origin": [0, 0, -1.0], "direction": [math.sin(th), 0, math.cos(th)],
             "p": p, "s": s}
        ],
        "limits": {"max_path_length": max_path_length,
                   "max_interface_events": max_interface_events},
    }


@pytest.fixture
def scene_doc():
    return two_media_doc()


@pytest.fixture
def scene_file(tmp_path, scene_doc):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene_doc, indent=2))
    return path
