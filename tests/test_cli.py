import json
import subprocess
import sys

import pytest

from spinray.cli import build_parser, main

from conftest import two_media_doc

RUN = [sys.executable, "-m", "spinray"]


def run_cli(*args, **kwargs):
    return subprocess.run([*RUN, *args], capture_output=True, text=True, **kwargs)


@pytest.fixture
def scene_path(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(two_media_doc()))
    return str(path)


def test_trace_prints_a_document(scene_path):
    proc = run_cli("trace", "--scene", scene_path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["spinray_trace"] == 1
    assert doc["model"] == "full_spin"
    modes = [e["mode"] for e in doc["events"] if e["type"] == "scatter"]
    assert modes == ["refraction"]


def test_trace_model_and_out_file(scene_path, tmp_path):
    out = tmp_path / "trace.json"
    proc = run_cli("trace", "--scene", scene_path, "--model", "spinless",
                   "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["model"] == "spinless_fermat"


def test_trace_bad_source_index(scene_path):
    proc = run_cli("trace", "--scene", scene_path, "--source", "9")
    assert proc.returncode == 2
    assert "spinray: input error:" in proc.stderr


def test_trace_missing_scene_file(tmp_path):
    proc = run_cli("trace", "--scene", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert "spinray: input error:" in proc.stderr


def test_trace_malformed_scene(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run_cli("trace", "--scene", str(path))
    assert proc.returncode == 2


def test_trace_degenerate_kernel_is_a_numerical_error(tmp_path):
    # n = 1 + z with a transverse unit-spin ray at the n = 1 level is the
    # exact degeneracy of the full-spin kernel
    doc = {
        "spinray_scene": 1,
        "media": [{
            "region": {"type": "box", "min": [-2, -2, -0.5], "max": [2, 2, 0.5]},
            "field": {"type": "linear_gradient", "n0": 1.0, "gradient": [0, 0, 1.0]},
        }],
        "interfaces": [],
        "sources": [{"origin": [0, 0, 0], "direction": [1, 0, 0], "p": 1.0, "s": 1.0}],
        "limits": {"max_path_length": 2.0, "max_interface_events": 2},
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("trace", "--scene", str(path))
    assert proc.returncode == 3
    assert "spinray: numerical error: DegenerateKernelError" in proc.stderr
    assert "arc parameter" in proc.stderr


def test_sweep_csv_is_byte_deterministic(tmp_path):
    spec = {"spinray_sweep": 1, "parameter": "incidence_angle",
            "start": 5.0, "stop": 85.0, "count": 9}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    a = run_cli("sweep", "--spec", str(path))
    b = run_cli("sweep", "--spec", str(path))
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    header = a.stdout.splitlines()[0]
    assert header.startswith("param,theta1_deg,theta2_deg,s1,s2,mode,")
    assert len(a.stdout.splitlines()) == 1 + 2 * 9


def test_sweep_out_file(tmp_path):
    spec = {"spinray_sweep": 1, "parameter": "color",
            "start": 1.0, "stop": 2.0, "count": 2}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    proc = run_cli("sweep", "--spec", str(path), "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text().startswith("param,")


def test_check_builtin_suite(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("check", "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["spinray_check"] == 1
    assert report["passed"] is True
    assert report["n_checks"] == 12
    lines = [ln for ln in proc.stderr.splitlines() if ln.startswith(("pass", "FAIL"))]
    assert len(lines) == 12
    assert all(ln.startswith("pass") for ln in lines)
    assert any("symplectomorphism" in ln for ln in lines)


def test_check_corrupt_rho_fails(tmp_path):
    proc = run_cli("check", "--corrupt-rho", "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 1
    fails = [ln for ln in proc.stderr.splitlines() if ln.startswith("FAIL")]
    assert len(fails) == 1
    assert "symplectomorphism" in fails[0]


def test_check_scene_suite(scene_path, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("check", "--scene", scene_path, "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "scene"
    assert report["checks"][0]["name"] == "trace-conservation[source=0]"


def test_check_empty_scene_warns(tmp_path):
    doc = two_media_doc()
    doc["sources"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    proc = run_cli("check", "--scene", str(path), "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert "no checks executed" in report["warning"]
    assert "warning" in proc.stderr


def test_curvature_report(scene_path):
    proc = run_cli("curvature", "--scene", scene_path, "--at", "0,0,-0.5")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["spinray_curvature"] == 1
    assert doc["n"] == 1.0
    assert doc["scalar"] == 0.0
    assert doc["ricci"] == [[0.0] * 3] * 3


def test_curvature_bad_point(scene_path):
    proc = run_cli("curvature", "--scene", scene_path, "--at", "0,0")
    assert proc.returncode == 2
    # the seam z = 0 is interior to neither half space
    proc = run_cli("curvature", "--scene", scene_path, "--at", "0.3,0,0")
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("trace", "--step", "0"),
    ("trace", "--step", "-1"),
    ("trace", "--step", "nan"),
    ("trace", "--step", "inf"),
    ("curvature", "--at", "nan,0,0"),
], ids=["step-0", "step-negative", "step-nan", "step-inf", "at-nan"])
def test_non_finite_or_non_positive_input_is_an_input_error(scene_path, args):
    proc = run_cli(args[0], "--scene", scene_path, *args[1:])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("spinray")


def test_no_subcommand_is_an_error():
    proc = run_cli()
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("trace", "--scene", "SCENE", "--step", "0"),
    ("trace", "--scene", "SCENE", "--model", "warp"),
    ("trace", "--scene", "SCENE", "--source", "one"),
    (),
], ids=["step-0", "unknown-model", "non-integer-source", "no-subcommand"])
def test_usage_errors_print_one_line(scene_path, args):
    proc = run_cli(*(scene_path if a == "SCENE" else a for a in args))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("spinray: input error: ")


def test_repeated_in_process_calls_give_identical_output(scene_path, capsys):
    assert build_parser() is build_parser()
    for args in (["trace", "--scene", scene_path, "--model", "general", "--step", "0.05"],
                 ["trace", "--scene", scene_path, "--source", "3"],
                 ["check", "--scene", scene_path],
                 ["curvature", "--scene", scene_path, "--at", "0,0,-0.5"]):
        first = (main(args), capsys.readouterr())
        assert (main(args), capsys.readouterr()) == first
    # documents are compact JSON: one line, keys sorted
    assert main(["trace", "--scene", scene_path]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
