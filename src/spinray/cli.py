"""Command line front end.

Subcommands: trace (event list of one source, JSON), sweep (parameter
sweep table, CSV), check (verification suites, JSON report), curvature
(field and curvature dump at a point, JSON).  Exit codes: 0 success,
1 check failure, 2 input error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .checks import builtin_checks, report_from_results, scene_checks
from .curvature import christoffel
from .errors import SceneError, SpinrayError
from .fields import velocity_data
from .runner import run_sweep, run_trace
from .scene import parse_scene, parse_sweep

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _load_scene(path: str):
    p = Path(path)
    return parse_scene(p.read_text(), base_dir=p.parent)


def _write(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _cmd_trace(args) -> int:
    scene = _load_scene(args.scene)
    result = run_trace(scene, args.source, model=args.model, step=args.step)
    _write(_json(result.to_doc()), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = parse_sweep(Path(args.spec).read_text())
    _, csv_text = run_sweep(spec)
    _write(csv_text, args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.scene is not None:
        scene = _load_scene(args.scene)
        results = scene_checks(scene)
        suite = "scene"
    else:
        results = builtin_checks(seed=args.seed, corrupt_rho=args.corrupt_rho)
        suite = "builtin"
    report = report_from_results(suite, args.seed, results)
    _write(_json(report), args.out)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name}  residual {r.max_residual:.3e}  tolerance {r.tolerance:.3e}",
              file=sys.stderr)
    if "warning" in report:
        print(f"warning: {report['warning']}", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _cmd_curvature(args) -> int:
    scene = _load_scene(args.scene)
    try:
        at = [float(tok) for tok in args.at.split(",")]
    except ValueError as exc:
        raise SceneError(f"--at must be x,y,z with numeric entries: {exc}") from exc
    if len(at) != 3:
        raise SceneError("--at must have exactly three comma-separated coordinates")
    if not all(map(math.isfinite, at)):
        raise SceneError(f"--at entries must be finite, got {args.at}")
    idx = scene.medium_at(at)
    if idx is None:
        raise SceneError(f"point {at} is not inside exactly one medium region")
    field = scene.media[idx].field
    vd = velocity_data(field, at)
    curv = christoffel(field, at)
    doc = {
        "spinray_curvature": 1,
        "at": at,
        "medium": idx,
        "n": vd.n,
        "grad_n": vd.grad_n.tolist(),
        "v": vd.v,
        "g": vd.g.tolist(),
        "dg": vd.dg.tolist(),
        "div_g": vd.div_g,
        "christoffel": curv.gamma.tolist(),
        "ricci": curv.ricci.tolist(),
        "scalar": curv.scalar,
        "metric": curv.metric.tolist(),
    }
    _write(_json(doc), args.out)
    return EXIT_OK


def _positive_step(text: str) -> float:
    try:
        step = float(text)
    except ValueError:
        step = math.nan
    if not (math.isfinite(step) and step > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return step


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a SceneError, which main prints as one line."""

    def error(self, message: str):
        raise SceneError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinray",
        description="Trace colored, spinning light rays through gradient media "
        "and scatter them at planar interfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="trace one source through a scene (JSON events)")
    p_trace.add_argument("--scene", required=True, help="scene JSON file")
    p_trace.add_argument("--source", type=int, default=0, help="source index (default 0)")
    p_trace.add_argument("--out", default="-", help="output file, '-' for stdout")
    p_trace.add_argument(
        "--model",
        default="full",
        choices=["spinless", "full", "linearized", "general"],
        help="transport model (default full)",
    )
    p_trace.add_argument("--step", type=_positive_step, default=0.01, help="integration step")
    p_trace.set_defaults(fn=_cmd_trace)

    p_sweep = sub.add_parser("sweep", help="single-interface parameter sweep (CSV)")
    p_sweep.add_argument("--spec", required=True, help="sweep JSON file")
    p_sweep.add_argument("--out", default="-", help="output file, '-' for stdout")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_check = sub.add_parser("check", help="run verification suites (JSON report)")
    p_check.add_argument("--scene", default=None, help="check a scene file instead")
    p_check.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p_check.add_argument(
        "--corrupt-rho",
        action="store_true",
        help="debug: break the Hall term; the symplectomorphism check must then fail",
    )
    p_check.add_argument("--out", default="-", help="report file, '-' for stdout")
    p_check.set_defaults(fn=_cmd_check)

    p_curv = sub.add_parser("curvature", help="dump velocity and curvature data at a point")
    p_curv.add_argument("--scene", required=True, help="scene JSON file")
    p_curv.add_argument("--at", required=True, help="point as x,y,z")
    p_curv.add_argument("--out", default="-", help="output file, '-' for stdout")
    p_curv.set_defaults(fn=_cmd_curvature)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (SceneError, OSError, json.JSONDecodeError) as exc:
        print(f"spinray: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SpinrayError as exc:
        print(f"spinray: numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
