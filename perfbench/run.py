"""Benchmark of spinray through its command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/.
Inputs come from workloads.py, written from the seed into a scratch
directory under the checkout.  One client runs the ops in a closed loop,
single-threaded, in this process: each op calls `spinray.cli.main` with
the arguments a user would type and starts only after the previous op
returned.  Whole rounds of the op list run until S seconds of op time
have passed, and at least three, so every run measures the same mix.
Every reported time is scaled to a reference machine speed with
calibration.py.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds for S seconds, then probes the layer functions the
workload never called, and reports the per-layer metrics of
layer_metrics.py with the tracing overhead.  Every op's output is
checked (verify.py) outside the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibration
import layer_metrics
import verify
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
MIN_ROUNDS = 3
DEFAULT_SEED = 0
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "work_per_s": "1/s",
}


@dataclass
class OpRun:
    latency: float
    exit_code: int | None
    text: str
    error: str
    # calibration.scale(), the mean of one taken just before and one just
    # after the op
    scale: float
    # the op's spans, when traced: tracer indices [span_start, span_stop)
    span_start: int = 0
    span_stop: int = 0


def run_round(wl, cli, out: Path, tracer: Tracer | None = None) -> list[OpRun]:
    runs = []
    for op in wl.ops:
        argv = [*op.args, "--out", str(out)]
        err = io.StringIO()
        scale_before = calibration.scale()
        span_start = len(tracer) if tracer is not None else 0
        with contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit):
                code = None
                traceback.print_exc()
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        text = out.read_text() if out.exists() else ""
        out.unlink(missing_ok=True)
        scale = 0.5 * (scale_before + calibration.scale())
        span_stop = len(tracer) if tracer is not None else 0
        runs.append(OpRun(latency, code, text, err.getvalue(), scale, span_start, span_stop))
    return runs


def measure(wl, cli, out: Path, seconds: float, after_round=None) -> list[list[OpRun]]:
    """Whole rounds until `seconds` of op time, and at least MIN_ROUNDS."""
    rounds = []
    op_time = 0.0
    while len(rounds) < MIN_ROUNDS or op_time < seconds:
        rounds.append(run_round(wl, cli, out))
        op_time += sum(r.latency for r in rounds[-1])
        if after_round is not None:
            after_round()
    return rounds


def time_setup(wl) -> float:
    """One set-up in a fresh interpreter: import spinray, parse every input.

    Returns its time scaled to the reference speed."""
    items = [f"scene:{s}" for s in wl.scenes] + [f"sweep:{s}" for s in wl.specs]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_time.py")), str(SRC), *items],
        capture_output=True, text=True, check=True, timeout=120)
    seconds, scale = proc.stdout.split()
    return float(seconds) * float(scale)


def op_problems(wl, first: list[OpRun], scenes: dict, specs: dict) -> list[list[str]]:
    """Problems of each op's output in the first round."""
    problems = []
    for op, run in zip(wl.ops, first):
        if run.exit_code is None:
            problems.append([f"raised: {run.error.strip().splitlines()[-1:]}"])
            continue
        if op.kind != "check" and run.exit_code != 0:
            problems.append([f"exit code {run.exit_code}: {run.error.strip()}"])
            continue
        try:
            if op.kind == "trace":
                problems.append(verify.check_trace(op, run.text, scenes[op.scene]))
            elif op.kind == "sweep":
                problems.append(verify.check_sweep(run.text, specs[op.spec]))
            else:
                problems.append(verify.check_check(op, run.text, run.exit_code))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append([f"unreadable output: {type(exc).__name__}: {exc}"])
    if wl.name == "grin_fan":
        by_scene = {}
        for k, op in enumerate(wl.ops):
            by_scene.setdefault(op.scene, {})[op.model] = k
        for pair in by_scene.values():
            full, general = pair["full"], pair["general"]
            if not problems[full] and not problems[general]:
                problems[general] += verify.check_model_tower(first[full].text,
                                                              first[general].text)
    return problems


def negative_controls(wl, first: list[OpRun], problems: list[list[str]], scenes: dict,
                      specs: dict, cli, out: Path) -> dict[str, bool]:
    """Deliberately wrong outputs, each of which the checks must reject.

    Each control is made from an op whose own output passed.  Returns
    control name -> whether it was counted as failed.
    """
    good = [k for k in range(len(wl.ops)) if not problems[k]]
    found: dict[str, bool] = {}
    if wl.name == "grin_fan":
        pairs = [(k, j) for k in good for j in good if wl.ops[k].model == "full"
                 and wl.ops[j].model == "general" and wl.ops[j].scene == wl.ops[k].scene]
        if pairs:
            full, general = pairs[0]
            doc = json.loads(first[general].text)
            doc["events"][-1]["end"]["x"][0] += 1e-4
            found["general trace end moved by 1e-4"] = bool(
                verify.check_model_tower(first[full].text, json.dumps(doc)))
    elif wl.name == "slab_stack":
        for k in good:
            flipped = verify.flip_first_shift_trace(first[k].text)
            if flipped is not None:
                found["trace with its shift sign flipped"] = bool(
                    verify.check_trace(wl.ops[k], flipped, scenes[wl.ops[k].scene]))
                break
    elif wl.name == "hall_sweep":
        for k in good:
            flipped = verify.flip_first_shift_sweep(first[k].text)
            if flipped is not None:
                found["sweep row with its shift sign flipped"] = bool(
                    verify.check_sweep(flipped, specs[wl.ops[k].spec]))
                break
    else:
        op = wl.ops[0]
        corrupt = workloads.Op("check", (*op.args, "--corrupt-rho"), expect_checks=12)
        run = run_round(workloads.Workload("control", wl.seed, [corrupt]), cli, out)[0]
        found["check --corrupt-rho"] = run.exit_code is not None and bool(
            verify.check_check(corrupt, run.text, run.exit_code))
    if not found:
        found["control (no op output to build it from)"] = False
    return found


def work_items(op, text: str) -> int:
    """Committed RK4 steps of a trace, rows of a sweep, checks of a check."""
    if op.kind == "trace":
        return sum(e["n_steps"] for e in json.loads(text)["events"] if e["type"] == "segment")
    if op.kind == "sweep":
        return text.count("\n") - 1
    return json.loads(text)["n_checks"]


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten of n samples beyond it."""
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return TAIL_PERCENTILES[-1]


def scaled_latencies(rounds: list[list[OpRun]]) -> np.ndarray:
    """Latency of each op of each round, scaled to the reference speed."""
    return np.array([[r.latency * r.scale for r in rnd] for rnd in rounds])


def end_to_end(wl, rounds: list[list[OpRun]], problems: list[list[str]], setup: list[float],
               report: list[str]) -> dict:
    """End-to-end metrics from the scaled latencies of every op run.

    The tail percentile is fixed per workload by its smallest run, so
    that it does not move with the number of rounds a run fits in.
    """
    raw = np.array([[r.latency for r in rnd] for rnd in rounds])
    lat = scaled_latencies(rounds)
    op_time = float(lat.sum())
    items = np.array([0 if bad else work_items(op, run.text)
                      for op, run, bad in zip(wl.ops, rounds[0], problems)])
    q = tail_percentile(len(wl.ops) * MIN_ROUNDS)
    tail = float(np.percentile(lat, q))
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ms_p50": float(np.median(lat)) * 1e3,
        "op_ms_tail": tail * 1e3,
        "ops_per_s": lat.size / op_time,
        "work_per_s": float(items.sum()) * len(rounds) / op_time,
    }
    report.append(f"setup_s      {metrics['setup_s']:.4f} s  (median of {len(setup)} set-ups)")
    report.append(f"op_ms_p50    {metrics['op_ms_p50']:.3f} ms  ({lat.size} ops; unscaled "
                  f"{np.median(raw) * 1e3:.3f} ms)")
    report.append(f"op_ms_tail   {metrics['op_ms_tail']:.3f} ms  (p{q:g} of {lat.size} ops, "
                  f"{int(np.sum(lat > tail))} beyond it; unscaled "
                  f"{np.percentile(raw, q) * 1e3:.3f} ms)")
    report.append(f"ops_per_s    {metrics['ops_per_s']:.3f} 1/s  (unscaled "
                  f"{raw.size / raw.sum():.3f} 1/s)")
    report.append(f"work_per_s   {metrics['work_per_s']:.1f} 1/s  ({wl.work_unit})")
    per_op = lat.sum(axis=0)
    if wl.name in ("grin_fan", "slab_stack"):
        for model in workloads.GRIN_MODELS:
            ks = [k for k, op in enumerate(wl.ops) if op.model == model]
            if ks:
                rate = float(items[ks].sum() * len(rounds) / per_op[ks].sum())
                report.append(f"steps_per_s.{model:<10} {rate:.1f} 1/s")
    if wl.name == "hall_sweep":
        report.append(f"rows_per_s   {metrics['work_per_s']:.1f} 1/s")
    report.append("round op times " + " ".join(f"{t:.3f}" for t in raw.sum(axis=1))
                  + " s unscaled, machine speed factors " + " ".join(
                      f"{f:.2f}" for f in np.median(lat / raw, axis=1)))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a handful of ops, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "spinray" / "__init__.py").is_file():
        print(f"perfbench: no spinray package under {SRC}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def run(args, work: Path) -> int:
    tiny = args.size == "tiny"
    wl = workloads.build(args.workload, args.seed, work, tiny=tiny)
    sys.path.insert(0, str(SRC))
    import spinray
    from spinray import cli

    if SRC not in Path(spinray.__file__).resolve().parents:
        print(f"perfbench: imported spinray from {spinray.__file__}, not {SRC}", file=sys.stderr)
        return 2
    scenes = {s: spinray.parse_scene(Path(s).read_text(), base_dir=work) for s in wl.scenes}
    specs = {s: spinray.parse_sweep(Path(s).read_text()) for s in wl.specs}
    out = work / "op.out"
    setup_repeats = 1 if tiny else SETUP_REPEATS
    report = [f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
              f"{len(wl.ops)} ops per round"]

    tracer = None
    if args.trace:
        # Untraced and traced rounds alternate, so that drift in machine
        # speed falls on both sides of the overhead estimate alike.
        plain, traced = [], []
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < args.seconds:
                plain.append(run_round(wl, cli, out))
                traced.append(run_round(wl, cli, out, tracer))
            probe_start = len(tracer)
            called = {tracer.names[i] for i in set(tracer.name)}
            probe_scale = calibration.scale()
            probed = layer_metrics.probe(tracer, args.seed, called)
            probe_scale = 0.5 * (probe_scale + calibration.scale())
        finally:
            tracer.restore()
        overhead = scaled_latencies(traced).sum() / scaled_latencies(plain).sum() - 1.0
        changed = sum(a.text != b.text for rnd in traced for a, b in zip(rnd, plain[0]))
        rounds = plain + traced
    else:
        # Set-ups run in child processes between rounds, so that they
        # sample the machine over the whole run rather than one moment.
        setup = [time_setup(wl)]

        def another_setup() -> None:
            if len(setup) < setup_repeats:
                setup.append(time_setup(wl))

        rounds = measure(wl, cli, out, args.seconds, another_setup)
        while len(setup) < setup_repeats:
            another_setup()

    first = rounds[0]
    problems = op_problems(wl, first, scenes, specs)
    if args.seed == DEFAULT_SEED and not tiny:
        digests = [verify.digest(op, r.text) if r.text else [] for op, r in zip(wl.ops, first)]
        for k, msg in verify.compare_reference(wl.name, digests).items():
            problems[k].append(msg)
    controls = negative_controls(wl, first, problems, scenes, specs, cli, out)

    attempted = failed = 0
    for rnd in rounds:
        for k, op_run in enumerate(rnd):
            attempted += 1
            failed += bool(problems[k]) or (op_run.text, op_run.exit_code) != (
                first[k].text, first[k].exit_code)
    for k, msgs in enumerate(problems):
        for msg in msgs[:3]:
            report.append(f"FAILED op {k} ({' '.join(wl.ops[k].args)}): {msg}")
    report.append(f"fail_ratio   {failed / attempted:.4g}  ({failed} of {attempted} attempted)")
    for name, detected in controls.items():
        report.append(f"negative control: {name}: "
                      f"{'counted as failed' if detected else 'NOT DETECTED'}")
    correct = failed == 0 and all(controls.values())

    if tracer is None:
        metrics = end_to_end(wl, rounds, problems, setup, report)
        units = END_TO_END
    else:
        spans = tracer.arrays()
        # each span's time scaled like the op (or probe) it belongs to
        spans["scale"] = np.full(len(spans["t0"]), probe_scale)
        for op_run in (r for rnd in traced for r in rnd):
            spans["scale"][op_run.span_start:op_run.span_stop] = op_run.scale
        SPANS_DIR.mkdir(exist_ok=True)
        np.savez(SPANS_DIR / f"spans_{wl.name}.npz", names=np.array(tracer.names), **spans)
        metrics = layer_metrics.compute(spans, tracer.names, probe_start, len(traced),
                                         overhead)
        units = layer_metrics.PER_LAYER
        report.append(f"tracing: {len(spans['t0'])} spans, {len(traced)} traced rounds, "
                      f"overhead {overhead:.1%} of untraced op time; "
                      f"{changed} traced outputs differ from untraced")
        report.append(f"probed (not called by the workload): {', '.join(probed) or 'none'}")
        for name, value in metrics.items():
            report.append(f"{name:<48} {value:.6g} {units[name]}")
        correct = correct and changed == 0
    print("\n".join(report))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
