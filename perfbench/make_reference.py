"""Write the committed reference outputs for the default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one round of each workload (all four by default) at the default
seed, checks every output as run.py does, and writes
reference/<workload>.json.  Regenerate a reference only for a change
that is meant to change the program's outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import verify
import workloads


def main(names: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    import spinray
    from spinray import cli

    verify.REFERENCE_DIR.mkdir(exist_ok=True)
    run.WORK_DIR.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        work = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
        try:
            wl = workloads.build(name, run.DEFAULT_SEED, work)
            scenes = {s: spinray.parse_scene(Path(s).read_text()) for s in wl.scenes}
            specs = {s: spinray.parse_sweep(Path(s).read_text()) for s in wl.specs}
            first = run.run_round(wl, cli, work / "op.out")
            problems = run.op_problems(wl, first, scenes, specs)
            if any(problems):
                print(f"{name}: outputs fail their checks, no reference written: {problems}",
                      file=sys.stderr)
                return 1
            # Twelve significant digits keep the file small and sit far
            # inside the 1e-9 comparison tolerance.
            ops = [[float(f"{v:.12g}") if isinstance(v, float) else v
                    for v in verify.digest(op, r.text)] for op, r in zip(wl.ops, first)]
            doc = {"workload": name, "seed": run.DEFAULT_SEED, "ops": ops}
            path = verify.REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
            print(f"wrote {path} ({len(wl.ops)} ops)")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
