"""Time one set-up: import spinray, then parse the given scenes and specs.

Run in a fresh interpreter as

    python3 perfbench/setup_time.py SRC_DIR [scene:PATH | sweep:PATH]...

It prints the elapsed seconds and then calibration.scale(), taken after
the set-up so that the timed import still loads numpy.  run.py starts it
several times and reports the median of the scaled times as `setup_s`.
"""

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> None:
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    import spinray

    for item in argv[1:]:
        kind, path = item.split(":", 1)
        text = Path(path).read_text()
        if kind == "scene":
            spinray.parse_scene(text, base_dir=Path(path).parent)
        else:
            spinray.parse_sweep(text)
    elapsed = time.perf_counter() - start
    import calibration

    calibration.loop_time()  # the first call pays one-time costs
    print(repr(elapsed), repr(0.5 * (calibration.scale() + calibration.scale())))


if __name__ == "__main__":
    main(sys.argv[1:])
