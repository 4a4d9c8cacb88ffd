"""The serve-mixed server: a warm q3 session behind ``repro.serve``.

Started by ``scenarios.serve_mixed`` as its own process.  It repeats the
session set-up like every workload does, serves the last session, and
prints one JSON line ``{"port", "setup_s", "setup_calibration_s",
"setup_rss_mb"}``.  Then it
reads commands on stdin: ``trace on`` and ``trace off`` start and stop
recording spans; ``calibrate <seconds>`` runs the reference kernel of
``calibrate.py`` for that long and prints ``{"calibration_s": [...]}``;
``stop`` (or end of input) shuts the server down and prints
``{"peak_rss_mb", "spans"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Exit on our own if the driving benchmark never says stop.
WATCHDOG_S = 170.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--core", type=int, default=-1, help="core to pin to (-1: none)")
    args = parser.parse_args()
    if args.core >= 0:
        os.sched_setaffinity(0, {args.core})

    import scenarios
    from calibrate import Calibrator
    from repro.serve.server import SessionServer
    from spans import Tracer

    watchdog = threading.Timer(WATCHDOG_S, os._exit, args=(3,))
    watchdog.daemon = True
    watchdog.start()

    tracer = Tracer()
    if args.trace:
        tracer.install()
    session, setup_s, setup_calibration_s = scenarios.repeat_setup(
        lambda: scenarios.warm_q3_session(args.scale, args.seed)
    )
    server = SessionServer(session).start_background()
    hello = {
        "port": server.port,
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration_s,
        "setup_rss_mb": scenarios.peak_rss_mb(),
    }
    print(json.dumps(hello), flush=True)
    calibrator = Calibrator()
    for line in sys.stdin:
        command = line.strip()
        if command in ("trace on", "trace off"):
            tracer.enabled = command == "trace on"
        elif command.startswith("calibrate "):
            calibrator.samples = []
            calibrator.run(float(command.split()[1]))
            print(json.dumps({"calibration_s": calibrator.samples}), flush=True)
        elif command == "stop":
            break
    tracer.enabled = False
    server.stop()
    session.close()
    print(
        json.dumps({"peak_rss_mb": scenarios.peak_rss_mb(), "spans": tracer.spans}),
        flush=True,
    )


if __name__ == "__main__":
    main()
