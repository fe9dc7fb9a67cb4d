"""resourcekit benchmark driver.

    python3 perfbench/run.py --workload {certify,coherence,correlation} \\
        --seed N --seconds S --trace {0,1}

Single process, single thread, closed loop: the next operation is issued
only after the previous one returned and its output was checked.  Run it
from the root of a checkout; the library is imported from that checkout's
``src``, and the run fails (exit code 2, no result) when it is absent.

``--trace 0`` sets up several times (here and in fresh interpreters) and
reports the median as ``setup_s``, then runs the workload for at least
``--seconds`` of library time and prints the end-to-end metrics.  Their
timings are taken at reference speed: each wall time is divided by the
host's slowdown, measured with a fixed reference computation run next to
it (see ``harness.REFERENCE_SECONDS``); the raw wall times are printed in
the ``info`` line.
``--trace 1`` runs every operation of one pass twice, plain and with span
wrappers installed, writes the spans to ``perfbench/traces/`` as JSON
lines, runs the kernel sweep and prints the per-layer metrics, among them
the tracing overhead.  Either way the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

WORKLOADS = ("certify", "coherence", "correlation")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds at reference "
                             "speed (used for setup_s)")
    args = parser.parse_args(argv)

    harness.pin_environment()
    try:
        if args.setup_only:
            print(repr(harness.setup(args.workload, args.seed).scaled))
            return 0
        if args.trace:
            outcome, metrics, info, ok = harness.run_traced(args.workload, args.seed)
        else:
            outcome, metrics, info, ok = harness.run_untraced(
                args.workload, args.seed, args.seconds)
    except harness.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info.update(harness.provenance(args.workload, args.seed,
                                   {"trace": args.trace, "seconds": args.seconds}))
    harness.print_table(metrics, info)
    print(json.dumps({"correct": bool(ok and outcome.failed == 0),
                      "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": harness.as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
