"""One benchmark pass in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the sources under
test. Times ``import mixlab`` from the moment the parent spawned this
process, then (unless ``--setup-only``) runs one workload's CLI calls back
to back through ``mixlab.cli.main``, optionally traced, harvests their
outputs and writes everything as JSON to ``--out``.
"""

import time

import mixlab
from mixlab import cli

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402  (after the timed import on purpose)
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from workloads import harvest, plan  # noqa: E402


def _call(argv, tracer):
    """Exit code of one CLI call; a crash is a failed call, not a failed
    benchmark."""
    try:
        if tracer is None:
            return cli.main(argv)
        with tracer.span("cli." + argv[0].replace("-", "_")):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc()
        return "exception"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--work", help="directory for the CLI outputs")
    args = p.parse_args()

    result = {"setup_s": IMPORTED_AT - args.spawned_at,
              "versions": {"mixlab": mixlab.__version__,
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer, install, layer_metrics
            tracer = Tracer()
            install(tracer)
        shutil.rmtree(args.work, ignore_errors=True)
        calls = plan(args.workload, args.seed, args.work)
        rcs = []
        t0 = time.perf_counter()
        for argv, _ in calls:
            rcs.append(_call(argv, tracer))
        wall_s = time.perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(wall_s=wall_s, peak_rss_mb=rss, calls=[
            {"argv": argv, "rc": rc, "expected": expected,
             "ops": harvest(argv)}
            for (argv, expected), rc in zip(calls, rcs)])
        if tracer is not None:
            result["layers"] = layer_metrics(tracer.spans, wall_s)
            result["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
