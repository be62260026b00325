"""Benchmark harness for mixlab's end-to-end pipeline.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload ed-shear --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all          # every workload in turn
    python3 bench/run.py --write-reference       # re-record seed-0 values

Each pass runs one workload (see ``workloads.py``) in a fresh child
interpreter with one thread per BLAS/OpenMP pool. Passes repeat until the
next one would overrun ``--seconds``. With ``--trace 0`` the last line of
output is a JSON object with the end-to-end metrics (medians over passes);
with ``--trace 1`` each untraced pass is paired with a traced one and the
object holds the per-layer metrics. Every output is checked: against the
stored reference at seed 0, against invariants at every seed. A full
record with provenance is written under ``.bench_work/results/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import UNITS
from workloads import WORKLOADS, check_calls, reference_values

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference_seed0.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 4  # import-only children per run, besides one per pass
TIME_LIMIT = 170.0  # seconds one workload may take, passes and set-up


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _child(args: list, deadline: float) -> dict:
    out = WORK / "child.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--out", str(out), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the pass could start")
    with open(WORK / "child.log", "a") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                                  cwd=ROOT, env=_child_env(), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(
                f"pass exceeded the {TIME_LIMIT:g} s limit") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"child exited with code {proc.returncode}; "
                         f"see {WORK / 'child.log'}")
    with open(out) as fh:
        return json.load(fh)


def _pass_args(workload: str, seed: int, traced: bool) -> list:
    args = ["--workload", workload, "--seed", str(seed),
            "--work", str(WORK / "out")]
    return args + ["--trace"] if traced else args


def _git_commit():
    """HEAD of the checkout's own ``.git``, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(versions: dict) -> dict:
    return {"git_commit": _git_commit(), **versions,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "threads": {var: "1" for var in THREAD_VARS}}


def _load_reference() -> dict:
    if not REFERENCE.exists():
        raise BenchError(f"missing {REFERENCE.name}; run --write-reference")
    with open(REFERENCE) as fh:
        return json.load(fh)["ops"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns the result record."""
    deadline = time.monotonic() + TIME_LIMIT
    reference = _load_reference() if seed == 0 else None
    _child(["--setup-only"], deadline)  # fills the bytecode cache; untimed
    setups = [_child(["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        plain.append(_child(_pass_args(workload, seed, False), deadline))
        if trace:
            traced.append(_child(_pass_args(workload, seed, True), deadline))
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() + longest > start + seconds:
            break

    attempted = failed = 0
    failures = []
    for p in plain + traced:
        a, f, msgs = check_calls(p["calls"], reference)
        attempted += a
        failed += f
        failures += msgs
    wall = statistics.median(p["wall_s"] for p in plain)
    if trace:
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / wall - 1.0)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups + [p["setup_s"]
                                                   for p in plain]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    units = {**UNITS, "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
        "provenance": provenance(plain[0]["versions"]),
        "failures": failures,
        "passes": [{"setup_s": p["setup_s"], "wall_s": p["wall_s"],
                    "peak_rss_mb": p["peak_rss_mb"]} for p in plain],
        "traced_passes": [{"wall_s": p["wall_s"], "layers": p["layers"]}
                          for p in traced],
        "setup_only_s": setups,
        "spans": traced[0]["spans"] if traced else [],
    }


def _summary(rec: dict) -> str:
    m = rec["metrics"]
    parts = [f"{name}={m[name]['value']:.6g} {m[name]['unit']}"
             for name in m]
    frac = rec["failed"] / rec["attempted"]
    return (f"{rec['workload']} seed={rec['seed']} trace={rec['trace']} "
            f"passes={len(rec['passes'])}: " + "  ".join(parts)
            + f"  fail_frac={frac:g} ratio "
              f"({rec['failed']}/{rec['attempted']} operations failed)")


def _save(rec: dict) -> Path:
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    path = results / (f"{rec['workload']}-seed{rec['seed']}"
                      f"-trace{rec['trace']}.json")
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1)
    return path


def write_reference() -> None:
    """Record seed-0 values of every operation, after checking the
    invariants they must satisfy."""
    ops = {}
    versions = None
    deadline = time.monotonic() + TIME_LIMIT
    for workload in WORKLOADS:
        p = _child(_pass_args(workload, 0, False), deadline)
        _, failed, msgs = check_calls(p["calls"], None)
        if failed:
            raise BenchError(f"{workload}: invariants fail at seed 0, "
                             "not recording:\n" + "\n".join(msgs))
        ops.update({op["id"]: reference_values(op)
                    for call in p["calls"] for op in call["ops"]})
        versions = p["versions"]
    with open(REFERENCE, "w") as fh:
        json.dump({"provenance": provenance(versions), "ops": ops}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(ops)} reference values written to {REFERENCE}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "mixlab" / "__init__.py").is_file():
        print(f"error: no mixlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    (WORK / "child.log").write_text("")
    try:
        if args.write_reference:
            write_reference()
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(name, args.seed, args.seconds,
                                bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print(_summary(rec))
        for msg in rec["failures"]:
            print(f"  FAIL {msg}")
        print(f"  provenance: {json.dumps(rec['provenance'])}")
        print(f"  record: {_save(rec)}")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
