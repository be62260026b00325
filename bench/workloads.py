"""Workload plans, output harvesting and correctness checks.

A workload is a list of ``mixlab`` CLI calls run back to back in one
process. Seed 0 is the reference configuration. Any other seed draws one
uniform fraction ``u`` in [0, 1) and moves every grid upward by a
log-uniform factor of less than one of that grid's own steps, so no
viscosity falls below the seed-0 minimum:

* viscosity grids move by ``NU_SHIFT_CAP * u`` steps. The number of time
  steps of a row grows like nu^-q with q ~ 0.3-0.5, so a shift of a whole
  step would change the work of a pass by up to ~40% from seed to seed;
  a tenth of a step keeps that under ~5% while still moving every row off
  its stored reference value;
* the ``mix-rate`` time grid moves by ``u`` of its step: its cost does
  not depend on where the times lie.

Seed 0 is checked against stored reference values; every seed is checked
against invariants (row status, warnings, bound verdicts, the exact heat
time-scale, and the exponent windows of acceptance criteria 3 and 4).

Left out on purpose:

* shear gamma=1 at resolution 256: 5 of its 8 rows are under-resolved,
  and a resolution policy will change both their cost and their values;
* the kinetic family: top-band occupancy stays >= 90% at N = 64, 128 and
  256, and tau halves with each doubling of N;
* the process-pool path (``--workers`` > 1): spans recorded in this
  process cannot see the workers, and there are only two cores.

This module imports nothing from ``mixlab``: the parent process uses it
to check results, the child process to plan and harvest them.
"""

import json
import os
import random

WORKLOADS = ("ed-shear", "ed-matrix", "mix-rate")
NU_SHIFT_CAP = 0.1
REL_TOL = 1e-4  # tolerance on tau, 1/rate, q and p against the reference

_RES = ["--resolution", "256"]
_SERIAL = ["--workers", "1"]
_MIX = ["--resolution", "65536", "--points", "400"]
T_MIN, T_MAX, T_POINTS = 10.0, 1e4, 400
T_START = 0.1  # mix-rate's time grid runs from min(0.1, t-min) to t-max


def _shift_fraction(seed: int) -> float:
    return 0.0 if seed == 0 else random.Random(seed).random()


def _nu_flags(lo: float, hi: float, count: int, steps: float) -> list:
    f = (hi / lo) ** (steps / (count - 1))
    return ["--nu-min", repr(lo * f), "--nu-max", repr(hi * f),
            "--nu-count", str(count)]


def _mix_flags(u: float) -> list:
    f = (T_MAX / T_START) ** (u / (T_POINTS - 1))
    return ["--t-min", repr(T_MIN * f), "--t-max", repr(T_MAX * f)]


def plan(workload: str, seed: int, out: str) -> list:
    """The CLI calls of one pass, as ``(argv, expected operation count)``.

    Operations are sweep rows, bound-checked rows, ``q`` fits (two per
    reported group) and ``mix-rate`` fits. Output directories go under
    ``out``.
    """
    u = _shift_fraction(seed)
    nus = _nu_flags(1e-6, 1e-3, 8, NU_SHIFT_CAP * u)
    d = {name: os.path.join(out, name)
         for name in ("shear", "heat", "spiral", "kolmogorov",
                      "mix-shear", "mix-spiral-a1", "mix-spiral-a4")}
    if workload == "ed-shear":
        return [
            (["ed-sweep", "--model", "shear", "--gamma", "2", *_RES, *nus,
              *_SERIAL, "--out", d["shear"]], 8),
            (["ed-sweep", "--model", "heat", *_RES, *nus, *_SERIAL,
              "--out", d["heat"]], 8),
            (["verify-bound", d["shear"]], 8),
            (["report", d["shear"]], 2),
            (["report", d["heat"]], 2),
        ]
    if workload == "ed-matrix":
        kol = _nu_flags(1e-5, 1e-3, 8, NU_SHIFT_CAP * u)
        return [
            (["ed-sweep", "--model", "spiral", "--alpha", "1", *_RES, *nus,
              *_SERIAL, "--out", d["spiral"]], 8),
            (["ed-sweep", "--model", "kolmogorov", "--L", "2", *_RES, *kol,
              *_SERIAL, "--out", d["kolmogorov"]], 8),
            (["verify-bound", d["spiral"]], 8),
            (["verify-bound", d["kolmogorov"]], 8),
            (["report", d["spiral"]], 2),
            (["report", d["kolmogorov"]], 2),
        ]
    if workload == "mix-rate":
        ts = _mix_flags(u)
        return [
            (["mix-rate", "--model", "shear", *_MIX, *ts,
              "--out", d["mix-shear"]], 1),
            (["mix-rate", "--model", "spiral", "--alpha", "1", *_MIX, *ts,
              "--out", d["mix-spiral-a1"]], 1),
            (["mix-rate", "--model", "spiral", "--alpha", "4", *_MIX, *ts,
              "--out", d["mix-spiral-a4"]], 1),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# harvesting: what one CLI call left on disk, as a list of operations

def _load(path):
    with open(path) as fh:
        return json.load(fh)


def harvest(argv: list) -> list:
    """Operations produced by one finished CLI call, read from its files."""
    cmd = argv[0]
    out_dir = argv[argv.index("--out") + 1] if "--out" in argv else argv[1]
    label = os.path.basename(out_dir)
    ops = []
    try:
        if cmd == "ed-sweep":
            rows_dir = os.path.join(out_dir, "rows")
            for name in sorted(os.listdir(rows_dir)):
                r = _load(os.path.join(rows_dir, name))
                ops.append({"id": f"row:{label}/{r['key']}", "kind": "row",
                            "model": r["model"], "nu": r["nu"],
                            "status": r["status"],
                            "warnings": r["meta"].get("warnings", []),
                            "tau": r["tau"], "tau_rate":
                            1.0 / r["rate"] if r["rate"] else None})
        elif cmd == "verify-bound":
            for r in _load(os.path.join(out_dir, "bounds.json"))["rows"]:
                ops.append({"id": f"bound:{label}/{r['key']}", "kind": "bound",
                            "passed": r["passed"]})
        elif cmd == "report":
            groups = _load(os.path.join(out_dir, "report.json"))["groups"]
            for group, g in groups.items():
                for basis in ("crossing", "rate"):
                    ops.append({"id": f"q:{label}/{group}/{basis}",
                                "kind": "q", "group": group, "basis": basis,
                                "q": g.get(f"q_{basis}"),
                                "q_pred": g["q_predicted"]})
        elif cmd == "mix-rate":
            for name in sorted(os.listdir(out_dir)):
                if name.endswith("_fit.json"):
                    fit = _load(os.path.join(out_dir, name))
                    ops.append({"id": f"p:{label}", "kind": "p",
                                "p": fit["p_measured"],
                                "p_pred": fit["p_predicted"]})
    except (OSError, KeyError, ValueError):
        pass  # missing or malformed output: the operations count as failed
    return ops


# ---------------------------------------------------------------------------
# checks

def _rel_off(value, ref) -> bool:
    if value is None or ref is None:
        return value is not ref
    return abs(value - ref) > REL_TOL * abs(ref)


def _invariant_problems(op) -> list:
    kind = op["kind"]
    if kind == "row":
        bad = []
        if op["status"] != "ok":
            bad.append(f"status {op['status']!r}")
        if op["warnings"]:
            bad.append(f"warnings {op['warnings']}")
        if op["model"] == "heat" and _rel_off(op["tau"], 0.5 / op["nu"]):
            bad.append(f"heat tau {op['tau']} != 1/(2 nu)")
        return bad
    if kind == "bound":
        return [] if op["passed"] else ["decay bound failed"]
    if kind == "q":
        q, q_pred = op["q"], op["q_pred"]
        if q is None:
            return ["q not fitted"]
        bad = []
        if q_pred is not None and q > q_pred + 0.05:
            bad.append(f"q {q:.4f} above predicted {q_pred:.4f} + 0.05")
        if op["group"].startswith("heat") and abs(q - 1.0) > 0.01:
            bad.append(f"heat q {q:.4f} not within 0.01 of 1")
        if (op["group"].startswith("shear_g2") and op["basis"] == "rate"
                and not 0.45 <= q <= 0.55):
            bad.append(f"shear g=2 rate q {q:.4f} outside [0.45, 0.55]")
        return bad
    if kind == "p":
        if not abs(op["p"] - op["p_pred"]) < 0.1:
            return [f"p {op['p']:.4f} not within 0.1 of {op['p_pred']:g}"]
        return []
    return [f"unknown operation kind {kind!r}"]


_REF_FIELDS = {"row": ("tau", "tau_rate"), "bound": ("passed",),
               "q": ("q",), "p": ("p",)}


def reference_values(op) -> dict:
    return {f: op[f] for f in _REF_FIELDS[op["kind"]]}


def check_calls(calls: list, reference: dict | None) -> tuple:
    """Count attempted and failed operations of one pass.

    ``calls`` holds ``{"argv", "rc", "expected", "ops"}`` per CLI call.
    An operation fails on a non-zero exit of its call, a broken
    invariant, or (when ``reference`` is given) a value more than
    ``REL_TOL`` relative from the reference. Missing operations fail.
    Returns ``(attempted, failed, messages)``.
    """
    attempted = failed = 0
    messages = []
    for call in calls:
        attempted += call["expected"]
        missing = call["expected"] - len(call["ops"])
        if missing > 0:
            failed += missing
            messages.append(f"{' '.join(call['argv'][:3])}: {missing} "
                            f"operation(s) missing (exit {call['rc']})")
        for op in call["ops"][:call["expected"]]:
            bad = _invariant_problems(op)
            if call["rc"] != 0:
                bad.append(f"exit code {call['rc']}")
            if reference is not None:
                ref = reference.get(op["id"])
                if ref is None:
                    bad.append("no reference value")
                else:
                    bad += [f"{f} {op[f]} vs reference {ref[f]}"
                            for f in _REF_FIELDS[op["kind"]]
                            if (op[f] != ref[f] if f == "passed"
                                else _rel_off(op[f], ref[f]))]
            if bad:
                failed += 1
                messages.append(f"{op['id']}: {'; '.join(bad)}")
    return attempted, failed, messages
