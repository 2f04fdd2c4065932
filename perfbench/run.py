"""ringsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload campaign|bulk_read|fleet_log \
        --seed N --seconds S --trace 0|1

With --trace 0 it prints the end-to-end metrics of an untraced run. With
--trace 1 it spends half the time untraced and half with every layer's
public functions wrapped in spans, and prints the per-layer metrics. The
last line of standard output is one JSON object; a copy of the full result
goes to .perfbench-out/ at the root of the checkout.

The benchmark imports `ringsim` only from the `src` directory next to this
one and refuses to run against any other copy.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPS = 5
MODULES = ("config", "shm", "ring", "enclave", "arena", "promise", "sched",
           "host", "device", "sim", "shim", "scenario")

from tracing import Tracer  # noqa: E402  (sibling module of this script)
from workloads import WORKLOADS  # noqa: E402

UNITS = {"setup_s": "s", "units_per_s": "1/s", "unit_ms_p50": "ms",
         "unit_ms_p99": "ms", "peak_rss_mb": "MB", "sim_mib_per_s": "MiB/s"}


class Refused(Exception):
    """The checkout does not hold the ringsim this benchmark measures."""


def load_ringsim() -> types.SimpleNamespace:
    """Import ringsim afresh from this checkout's src."""
    for name in [n for n in sys.modules
                 if n == "ringsim" or n.startswith("ringsim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ringsim")
    found = Path(pkg.__file__).resolve()
    if found != (SRC / "ringsim" / "__init__.py").resolve():
        raise Refused(f"imported ringsim from {found}, not from {SRC}")
    rs = types.SimpleNamespace(pkg=pkg)
    for name in MODULES:
        setattr(rs, name, importlib.import_module(f"ringsim.{name}"))
    return rs


def _set_up(wl, inputs, on_load):
    """Import and build SETUP_REPS times; -> (median seconds, rs, state)."""
    times = []
    state = None
    for _ in range(SETUP_REPS):
        del state
        gc.collect()  # drop the previous build before timing the next
        t0 = perf_counter()
        rs = load_ringsim()
        if on_load is not None:
            on_load(rs)
        state = wl.build(rs, inputs)
        times.append(perf_counter() - t0)
    return statistics.median(times), rs, state


def _p99(gaps: list[float]) -> float:
    p99 = statistics.quantiles(gaps, n=100)[98]
    above = sum(1 for g in gaps if g > p99)
    if above < 10:
        raise RuntimeError(f"only {above} samples above p99 "
                           f"({len(gaps)} units); run longer")
    return p99


def measure(workload: str, seed: int, seconds: float, trace: bool,
            on_load=None) -> dict:
    """One run; -> the result object (see the module docstring).

    on_load(rs), if given, runs after every import of ringsim and before
    the build; the measurement self-check uses it to alter the program.
    """
    wl = WORKLOADS[workload]
    inputs = wl.make_inputs(seed)
    setup_s, rs, state = _set_up(wl, inputs, on_load)
    first_seconds = seconds / 2 if trace else seconds
    res = wl.run(rs, state, inputs, first_seconds)
    units_per_s = len(res.meter.gaps) / res.meter.window_s
    results = [res]
    uncovered: list[str] = []
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "units_per_s": units_per_s,
            "unit_ms_p50": statistics.median(res.meter.gaps) * 1e3,
            "unit_ms_p99": _p99(res.meter.gaps) * 1e3,
            "peak_rss_mb": res.rss_mb,
            "sim_mib_per_s": res.sim_bytes / (res.sim_ns / 1e9) / 2**20,
        }
    else:
        tracer = Tracer()
        tracer.install(rs)
        traced_state = wl.build(rs, inputs)
        tres = wl.run(rs, traced_state, inputs, seconds - first_seconds)
        results.append(tres)
        tunits = len(tres.meter.gaps)
        metrics = tracer.per_unit(tunits, tres.totals)
        metrics["trace.overhead_ratio"] = \
            tunits / tres.meter.window_s / units_per_s
        uncovered = tracer.uncovered(wl.REACHED)
    problems = [p for r in results for p in r.problems]
    if uncovered:
        problems.append(f"coverage: no calls recorded for {uncovered}")
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": UNITS.get(k) or _layer_unit(k)}
                    for k, v in metrics.items()},
        "problems": problems,
        "env": {"ringsim": rs.pkg.__file__, "python": platform.python_version(),
                "nproc": len(os.sched_getaffinity(0))},
    }


def _layer_unit(name: str) -> str:
    if name.endswith(".self_us"):
        return "us/unit"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_call"):
        return "1/call"
    if name.endswith(".bytes"):
        return "B/unit"
    return "1/unit"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ringsim" / "__init__.py").is_file():
        print(f"perfbench: no ringsim source under {SRC}; refusing to run",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except Refused as exc:
        print(f"perfbench: {exc}; refusing to run", file=sys.stderr)
        return 2
    env = result.pop("env")
    problems = result.pop("problems")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(result, env=env, problems=problems,
                                   args=vars(args)), indent=1) + "\n")
    print(f"# ringsim={env['ringsim']} python={env['python']} "
          f"nproc={env['nproc']} workload={args.workload} seed={args.seed}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
