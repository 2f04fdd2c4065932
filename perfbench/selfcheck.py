"""Check that the benchmark measures the program, from outside the program.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

1. Adds a fixed busy-wait to one public function in each of three layers
   and requires the end-to-end metric mapped to that layer to worsen by
   more than its bound in BENCHMARK.json, on the mapped workload.
2. Flips one payload byte that the program hands back and requires the
   workload's correctness check to fail.

The program is altered only in this process, by rebinding functions after
each import of `ringsim`; no file changes. Exit status 0 means every check
held.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from time import perf_counter

import run

# (layer, class, method, cost in seconds per call, workload, metrics). The
# costs are large enough for the effect to clear the bound even when the
# host runs several times slower than usual.
SLOWDOWNS = [
    ("shm", "MemoryWindow", "read", 5e-6, "bulk_read", ["units_per_s"]),
    ("sim", "EnclaveRuntime", "pump", 12e-6, "fleet_log",
     ["units_per_s", "unit_ms_p50"]),
    ("sim", "Simulation", "__init__", 3e-3, "campaign", ["units_per_s"]),
    ("sim", "Simulation", "__init__", 100e-3, "bulk_read", ["setup_s"]),
    ("sim", "Simulation", "__init__", 100e-3, "fleet_log", ["setup_s"]),
]

# (workload, module, class, method, what is altered)
CORRUPTIONS = [
    ("bulk_read", "arena", "Arena", "read", "first 64 KiB chunk read"),
    ("fleet_log", "arena", "Arena", "read", "first sensor read"),
    ("campaign", "device", "SecureSerialDevice", "tx",
     "first message put on the serial device"),
]


def _busy(fn, cost: float):
    @functools.wraps(fn)
    def slowed(*args, **kwargs):
        end = perf_counter() + cost
        while perf_counter() < end:
            pass
        return fn(*args, **kwargs)
    return slowed


def _slow(module, cls, method, cost):
    def on_load(rs):
        owner = getattr(getattr(rs, module), cls)
        setattr(owner, method, _busy(getattr(owner, method), cost))
    return on_load


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 0x01]) + data[1:]


def _corrupt(module, cls, method):
    """Flip one byte once: in the first payload longer than a statx record
    copied out of an arena, or in the first device transmission."""
    def on_load(rs):
        owner = getattr(getattr(rs, module), cls)
        original = getattr(owner, method)
        done = []

        if method == "read":
            def altered(self, off, n):
                data = original(self, off, n)
                if not done and n > rs.ring.STATX_BYTES:
                    done.append(1)
                    return _flip(data)
                return data
        else:
            def altered(self, now, sender, payload):
                if not done:
                    done.append(1)
                    payload = _flip(payload)
                return original(self, now, sender, payload)
        setattr(owner, method, altered)
    return on_load


def _worse(base: float, value: float, spec: dict) -> float:
    """Relative worsening (positive = worse) in the metric's direction."""
    change = (value - base) / base
    return change if spec["better"] == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=4.0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    spec = {m["name"]: m for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    ok = True
    base = {}
    for workload in ("bulk_read", "fleet_log", "campaign"):
        r = run.measure(workload, args.seed, args.seconds, False)
        base[workload] = {k: v["value"] for k, v in r["metrics"].items()}
        ok &= r["correct"]
        print(f"baseline {workload}: correct={r['correct']} " + " ".join(
            f"{k}={base[workload][k]:.4g}"
            for k in ("setup_s", "units_per_s", "unit_ms_p50")))
    for module, cls, method, cost, workload, metrics in SLOWDOWNS:
        r = run.measure(workload, args.seed, args.seconds, False,
                        on_load=_slow(module, cls, method, cost))
        for m in metrics:
            value = r["metrics"][m]["value"]
            worse = _worse(base[workload][m], value, spec[m])
            held = worse > spec[m]["bound"]
            ok &= held
            print(f"{'PASS' if held else 'FAIL'} +{cost * 1e6:g} us per "
                  f"{cls}.{method} -> {workload} {m}: "
                  f"{base[workload][m]:.4g} -> {value:.4g} "
                  f"(worse by {worse:.1%}, bound {spec[m]['bound']:.0%})")
    for workload, module, cls, method, what in CORRUPTIONS:
        r = run.measure(workload, args.seed, 2.0, False,
                        on_load=_corrupt(module, cls, method))
        held = not r["correct"]
        ok &= held
        print(f"{'PASS' if held else 'FAIL'} one byte flipped in the {what} "
              f"-> {workload} correct={r['correct']}: "
              f"{r['problems'][:1]}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
