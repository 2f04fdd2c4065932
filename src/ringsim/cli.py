"""Command-line front end for the scenario runners.

    ringsim run   --scenario FILE [--out REPORT] [--trace FILE]
    ringsim game1 --count N --seed S [--out REPORT]
    ringsim game2 --count N --seed S [--out REPORT]
    ringsim bench --mode MODE [--seed S] [--out REPORT]
    ringsim fuzz  --iterations N --seed S [--out REPORT]

Reports are JSON lines; the first line is a schema header. Exit status is
nonzero when any case in the run fails its checks.
"""
from __future__ import annotations

import argparse
import sys

from . import scenario as sc


def _emit(rows: list[dict], kind: str, seed: int, out: str | None) -> None:
    if out:
        sc.write_report(out, kind, seed, rows)
    else:
        print("\n".join(sc.report_lines(kind, seed, rows)))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ringsim", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run one scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.add_argument("--trace")

    p = sub.add_parser("game1", help="availability campaign")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("game2", help="integrity campaign (twin runs)")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--out")

    p = sub.add_parser("bench", help="throughput model")
    p.add_argument("--mode", default="pipelined",
                   choices=["blocking", "pipelined", "blocking_alt",
                            "pipelined_alt", "compare"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")

    p = sub.add_parser("fuzz", help="hardened-interface fuzzing")
    p.add_argument("--iterations", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--out")

    args = ap.parse_args(argv)

    if args.cmd == "run":
        with open(args.scenario) as fh:
            text = fh.read()
        kind = sc.parse_scenario(text)["scenario"].get("kind", "game1")
        run = sc.run_game2_traced if kind == "game2" else sc.run_game1_traced
        row, trace = run(text)
        _emit([row], kind, 0, args.out)
        if args.trace:
            with open(args.trace, "w") as fh:
                fh.write("\n".join(trace) + "\n")
        return 0 if row["ok"] else 1

    if args.cmd == "game1":
        rows = [sc.run_game1(t) for t in sc.generate_game1(args.seed,
                                                           args.count)]
        _emit(rows, "game1", args.seed, args.out)
        return 0 if all(r["ok"] for r in rows) else 1

    if args.cmd == "game2":
        rows = [sc.run_game2(t) for t in sc.generate_game2(args.seed,
                                                           args.count)]
        _emit(rows, "game2", args.seed, args.out)
        return 0 if all(r["ok"] for r in rows) else 1

    if args.cmd == "bench":
        modes = ["blocking", "pipelined", "blocking_alt", "pipelined_alt"] \
            if args.mode == "compare" else [args.mode]
        rows = [sc.run_bench(m, args.seed) for m in modes]
        _emit(rows, "bench", args.seed, args.out)
        return 0

    if args.cmd == "fuzz":
        row = sc.run_fuzz(args.seed, args.iterations)
        _emit([row], "fuzz", args.seed, args.out)
        return 0 if row["ok"] else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
