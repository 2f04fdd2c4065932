"""The benchmark's span table still names real `ringsim` functions.

`perfbench/tracing.py` wraps the functions listed in its SPANS table; a
rename on the `ringsim` side breaks `perfbench/run.py --trace 1`. This reads
the table without importing the benchmark as a package, running it, or
writing anything next to it.
"""
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_namespace() -> dict:
    ns = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), ns)
    return ns


def _resolve(mod_name, cls_name, attr):
    owner = importlib.import_module(f"ringsim.{mod_name}")
    if cls_name is not None:
        owner = getattr(owner, cls_name)
    return getattr(owner, attr)


def test_every_span_target_resolves():
    ns = _tracing_namespace()
    missing = []
    for name, targets in ns["SPANS"].items():
        for target in targets:
            try:
                fn = _resolve(*target)
            except (AttributeError, ImportError):
                missing.append((name, target))
                continue
            assert callable(fn), (name, target)
    assert missing == []
    targets = {t for ts in ns["SPANS"].values() for t in ts}
    assert set(ns["OBSERVERS"]) <= targets
    assert callable(_resolve("sched", "BudgetScheduler", "admit"))
