"""Budget scheduler: admission, isolation, reference equivalence."""
import random
from fractions import Fraction

import pytest

from ringsim.errors import AdmissionRejected
from ringsim.sched import EDF, ENCLAVE, FP, HOST, BudgetScheduler

from helpers import RefSched, expand_timeline, recorded_script_gen, script_gen


def test_admission_utilization_sum():
    s = BudgetScheduler(FP)
    s.admit("a", ENCLAVE, 10, 4, script_gen([]))
    s.admit("b", ENCLAVE, 10, 4, script_gen([]))
    with pytest.raises(AdmissionRejected):
        s.admit("c", ENCLAVE, 10, 3, script_gen([]))  # 0.4+0.4+0.3 > 1
    s.admit("c", ENCLAVE, 10, 2, script_gen([]))      # exactly 1.0 is fine
    assert s.util == 1


def test_admission_parameter_checks():
    s = BudgetScheduler(FP)
    for period, budget in ((0, 1), (10, 0), (10, 11), (-5, 1)):
        with pytest.raises(AdmissionRejected):
            s.admit("x", ENCLAVE, period, budget, script_gen([]))
    s.admit("x", ENCLAVE, 10, 1, script_gen([]))
    with pytest.raises(AdmissionRejected):
        s.admit("x", ENCLAVE, 10, 1, script_gen([]))  # duplicate name


def test_fp_enclave_isolated_from_greedy_host():
    s = BudgetScheduler(FP)
    s.record_timeline = True
    windows = []
    s.on_replenish = lambda now, t: windows.append((now, t.name,
                                                    t.window_executed))
    s.admit("encl", ENCLAVE, 10, 2, script_gen([("compute", 10 ** 9)]),
            priority=9)
    s.admit("host", HOST, 10, 8, script_gen([("compute", 10 ** 9)]),
            priority=1)
    s.run_until(30)
    assert s.timeline == [(0, 2, "encl"), (2, 10, "host"),
                          (10, 12, "encl"), (12, 20, "host"),
                          (20, 22, "encl"), (22, 30, "host")]
    # the host never yields yet the enclave still gets its full budget
    assert [w for w in windows if w[1] == "encl"] == [(10, "encl", 2),
                                                      (20, "encl", 2)]


def test_edf_picks_earliest_deadline():
    s = BudgetScheduler(EDF)
    s.record_timeline = True
    s.admit("slow", ENCLAVE, 10, 3, script_gen([("compute", 30)]))
    s.admit("fast", ENCLAVE, 4, 2, script_gen([("compute", 30)]))
    s.run_until(4)
    assert s.timeline[0] == (0, 2, "fast")  # deadline 4 beats deadline 10


def test_yield_forfeits_rest_of_window():
    s = BudgetScheduler(FP)
    t = s.admit("t", ENCLAVE, 10, 5,
                script_gen([("compute", 2), ("yield",), ("yield",),
                            ("compute", 1)]))
    s.run_until(40)
    assert t.executed_total == 3
    events = [(now, ev) for now, name, ev in s.trace if name == "t"]
    assert (2, "yield") in events
    assert (10, "yield") in events        # second yield burns a whole window
    assert (21, "exit") in events


def test_exhaust_forces_preemption():
    s = BudgetScheduler(FP)
    s.record_timeline = True
    s.admit("big", ENCLAVE, 10, 3, script_gen([("compute", 50)]), priority=5)
    s.admit("bg", ENCLAVE, 10, 7, script_gen([("compute", 50)]), priority=1)
    s.run_until(10)
    assert (3, "big", "exhaust") in s.trace
    assert s.timeline == [(0, 3, "big"), (3, 10, "bg")]


def test_zero_cost_spin_guard():
    s = BudgetScheduler(FP)
    s.admit("spin", ENCLAVE, 10, 5, script_gen([("compute", 0)] * 5000))
    with pytest.raises(RuntimeError):
        s.run_until(1)


def _random_taskset(rng, n):
    out = []
    util = Fraction(0)
    for i in range(n):
        for _ in range(50):
            period = rng.randrange(4, 30)
            budget = rng.randrange(1, period + 1)
            if util + Fraction(budget, period) <= 1:
                util += Fraction(budget, period)
                break
        else:
            continue
        script = []
        for _ in range(rng.randrange(0, 6)):
            if rng.random() < 0.7:
                script.append(("compute", rng.randrange(1, 12)))
            else:
                script.append(("yield",))
        out.append((f"t{i}", period, budget, rng.randrange(0, 5), script))
    return out


def test_traces_match_bruteforce_reference():
    rng = random.Random(4242)
    for trial in range(40):
        policy = FP if trial % 2 == 0 else EDF
        tasks = _random_taskset(rng, rng.randrange(1, 7))
        horizon = rng.randrange(50, 300)
        real = BudgetScheduler(policy)
        real.record_timeline = True
        ref = RefSched(policy)
        for name, period, budget, prio, script in tasks:
            real.admit(name, ENCLAVE, period, budget, script_gen(script),
                       priority=prio)
            ref.admit(name, ENCLAVE, period, budget, script, priority=prio)
        real.run_until(horizon)
        ref.run_until(horizon)
        assert real.trace == ref.trace, f"trial {trial} ({policy})"
        assert expand_timeline(real.timeline) == set(ref.ticks), \
            f"trial {trial} ({policy})"


def _random_block_taskset(rng, n, horizon):
    tasks = _random_taskset(rng, n)
    names = [task[0] for task in tasks]
    out = []
    for name, period, budget, prio, _ in tasks:
        script = []
        for _ in range(rng.randrange(1, 9)):
            roll = rng.random()
            if roll < 0.3:
                script.append(("compute", rng.randrange(1, 12)))
            elif roll < 0.65:
                until = None if rng.random() < 0.4 \
                    else rng.randrange(0, horizon + 10)
                script.append(("block", until))
            elif roll < 0.92:
                script.append(("wake", rng.choice(names)))
            else:
                script.append(("yield",))
        out.append((name, period, budget, prio, script))
    return out


def test_wait_matches_tick_by_tick_reference():
    # blocks end at `until`, at the next release, or at a wake from a task
    # body or from outside between run_until calls; priorities drawn from
    # two values tie often under FP, finite scripts exit mid-run, and the
    # last task is admitted at the first cut
    rng = random.Random(5151)
    blocks_ended = woken = exits = late_dispatches = preempted = 0
    for trial in range(120):
        policy = FP if trial % 2 == 0 else EDF
        horizon = rng.randrange(50, 300)
        tasks = [(name, period, budget, prio % 2, script)
                 for name, period, budget, prio, script in
                 _random_block_taskset(rng, rng.randrange(1, 6), horizon)]
        cuts = sorted(rng.sample(range(1, horizon), rng.randrange(0, 4)))
        late = tasks.pop() if cuts and len(tasks) > 1 else None
        late_name = None
        real = BudgetScheduler(policy)
        real.record_timeline = True
        ref = RefSched(policy)
        starts, blocks = [], []

        def admit(name, period, budget, prio, script):
            real.admit(name, ENCLAVE, period, budget,
                       recorded_script_gen(real, name, script, starts, blocks),
                       priority=prio)
            ref.admit(name, ENCLAVE, period, budget, script, priority=prio)

        for task in tasks:
            admit(*task)
        for t in cuts + [horizon]:
            real.run_until(t)
            ref.run_until(t)
            if late is not None:
                admit(*late)
                late_name, late = late[0], None
            if rng.random() < 0.8:  # an interrupt between the calls
                name = rng.choice(list(real.tasks))
                real.wake(name)
                ref.wake(name)
        what = f"trial {trial} ({policy})"
        assert real.trace == ref.trace, what
        assert expand_timeline(real.timeline) == set(ref.ticks), what
        assert starts == ref.starts, what
        assert blocks == ref.blocks, what
        blocks_ended += len(blocks)
        woken += ref.woken
        exits += sum(ev == "exit" for _, _, ev in real.trace)
        late_dispatches += (late_name, "dispatch") in \
            {(name, ev) for _, name, ev in real.trace}
        preempted += sum(ev == "preempt" for _, _, ev in real.trace)
    assert blocks_ended > 200 and woken > 30 and exits > 100
    assert late_dispatches > 30 and preempted > 20


def test_block_ends_at_until_release_or_wake():
    s = BudgetScheduler(FP)
    s.record_timeline = True
    got = []

    def sleeper():
        for cmd in (("block", 10),     # ends at until, preempting k
                    ("block", 5),      # until passed: resumes at once
                    ("block", 95),     # ends at the release at 40
                    ("block", None),   # k's wake ends it at 47
                    ("block", None)):  # ends at the release at 80
            got.append((yield ("compute", 1)))
            got.append((yield cmd))
        yield ("jump",)

    def waker():
        yield ("compute", 10)  # done as its budget runs out at 13
        yield ("compute", 6)
        s.wake("w")  # w outranks k: it runs at once
        yield ("compute", 5)

    s.admit("w", ENCLAVE, 40, 30, sleeper(), priority=2)
    s.admit("k", ENCLAVE, 40, 10, waker(), priority=1)
    s.run_until(40)
    s.wake("k")  # not blocked: nothing happens
    with pytest.raises(ValueError):
        s.run_until(120)
    assert got == [1, 10, 11, 11, 12, 40, 41, 47, 48, 80]
    blocks = [now for now, name, ev in s.trace if ev == "block"]
    assert blocks == [1, 12, 41, 48]
    assert [now for now, name, ev in s.trace if ev == "preempt"] == [10, 47]
    # a blocked task keeps the budget it did not spend
    assert s.timeline[:5] == [(0, 1, "w"), (1, 10, "k"), (10, 11, "w"),
                              (11, 12, "w"), (12, 13, "k")]
    assert s.timeline[5:] == [(40, 41, "w"), (41, 47, "k"), (47, 48, "w"),
                              (48, 52, "k")]


def test_trace_replay_determinism():
    def build():
        s = BudgetScheduler(EDF)
        s.admit("a", ENCLAVE, 7, 3, script_gen([("compute", 5), ("yield",)] * 9))
        s.admit("b", ENCLAVE, 5, 2, script_gen([("compute", 4)] * 7))
        s.run_until(120)
        return s.export_trace_lines()

    assert build() == build()
