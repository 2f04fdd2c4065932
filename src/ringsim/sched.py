"""Budget-enforcing periodic scheduler over integer-nanosecond simulated time.

Tasks are generator bodies that yield scheduling commands:

    ("compute", ns)  consume ns of budget/CPU (side effects in body code run
                     at the simulated instant the generator is resumed)
    ("block", until) leave the eligible set and spend no budget until the
                     first of `until` (never, for None), the task's next
                     release, or wake(name); the budget left is kept, as a
                     deferrable server keeps it. A block whose `until` has
                     passed resumes the body at once.
    ("yield",)       forfeit the rest of this period's budget

A body is sent `now` at every resume after its first. A woken task that
outranks the running one preempts it at once.

Each task gets `budget` of execution every `period`; admission enforces the
utilization sum, budget exhaustion forces preemption, replenishment happens
exactly at period boundaries. Fixed-priority chooses the highest priority
(ties: lower task id); EDF chooses the earliest deadline (ties: earlier
admission). advance() is a pure function of scheduler state, so identical
inputs replay identical traces. A slice pays one check for what did not
change: only a slice that starts at the cached earliest release or block
end scans the tasks, and fixed priority dispatches the first eligible task
of a list kept sorted by (-priority, tid) as tasks are admitted and exit
(EDF scans for the earliest deadline). `trace_enabled` and
`record_timeline` are read once per run_until call.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .errors import AdmissionRejected
from .records import SchedTrace

FP = "fp"
EDF = "edf"

ENCLAVE = "enclave"
HOST = "host"


@dataclass
class TaskControl:
    tid: int
    name: str
    kind: str
    period: int
    budget: int
    priority: int = 0
    remaining: int = 0
    next_replenish: int = 0
    deadline: int = 0
    yielded: bool = False        # off the eligible set: yielded or blocked
    alive: bool = True
    started: bool = False
    cmd_left: int | None = None
    wake_at: int | None = None   # end of the block in progress, if any
    executed_total: int = 0
    window_executed: int = 0
    gen: Iterator | None = None


class BudgetScheduler:
    def __init__(self, policy: str = FP, keep_records: bool = True):
        if policy not in (FP, EDF):
            raise ValueError(f"unknown policy {policy}")
        self.policy = policy
        self.now = 0
        self.tasks: dict[str, TaskControl] = {}
        self._order: list[TaskControl] = []   # live tasks, in tid order
        self._ranked: list[TaskControl] = []  # live tasks, FP pick order
        self._running: TaskControl | None = None
        self._next_tid = 0
        self.trace = SchedTrace(keep_records)  # (now, task, event)
        self.trace_enabled = True
        self.record_timeline = False
        self.timeline: list[tuple[int, int, str]] = []
        # hook(now, task) fired at each replenish boundary, before reset
        self.on_replenish: Callable | None = None
        self.util = Fraction(0)
        # min over live tasks of next_replenish, or wake_at while blocked
        self._boundary: int | None = None
        self.resumes = 0  # body resumes so far; the count names the current one

    # --- admission ---

    def admit(self, name: str, kind: str, period: int, budget: int,
              body: Iterator, priority: int = 0) -> TaskControl:
        """Admit a task iff the utilization sum stays within one core."""
        if period <= 0 or budget <= 0 or budget > period:
            raise AdmissionRejected(f"bad parameters period={period} budget={budget}")
        u = Fraction(budget, period)
        if self.util + u > 1:
            raise AdmissionRejected(
                f"utilization {float(self.util + u):.3f} > 1.0")
        if name in self.tasks:
            raise AdmissionRejected(f"duplicate task name {name}")
        t = TaskControl(self._next_tid, name, kind, period, budget,
                        priority, gen=body)
        self._next_tid += 1
        t.remaining = budget
        t.next_replenish = self.now + period
        t.deadline = self.now + period
        self.tasks[name] = t
        self._order.append(t)
        insort(self._ranked, t, key=lambda c: (-c.priority, c.tid))
        self.util += u
        self._refresh_boundary()
        return t

    # --- trace ---

    def export_trace_lines(self) -> list[str]:
        return [f"{t} {name} {event}" for t, name, event in self.trace]

    # --- core loop ---

    def _refresh_boundary(self) -> None:
        self._boundary = min((t.next_replenish if t.wake_at is None
                              else t.wake_at for t in self._order),
                             default=None)

    def _do_replenish(self, record) -> None:
        """Replenish the due tasks and end the due blocks; run_until calls
        it at the boundary. `record` is the trace's record method, or None
        when tracing is off."""
        now = self.now
        boundary = None
        for t in self._order:
            if t.next_replenish <= now:
                if self.on_replenish is not None:
                    self.on_replenish(now, t)
                t.remaining = t.budget
                t.yielded = False
                t.wake_at = None
                t.window_executed = 0
                t.deadline = t.next_replenish + t.period
                t.next_replenish += t.period
                if record is not None:
                    record(now, t.name, "replenish")
            elif t.wake_at is not None and t.wake_at <= now:
                t.yielded = False
                t.wake_at = None
            nxt = t.next_replenish if t.wake_at is None else t.wake_at
            if boundary is None or nxt < boundary:
                boundary = nxt
        self._boundary = boundary

    def wake(self, name: str) -> None:
        """End the block of task `name`, if it is blocked (an interrupt)."""
        t = self.tasks.get(name)
        if t is None or t.wake_at is None:
            return
        t.yielded = False
        t.wake_at = None
        run = self._running
        if run is not None and ((t.deadline, t.tid) < (run.deadline, run.tid)
                                if self.policy == EDF else
                                (-t.priority, t.tid) < (-run.priority, run.tid)):
            self._boundary = self.now  # re-pick before the next slice

    def _exit_task(self, t: TaskControl, record) -> None:
        t.alive = False
        self._order.remove(t)
        self._ranked.remove(t)
        self._refresh_boundary()
        if record is not None:
            record(self.now, t.name, "exit")
        self.util -= Fraction(t.budget, t.period)

    def _ensure_command(self, t: TaskControl, record) -> bool:
        """Resume the body until it owes compute time. False when the task
        yielded or exited during the resume."""
        guard = 0
        while t.cmd_left is None or t.cmd_left == 0:
            guard += 1
            if guard > 4096:
                raise RuntimeError(f"task {t.name} spins on zero-cost commands")
            value = self.now if t.started else None
            t.started = True
            self.resumes += 1
            try:
                cmd = t.gen.send(value)
            except StopIteration:
                self._running = None
                self._exit_task(t, record)
                return False
            kind = cmd[0]
            if kind == "compute":
                t.cmd_left = cmd[1]
                continue
            if kind == "block":
                until = cmd[1]
                if until is not None and until <= self.now:
                    continue  # due already: resume at once
                nxt = t.next_replenish
                t.wake_at = wake = nxt if until is None or until > nxt else until
                if wake < self._boundary:
                    self._boundary = wake
            elif kind != "yield":
                raise ValueError(f"unknown scheduling command {cmd!r}")
            t.yielded = True
            t.cmd_left = None
            if record is not None:
                record(self.now, t.name, kind)
            self._running = None
            return False
        return True

    def advance(self, dt: int) -> None:
        self.run_until(self.now + dt)

    def run_until(self, t_end: int) -> None:
        record = self.trace.record if self.trace_enabled else None
        timeline = self.timeline if self.record_timeline else None
        fp = self.policy == FP
        while self.now < t_end:
            now = self.now
            if self._boundary is not None and now >= self._boundary:
                self._do_replenish(record)
            task = None
            if fp:
                for t in self._ranked:
                    if t.remaining > 0 and not t.yielded:
                        task = t
                        break
            else:
                # _order is in tid order, so a strict < breaks ties by tid
                for t in self._order:
                    if t.remaining > 0 and not t.yielded and \
                            (task is None or t.deadline < task.deadline):
                        task = t
            running = self._running
            if task is not running:
                if running is not None and record is not None:
                    record(now, running.name, "preempt")
                self._running = task
                if task is not None and record is not None:
                    record(now, task.name, "dispatch")
            if task is None:
                nxt = self._boundary
                self.now = t_end if nxt is None else min(nxt, t_end)
                continue
            if not task.cmd_left and not self._ensure_command(task, record):
                continue
            # the slice ends at the first of: run end, budget exhausted,
            # command done, next replenish boundary
            left = task.cmd_left
            slice_end = now + (task.remaining if task.remaining < left else left)
            if t_end < slice_end:
                slice_end = t_end
            nxt = self._boundary
            if nxt is not None and nxt < slice_end:
                slice_end = nxt
            dt = slice_end - now
            if dt > 0:
                if timeline is not None:
                    timeline.append((now, slice_end, task.name))
                self.now = slice_end
                task.remaining -= dt
                task.cmd_left -= dt
                task.executed_total += dt
                task.window_executed += dt
            if task.remaining == 0:
                # a task stopped by its own event (exhaust, and yield or exit
                # in _ensure_command) gets no preempt record
                if record is not None:
                    record(self.now, task.name, "exhaust")
                self._running = None
