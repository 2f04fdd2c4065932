"""Tuning constants shared by the enclave-side library and the simulation.

All values are static launch-time configuration: nothing here is ever read
from shared memory, so adversarial scribbling cannot change a bound.
"""
from __future__ import annotations

from dataclasses import dataclass

PAGE_SIZE = 4096

# Enclave launch-env key requesting an initial shared-memory grant (decimal bytes).
INIT_SHM_ENV = "RINGSIM_INIT_SHM_BYTES"

# errno values surfaced by the synchronous call layer (fixed ABI).
EAGAIN = 11
ETIMEDOUT = 110
EINTR = 4

# Additional errno values used by the host model and the file facade.
ENOENT = 2
EIO = 5
EBADF = 9
EFAULT = 14
ENOMEM = 12
EEXIST = 17
EINVAL = 22
ENOSPC = 28
EPIPE = 32

# Arena size classes: powers of two, 256 B .. 64 KiB. Larger requests get a
# dedicated block keyed by exact rounded size.
SIZE_CLASSES = tuple(256 << i for i in range(9))  # 256 .. 65536

# Half of the modeled last-level cache bounds write staging.
LLC_BYTES = 1 << 20
WRITE_STAGING_CAP = LLC_BYTES // 2


@dataclass
class SimConfig:
    """Knobs for one simulated platform instance."""

    sq_entries: int = 64
    cq_entries: int = 64
    # peek_cqe gives up after this many junk drops in one call
    drop_budget: int = 8
    # continuations run inline per settle call before deferral
    continuation_budget: int = 32
    # also caps the in-flight user_data correlation records per ring handle
    max_outstanding_promises: int = 256
    write_staging_cap: int = WRITE_STAGING_CAP
    # host poller falls asleep after this much idle simulated time (ns)
    poller_idle_timeout: int = 400_000
    # SQEs consumed per host slice
    host_batch: int = 32
    # simulated cost of one host servicing step (ns)
    host_step_cost: int = 2_000
    # simulated cost of one sync-call poll iteration (ns)
    poll_tick: int = 1_000
    # base service latency per opcode family (ns); jitter added per-op
    service_base: int = 8_000
    service_jitter: int = 2_000
    # per-byte service cost (ns) for payload-bearing ops
    service_per_byte: int = 0
    # events drained per event-loop iteration
    max_events: int = 16


# Declared constant step bounds per hardened operation, measured as monitored
# shared-memory accesses during the call. The fuzz harness asserts
# measured <= bound; every loop in the hardened API is capped by one of the
# static quantities below, never by a shared-memory value.
def step_bounds(cfg: SimConfig) -> dict[str, int]:
    return {
        # room check and produce load the head once each, then the slot
        # write, the tail store and the doorbell's wake-record write
        "prep_and_submit": 5,
        # worst case: budget+1 peeks (2 accesses each) + budget drops (2 each)
        "peek_cqe": 2 + 4 * cfg.drop_budget,
        "consume_cqe": 4,
        "cq_backlog": 2,
        "translate_addr": 1,                        # private table only
    }
