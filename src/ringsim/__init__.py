"""Deterministic simulation of enclave tasks doing async IO through
shared-memory rings against an untrusted, possibly hostile host OS.

The enclave-side library (hardened ring handle, promise pool, staging
arenas, sync shim) is written so that no host behavior can make it block
forever, run unbounded work, or accept a forged result; the simulation half
(host model, budget scheduler, adversary policies, game runners) exists to
check exactly that, reproducibly.
"""

from .arena import Arena, ArenaPool, size_class
from .config import PAGE_SIZE, SIZE_CLASSES, SimConfig, step_bounds
from .device import SecureSerialDevice
from .enclave import (Completion, RingHandle, SharedBlock, SqeArgs,
                      TranslationEntry)
from .errors import *  # noqa: F401,F403 - stable error vocabulary
from .host import AdversaryPolicy, HostOs, VirtualFs
from .promise import (Promise, PromisePool, async_open, async_path_op,
                      async_read, async_statx, async_write, poll)
from .ring import (CQE_SIZE, RING_HEADER, SQE_SIZE, Cqe, Ring, Sqe,
                   ring_region_bytes)
from .sched import EDF, FP, BudgetScheduler, TaskControl
from .shim import PosixShim, getpid, sync_call
from .shm import (AccessMonitor, AddressSpace, MemoryAuthority, MemoryWindow,
                  NORMAL, TRUSTED)
from .sim import EnclaveRuntime, Simulation, TrustedKernel

__version__ = "0.1.0"
