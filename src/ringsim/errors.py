"""Exception taxonomy shared across the simulator."""


class RingSimError(Exception):
    """Base class for every simulator-raised error."""


# --- physical memory, grants, mappings ---

class QuotaExceeded(RingSimError):
    """Page allocation would push a party over its quota."""


class OutOfMemory(RingSimError):
    """The physical page pool is exhausted."""


class RegistrationError(RingSimError):
    """Base for shared-grant validation failures."""


class DuplicatePage(RegistrationError):
    pass


class OverlapWithPrivate(RegistrationError):
    """A granted page overlaps trusted-private memory (or cannot be proven not to)."""


class SizeMismatch(RegistrationError):
    pass


class RegionIdBusy(RegistrationError):
    """Region id already bound to a live registration."""


class NotOneRun(RegistrationError):
    """The pages are not one in-order run of one allocation's live pages."""


class NotValidated(RingSimError):
    """Mapping attempted in the wrong registration state."""


class VirtualRangeBusy(RingSimError):
    """Requested virtual range collides with an existing mapping."""


class BusFault(RingSimError):
    """Access outside any visible mapping, or a world violation on the bus."""


# --- rings ---

class BadSize(RingSimError):
    """Ring geometry invalid, or shared size field disagrees at attach."""


class EmptyConsume(RingSimError):
    """Consume with zero occupancy."""


# --- hardened enclave API ---

class Untranslatable(RingSimError):
    """Address not covered by any translation entry."""


class RegistrationRejected(RingSimError):
    """Trusted side refused a host-provided registration during a mapping flow."""


# --- scheduler ---

class AdmissionRejected(RingSimError):
    """Task set utilization would exceed capacity."""


# --- arenas / promises ---

class ArenaFull(RingSimError):
    pass


class DoubleFree(RingSimError):
    pass


class UseAfterFree(RingSimError):
    """IO on an arena after free (debug poisoning)."""


class PoolExhausted(RingSimError):
    """Fixed-capacity pool (promises, arena refill) cannot satisfy the request."""


class RecordsNotKept(RingSimError):
    """A bounded record log was asked for the records it dropped."""


# --- devices ---

class DeviceFull(RingSimError):
    pass
