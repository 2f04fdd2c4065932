"""Trusted serial port: the one output path the host cannot touch.

Tasks write result bytes here with a trusted timestamp; availability checks
read the log back instead of trusting anything host-side.
"""
from __future__ import annotations

from .errors import DeviceFull


class SecureSerialDevice:
    def __init__(self, tx_capacity: int = 4096):
        self.tx_capacity = tx_capacity
        self.tx_log: list[tuple[int, str, bytes]] = []  # (t, sender, payload)
        self._tx_bytes = 0

    def tx(self, now: int, sender: str, payload: bytes) -> None:
        if self._tx_bytes + len(payload) > self.tx_capacity:
            raise DeviceFull(f"tx log over {self.tx_capacity} bytes")
        self.tx_log.append((now, sender, bytes(payload)))
        self._tx_bytes += len(payload)

    def transmissions_before(self, deadline: int) -> list[tuple[int, str, bytes]]:
        return [e for e in self.tx_log if e[0] <= deadline]
