"""Trusted serial device: append-only log, bounded capacity."""
import pytest

from ringsim.device import SecureSerialDevice
from ringsim.errors import DeviceFull


def test_tx_appends_with_timestamps():
    d = SecureSerialDevice(tx_capacity=64)
    d.tx(5, "a", b"one")
    d.tx(9, "b", b"two")
    assert d.tx_log == [(5, "a", b"one"), (9, "b", b"two")]


def test_tx_copies_payload():
    d = SecureSerialDevice()
    buf = bytearray(b"live")
    d.tx(0, "a", buf)
    buf[0] = 0
    assert d.tx_log[0][2] == b"live"


def test_capacity_enforced_across_messages():
    d = SecureSerialDevice(tx_capacity=10)
    d.tx(0, "a", b"12345")
    d.tx(1, "a", b"12345")
    with pytest.raises(DeviceFull):
        d.tx(2, "a", b"x")


def test_transmissions_before_deadline():
    d = SecureSerialDevice()
    for t in (10, 20, 30):
        d.tx(t, "a", b"m")
    assert [e[0] for e in d.transmissions_before(20)] == [10, 20]
