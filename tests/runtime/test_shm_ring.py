"""Shared-memory slot ring: payload fidelity and segment geometry.

The ring is the tensor transport under multi-process serving, so the
load-bearing claims are byte-exact round trips (any corruption here is
silent wrong answers downstream) and capacity checks on both ends.
Which slots are free is not the ring's business: the shm endpoint's
:class:`~repro.runtime.transport.CreditGate` hands out slot indices, and
``tests/runtime/test_transport.py`` covers its accounting.
"""

import numpy as np
import pytest

from repro.runtime.shm_ring import ShmSlotRing


@pytest.fixture()
def ring():
    with ShmSlotRing.create(slots=4, slot_bytes=256) as r:
        yield r


class TestPayloadTransfer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32, np.uint8])
    def test_write_read_roundtrip_bitwise(self, ring, dtype):
        rng = np.random.default_rng(0)
        arr = (rng.standard_normal((2, 4, 4)) * 100).astype(dtype)
        shape, dt, crc = ring.write(3, arr)
        assert shape == (2, 4, 4) and np.dtype(dt) == np.dtype(dtype)
        out = ring.read(3, shape, dt, crc)  # checksum-verified round trip
        assert out.dtype == arr.dtype
        np.testing.assert_array_equal(out, arr)

    def test_read_returns_owning_copy(self, ring):
        arr = np.arange(8, dtype=np.float32)
        ring.write(0, arr)
        out = ring.read(0, (8,), "<f4")
        ring.write(0, np.zeros(8, np.float32))  # slot reused
        np.testing.assert_array_equal(out, arr)  # copy unaffected

    def test_non_contiguous_input_handled(self, ring):
        arr = np.arange(32, dtype=np.float32).reshape(4, 8)[:, ::2]
        shape, dt, crc = ring.write(0, arr)
        np.testing.assert_array_equal(ring.read(0, shape, dt, crc), arr)

    def test_slots_are_independent(self, ring):
        ring.write(0, np.full(4, 1.0, np.float32))
        ring.write(1, np.full(4, 2.0, np.float32))
        assert ring.read(0, (4,), "<f4")[0] == 1.0
        assert ring.read(1, (4,), "<f4")[0] == 2.0

    def test_oversized_write_rejected(self, ring):
        with pytest.raises(ValueError, match="slot capacity"):
            ring.write(0, np.zeros(1024, np.float64))

    def test_oversized_read_header_rejected(self, ring):
        with pytest.raises(ValueError, match="slots hold only"):
            ring.read(0, (1024,), "<f8")

    def test_corrupted_payload_detected(self, ring):
        """A slot clobbered after write must fail the checksum loudly —
        silent wrong bytes are the one unforgivable transport failure."""
        from repro.runtime.resilience import CorruptedPayloadError

        arr = np.arange(16, dtype=np.float32)
        shape, dt, crc = ring.write(2, arr)
        ring.corrupt(2)
        with pytest.raises(CorruptedPayloadError, match="checksum"):
            ring.read(2, shape, dt, crc)
        # without a crc the read is unverified (legacy behaviour)
        assert ring.read(2, shape, dt).shape == (16,)

    def test_read_without_crc_skips_verification(self, ring):
        arr = np.ones(4, np.float32)
        shape, dt, _ = ring.write(0, arr)
        np.testing.assert_array_equal(ring.read(0, shape, dt), arr)


class TestAttachedSide:
    def test_attach_sees_owner_writes(self, ring):
        arr = np.arange(6, dtype=np.float32)
        shape, dt, crc = ring.write(1, arr)
        attached = ShmSlotRing.attach(ring.name, ring.slots, ring.slot_bytes)
        try:
            np.testing.assert_array_equal(attached.read(1, shape, dt, crc), arr)
            # and the reverse direction (worker writes the response back)
            _, _, crc2 = attached.write(1, arr * 2)
            np.testing.assert_array_equal(ring.read(1, shape, dt, crc2), arr * 2)
        finally:
            attached.close()

    def test_attach_size_mismatch_rejected(self, ring):
        with pytest.raises(ValueError, match="were expected"):
            ShmSlotRing.attach(ring.name, ring.slots * 100, ring.slot_bytes)


class TestSlotLifecycle:
    def test_slot_bytes_aligned(self):
        with ShmSlotRing.create(slots=2, slot_bytes=100) as r:
            assert r.slot_bytes % 64 == 0 and r.slot_bytes >= 100

    @pytest.mark.parametrize("kwargs", [{"slots": 0, "slot_bytes": 64}, {"slots": 1, "slot_bytes": 0}])
    def test_create_validation(self, kwargs):
        with pytest.raises(ValueError):
            ShmSlotRing.create(**kwargs)
