"""Slot-batched frame build is byte-identical to the per-frame build.

The DU converts and compresses a slot's downlink grids in one pass, and
the RU digitizes a slot's pending uplink symbols in one pass.  These
twins prove that every packet byte and the RNG stream match the
one-(symbol, port)-at-a-time construction: per-frame draws, per-frame
fixed-point conversion and per-frame (or per-section) compression.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fronthaul.compression import (
    BFP_COMP_METH,
    MOD_COMP_METH,
    SAMPLES_PER_PRB,
    CompressionConfig,
    codec_for,
)
from repro.fronthaul.cplane import (
    CPlaneMessage,
    CPlaneSection,
    Direction,
    SectionType,
)
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.phy.geometry import Position
from repro.phy.iq import INT16_SCALE, QamModulator
from repro.ran.cell import CellConfig
from repro.ran.du import (
    DATA_QAM_ORDER,
    DL_FIXED_POINT_BACKOFF,
    IDLE_PRB_AMPLITUDE,
    DistributedUnit,
)
from repro.ran.ru import UL_NOISE_AMPLITUDE, UPLINK_BATCH_ROWS, RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow

NUM_PRB = 24
CODECS = [
    CompressionConfig(iq_width=9, comp_meth=BFP_COMP_METH),
    CompressionConfig(iq_width=4, comp_meth=MOD_COMP_METH),
]


def frame_to_int16(grid: np.ndarray, backoff: float) -> np.ndarray:
    """Per-frame fixed point: strided I/Q stores, round, saturate."""
    n_prbs = len(grid) // SAMPLES_PER_PRB
    scaled = (grid * (INT16_SCALE * backoff)).reshape(n_prbs, SAMPLES_PER_PRB)
    interleaved = np.empty((n_prbs, 2 * SAMPLES_PER_PRB))
    interleaved[:, 0::2] = scaled.real
    interleaved[:, 1::2] = scaled.imag
    return np.clip(np.round(interleaved), -32768, 32767).astype(np.int16)


def twin_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator at the same point of the same stream."""
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


# -- RU ----------------------------------------------------------------------


def make_ru(compression: CompressionConfig, n_ports: int) -> RadioUnit:
    return RadioUnit(
        ru_id=3,
        config=RuConfig(
            num_prb=NUM_PRB, n_antennas=n_ports, compression=compression
        ),
        seed=11,
    )


def uplink_cplane(ru, slot_time, port, sections, start_symbol, prach):
    message = CPlaneMessage(
        direction=Direction.UPLINK,
        time=SymbolTime(
            slot_time.frame, slot_time.subframe, slot_time.slot, start_symbol
        ),
        sections=[
            CPlaneSection(
                section_id=section_id,
                start_prb=start_prb,
                num_prb=num_prb,
                num_symbols=num_symbols,
            )
            for section_id, (start_prb, num_prb, num_symbols) in enumerate(
                sections, start=1
            )
        ],
        section_type=SectionType.PRACH if prach else SectionType.DATA,
        compression=ru.config.compression,
        filter_index=1 if prach else 0,
    )
    return make_packet(
        src=ru.du_mac,
        dst=ru.mac,
        message=message,
        seq_id=0,
        eaxc=EAxCId(du_port=0, ru_port=port),
    )


def air_signal(ru, position, time, port):
    """Deterministic air samples per (symbol, port); never uses ru.rng."""
    if (time.symbol + port) % 3 == 0:
        return None
    rng = np.random.default_rng(1000 * time.symbol + port)
    return 0.3 * (
        rng.normal(size=NUM_PRB * SAMPLES_PER_PRB)
        + 1j * rng.normal(size=NUM_PRB * SAMPLES_PER_PRB)
    )


def reference_uplink(rng, requests, air, compression):
    """Per-symbol seed construction: draw, add, convert, compress each
    section on its own.  Returns the section payloads of every request."""
    n_sc = NUM_PRB * SAMPLES_PER_PRB
    signal = np.zeros(n_sc, dtype=np.complex128)
    if air is not None:
        signal += air
    signal += rng.normal(0, UL_NOISE_AMPLITUDE, n_sc) + 1j * rng.normal(
        0, UL_NOISE_AMPLITUDE, n_sc
    )
    full_grid = frame_to_int16(signal, backoff=0.25)
    codec = codec_for(compression)
    return [
        [
            codec.compress(full_grid[start : min(start + count, NUM_PRB)])
            for start, count, _ in sections
        ]
        for sections in requests
    ]


slot_requests = st.lists(
    st.tuples(
        st.integers(0, 3),  # port
        st.booleans(),  # PRACH
        st.integers(0, 13),  # start symbol
        st.lists(
            st.tuples(
                st.integers(0, NUM_PRB + 2),  # start PRB (may be off-band)
                st.integers(1, NUM_PRB),  # num PRB (may overrun the band)
                st.integers(1, 14),  # num symbols
            ),
            min_size=1,
            max_size=3,
        ),
    ),
    min_size=0,
    max_size=6,
)


class TestRuSlotBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        compression=st.sampled_from(CODECS),
        n_ports=st.integers(1, 4),
        slots=st.lists(slot_requests, min_size=1, max_size=3),
        with_air=st.booleans(),
    )
    def test_slot_build_equals_per_symbol_build(
        self, compression, n_ports, slots, with_air
    ):
        batched, looped = make_ru(compression, n_ports), make_ru(compression, n_ports)
        position = Position(3, 4)
        signal_fn = air_signal if with_air else None
        for index, requests in enumerate(slots):
            slot_time = SymbolTime(index, 0, 0, 0)
            for ru in (batched, looped):
                for port, prach, start_symbol, sections in requests:
                    ru.receive(
                        uplink_cplane(
                            ru, slot_time, port % n_ports, sections,
                            start_symbol, prach,
                        )
                    )
            pending = looped.pending_uplink_symbols()
            assert pending == batched.pending_uplink_symbols()
            expected = []
            reference_rng = twin_rng(looped.rng)
            for time, port in pending:
                air = None if signal_fn is None else signal_fn(
                    looped, position, time, port
                )
                packets = looped.build_uplink(time, port, air_iq=air)
                reference = reference_uplink(
                    reference_rng,
                    [
                        [
                            (s.start_prb, s.num_prb, None)
                            for s in packet.message.sections
                        ]
                        for packet in packets
                    ],
                    air,
                    compression,
                )
                for packet, payloads in zip(packets, reference):
                    assert [
                        s.payload_bytes() for s in packet.message.sections
                    ] == payloads
                expected.extend(packets)
            looped.clear_uplink_requests(slot_time.slot_key())

            built = batched.build_uplink_slot(position, signal_fn)

            assert [p.pack() for p in built] == [p.pack() for p in expected]
            assert batched.pending_uplink_symbols() == []
            assert (
                batched.rng.bit_generator.state
                == looped.rng.bit_generator.state
                == reference_rng.bit_generator.state
            )
            assert batched.counters == looped.counters

    def test_tall_slot_spans_several_batches(self):
        compression = CODECS[0]
        batched, looped = make_ru(compression, 4), make_ru(compression, 4)
        slot_time = SymbolTime(0, 0, 0, 0)
        for ru in (batched, looped):
            for port in range(4):
                ru.receive(
                    uplink_cplane(ru, slot_time, port, [(0, NUM_PRB, 14)], 0, False)
                )
        pending = looped.pending_uplink_symbols()
        assert len(pending) > 3 * UPLINK_BATCH_ROWS
        expected = [
            packet
            for time, port in pending
            for packet in looped.build_uplink(
                time, port, air_iq=air_signal(looped, None, time, port)
            )
        ]
        built = batched.build_uplink_slot(Position(0, 0), air_signal)
        assert [p.pack() for p in built] == [p.pack() for p in expected]
        assert batched.rng.bit_generator.state == looped.rng.bit_generator.state

    def test_slot_build_checks_air_length(self):
        ru = make_ru(CODECS[0], 1)
        slot_time = SymbolTime(0, 0, 0, 0)
        ru.receive(uplink_cplane(ru, slot_time, 0, [(0, NUM_PRB, 1)], 0, False))
        with pytest.raises(ValueError, match="subcarriers"):
            ru.build_uplink_slot(
                Position(0, 0), lambda *_: np.ones(10, dtype=complex)
            )

    def test_empty_slot_builds_nothing(self):
        ru = make_ru(CODECS[0], 2)
        state = ru.rng.bit_generator.state
        assert ru.build_uplink_slot(Position(0, 0), air_signal) == []
        assert ru.rng.bit_generator.state == state


# -- DU ----------------------------------------------------------------------


def recording_du(symbols_per_slot, compression) -> DistributedUnit:
    cell = CellConfig(
        pci=7, bandwidth_hz=20_000_000, n_antennas=4, max_dl_layers=4
    )
    du = DistributedUnit(
        du_id=2,
        cell=cell,
        symbols_per_slot=symbols_per_slot,
        record_reference=True,
        seed=5,
        compression=compression,
    )
    du.scheduler.add_ue("a", dl_layers=4)
    du.scheduler.add_ue("b", dl_layers=2)
    du.scheduler.update_ue_quality("a", dl_aggregate_se=12.0)
    du.scheduler.update_ue_quality("b", dl_aggregate_se=6.0)
    du.attach_flow("a", ConstantBitrateFlow(60, "dl"), Direction.DOWNLINK)
    du.attach_flow("b", ConstantBitrateFlow(25, "dl"), Direction.DOWNLINK)
    return du


def reference_frame(rng, du, allocations, slot, symbol, port):
    """The per-(symbol, port) seed draw and conversion of one DL frame."""
    n_sc = du.cell.num_prb * SAMPLES_PER_PRB
    grid = rng.normal(0, IDLE_PRB_AMPLITUDE, n_sc) + 1j * rng.normal(
        0, IDLE_PRB_AMPLITUDE, n_sc
    )
    modulator = QamModulator(DATA_QAM_ORDER)
    for allocation in allocations:
        if port >= allocation.layers:
            continue
        start = allocation.start_prb * SAMPLES_PER_PRB
        count = allocation.num_prb * SAMPLES_PER_PRB
        grid[start : start + count] = modulator.modulate(
            rng.integers(0, DATA_QAM_ORDER, count)
        )
    if (
        du.cell.is_ssb_slot(slot)
        and port == 0
        and symbol in du.cell.ssb_symbols
    ):
        ssb_start, _ = du.cell.ssb_prb_range
        ssb = du.ssb_reference()
        start = ssb_start * SAMPLES_PER_PRB
        grid[start : start + len(ssb)] = ssb
    return frame_to_int16(grid, DL_FIXED_POINT_BACKOFF)


class TestDuSlotBatch:
    @pytest.mark.parametrize("symbols_per_slot", [1, 2, None])
    @pytest.mark.parametrize("compression", CODECS, ids=["bfp9", "modcomp4"])
    def test_slot_build_equals_per_frame_build(self, symbols_per_slot, compression):
        du = recording_du(symbols_per_slot, compression)
        codec = codec_for(compression)
        reference_rng = twin_rng(du.rng)
        scheduled = {}
        schedule_slot = du.scheduler.schedule_slot

        def recording_schedule(absolute_slot):
            allocations = schedule_slot(absolute_slot)
            scheduled[absolute_slot] = allocations
            return allocations

        du.scheduler.schedule_slot = recording_schedule
        frames = 0
        for _ in range(12):
            slot = du.clock.current_slot
            uplane = [p for p in du.advance_slot() if p.is_uplane]
            dl_allocations = [
                a for a in scheduled[slot] if a.direction is Direction.DOWNLINK
            ]
            for packet in uplane:
                time, port = packet.time, packet.eaxc.ru_port
                (section,) = packet.message.sections
                recorded = du.dl_reference[(time, port)]
                assert codec.compress(recorded) == section.payload_bytes()
                expected = reference_frame(
                    reference_rng, du, dl_allocations, slot, time.symbol, port
                )
                assert np.array_equal(recorded, expected)
                frames += 1
            assert reference_rng.bit_generator.state == du.rng.bit_generator.state
        assert frames > 0
