"""The Distributed Unit: fronthaul packet generation and consumption.

The DU model drives one cell: each slot it runs the MAC scheduler, then
emits the C-plane scheduling messages and downlink U-plane IQ packets the
paper's middleboxes intercept, and consumes the uplink U-plane packets the
RU (or a middlebox acting on its behalf) returns.

The packet stream is standards-shaped: C-plane section type 1 for data,
type 3 for PRACH, per-antenna-port eAxC flows with sequence numbers, BFP
compressed U-plane payloads, and an SSB transmitted on the first antenna
port only (the property the dMIMO middlebox's SSB replication fixes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fronthaul.compression import SAMPLES_PER_PRB, codec_for
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction, SectionType
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket, make_packet
from repro.fronthaul.timing import SlotClock, SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.phy.iq import QamModulator, iq_to_int16
from repro.ran.cell import CellConfig
from repro.ran.scheduler import MacScheduler, PrbAllocation
from repro.ran.stacks import SRSRAN, VendorProfile

#: Amplitude of the near-zero noise the DU emits on idle PRBs (relative to
#: full scale).  Idle PRBs therefore compress with BFP exponent 0 — the
#: contrast Algorithm 1 thresholds on.
IDLE_PRB_AMPLITUDE = 2.0e-4

#: QAM order used to synthesize data PRBs (16QAM keeps decode robust under
#: the channel noise of the end-to-end tests).
DATA_QAM_ORDER = 16

#: Fixed-point drive level of the DL transmit grid.  Real L1s run a few dB
#: below full scale, which is what makes BFP exponents discriminate
#: data from idle even at wide mantissas (Radisys' 14-bit profile).
DL_FIXED_POINT_BACKOFF = 0.7


@dataclass
class UplinkReception:
    """Bookkeeping for one received uplink U-plane packet."""

    time: SymbolTime
    ru_port: int
    sections: List[UPlaneSection]


@dataclass
class DuCounters:
    """Throughput accounting for the experiments."""

    dl_bits: int = 0
    ul_bits: int = 0
    dl_packets: int = 0
    ul_packets: int = 0
    cplane_packets: int = 0
    prach_detections: int = 0


class DistributedUnit:
    """One DU instance driving one cell over the fronthaul.

    Parameters
    ----------
    du_id:
        Stable identifier; also used as the eAxC DU-port id and section id
        base in the RU-sharing scenarios.
    cell, profile:
        Cell configuration and vendor stack profile.
    mac, ru_mac:
        Fronthaul Ethernet addresses of this DU and its (virtual) RU.
    symbols_per_slot:
        How many data symbols per slot to emit U-plane packets for.  The
        protocol content is identical for every symbol, so tests and
        packet-level experiments keep this small; ``None`` emits all.
    """

    def __init__(
        self,
        du_id: int,
        cell: CellConfig,
        profile: VendorProfile = SRSRAN,
        mac: Optional[MacAddress] = None,
        ru_mac: Optional[MacAddress] = None,
        symbols_per_slot: Optional[int] = 2,
        record_reference: bool = False,
        seed: int = 0,
        compression=None,
    ):
        self.du_id = du_id
        self.cell = cell
        self.profile = profile
        #: Negotiated wire codec for this cell's eAxC streams; defaults
        #: to the stack's BFP parameters when no negotiation happened.
        self.compression = (
            profile.compression if compression is None else compression
        )
        self.mac = mac or MacAddress.from_int(0x02_00_00_00_00_00 + du_id)
        self.ru_mac = ru_mac or MacAddress.from_int(0x02_00_00_00_10_00 + du_id)
        self.scheduler = MacScheduler(cell, profile)
        self.clock = SlotClock(cell.numerology)
        self.symbols_per_slot = symbols_per_slot
        self.record_reference = record_reference
        self.counters = DuCounters()
        self.rng = np.random.default_rng(seed)
        self.modulator = QamModulator(DATA_QAM_ORDER)
        self.flows: Dict[str, Tuple[object, Direction]] = {}
        self.uplink_receptions: List[UplinkReception] = []
        self.prach_receptions: List[UplinkReception] = []
        #: Reference DL int16 grids for tests: {(time, port): samples}.
        self.dl_reference: Dict[Tuple, np.ndarray] = {}
        #: UL allocations awaiting U-plane data: {slot_key: [allocations]}.
        self._pending_ul: Dict[Tuple, List[PrbAllocation]] = {}
        self._seq: Dict[int, int] = {}

    # -- traffic -------------------------------------------------------------

    def attach_flow(self, ue_id: str, flow, direction: Direction) -> None:
        """Bind a traffic generator to an attached UE."""
        if ue_id not in self.scheduler.ues:
            raise KeyError(f"UE {ue_id} is not attached")
        self.flows[f"{ue_id}/{flow.name}/{direction.name}"] = (flow, direction, ue_id)

    def _enqueue_traffic(self) -> None:
        slot_ns = self.cell.numerology.slot_duration_ns
        for flow, direction, ue_id in self.flows.values():
            bits = flow.bits_in_slot(slot_ns)
            if bits <= 0:
                continue
            if direction is Direction.DOWNLINK:
                self.scheduler.enqueue_dl(ue_id, bits)
            else:
                self.scheduler.enqueue_ul(ue_id, bits)

    # -- slot processing -------------------------------------------------------

    def advance_slot(self) -> List[FronthaulPacket]:
        """Run one slot: schedule, emit C-plane and DL U-plane packets."""
        absolute_slot = self.clock.current_slot
        slot_time = self.clock.advance()
        self._enqueue_traffic()
        allocations = self.scheduler.schedule_slot(absolute_slot)
        dl_allocs = [a for a in allocations if a.direction is Direction.DOWNLINK]
        ul_allocs = [a for a in allocations if a.direction is Direction.UPLINK]
        packets: List[FronthaulPacket] = []
        packets.extend(self._build_dl_cplane(slot_time, absolute_slot, dl_allocs))
        packets.extend(self._build_ul_cplane(slot_time, absolute_slot, ul_allocs))
        packets.extend(self._build_prach_cplane(slot_time, absolute_slot))
        packets.extend(self._build_dl_uplane(slot_time, absolute_slot, dl_allocs))
        if ul_allocs:
            self._pending_ul[slot_time.slot_key()] = ul_allocs
        for allocation in dl_allocs:
            self.counters.dl_bits += allocation.bits
        return packets

    # -- C-plane construction --------------------------------------------------

    def _next_seq(self, eaxc_int: int) -> int:
        seq = self._seq.get(eaxc_int, 0)
        self._seq[eaxc_int] = (seq + 1) % 256
        return seq

    def _dl_symbols(self, absolute_slot: int) -> Tuple[int, ...]:
        return self.profile.tdd.downlink_symbols(absolute_slot)

    def _ul_symbols(self, absolute_slot: int) -> Tuple[int, ...]:
        return self.profile.tdd.uplink_symbols(absolute_slot)

    def _build_dl_cplane(
        self,
        slot_time: SymbolTime,
        absolute_slot: int,
        allocations: List[PrbAllocation],
    ) -> List[FronthaulPacket]:
        symbols = self._dl_symbols(absolute_slot)
        if not symbols:
            return []
        if not allocations and not self.cell.is_ssb_slot(absolute_slot):
            # Nothing to transmit this slot: no C-plane, no U-plane.  The
            # fronthaul goes quiet on idle cells, which is what makes the
            # XDP datapath's CPU utilization traffic-proportional (Fig 16).
            return []
        # When transmitting, the stacks we model send full-band U-plane
        # messages (Figure 2 shows PRB 0-105 in one section) with
        # near-zero samples on idle PRBs.  Which PRBs hold user data is
        # *not* visible from the C-plane — the property that makes
        # Algorithm 1's exponent-based utilization estimate necessary.
        packets = []
        for port in range(self.cell.n_antennas):
            message = CPlaneMessage(
                direction=Direction.DOWNLINK,
                time=SymbolTime(
                    slot_time.frame, slot_time.subframe, slot_time.slot, symbols[0]
                ),
                sections=[
                    CPlaneSection(
                        section_id=(self.du_id * 256) % 4096,
                        start_prb=0,
                        num_prb=self.cell.num_prb,
                        num_symbols=len(symbols),
                    )
                ],
                compression=self.compression,
            )
            eaxc = EAxCId(du_port=self.du_id, ru_port=port)
            packets.append(self._emit(message, eaxc))
        return packets

    def _build_ul_cplane(
        self,
        slot_time: SymbolTime,
        absolute_slot: int,
        allocations: List[PrbAllocation],
    ) -> List[FronthaulPacket]:
        symbols = self._ul_symbols(absolute_slot)
        if not symbols or not allocations:
            # No uplink grants, no C-plane: a DU with no traffic stays
            # silent — the uncertainty the RU-sharing middlebox's numPrb
            # widening works around (Section 4.3).
            return []
        packets = []
        for port in range(self.cell.n_antennas):
            message = CPlaneMessage(
                direction=Direction.UPLINK,
                time=SymbolTime(
                    slot_time.frame, slot_time.subframe, slot_time.slot, symbols[0]
                ),
                sections=[
                    CPlaneSection(
                        section_id=(self.du_id * 256) % 4096,
                        start_prb=0,
                        num_prb=self.cell.num_prb,
                        num_symbols=len(symbols),
                    )
                ],
                compression=self.compression,
            )
            eaxc = EAxCId(du_port=self.du_id, ru_port=port)
            packets.append(self._emit(message, eaxc))
        return packets

    def _build_prach_cplane(
        self, slot_time: SymbolTime, absolute_slot: int
    ) -> List[FronthaulPacket]:
        if not self.cell.is_prach_slot(absolute_slot):
            return []
        symbols = self._ul_symbols(absolute_slot)
        if not symbols:
            return []
        section = CPlaneSection(
            section_id=self.du_id % 4096,
            start_prb=0,
            num_prb=self.cell.prach_num_prb,
            num_symbols=min(len(symbols), 4),
            freq_offset=self.cell.prach_freq_offset,
        )
        message = CPlaneMessage(
            direction=Direction.UPLINK,
            time=SymbolTime(
                slot_time.frame, slot_time.subframe, slot_time.slot, symbols[0]
            ),
            sections=[section],
            section_type=SectionType.PRACH,
            compression=self.compression,
            filter_index=1,  # PRACH filter
        )
        eaxc = EAxCId(du_port=self.du_id, ru_port=0)
        return [self._emit(message, eaxc)]

    # -- DL U-plane construction ----------------------------------------------

    def _build_dl_uplane(
        self,
        slot_time: SymbolTime,
        absolute_slot: int,
        allocations: List[PrbAllocation],
    ) -> List[FronthaulPacket]:
        symbols = self._dl_symbols(absolute_slot)
        is_ssb_slot = self.cell.is_ssb_slot(absolute_slot)
        if self.symbols_per_slot is not None:
            if is_ssb_slot:
                # Keep SSB symbols in the simulated subset so SSB-dependent
                # behaviour (dMIMO replication) is exercised.
                preferred = [s for s in self.cell.ssb_symbols if s in symbols]
                others = [s for s in symbols if s not in preferred]
                symbols = sorted(
                    (preferred + others)[: self.symbols_per_slot]
                )
            else:
                symbols = symbols[: self.symbols_per_slot]
        if not allocations and not is_ssb_slot:
            return []
        # Fill the slot's (symbol, port) grids in emission order, which is
        # the order of the RNG draws, then convert and compress them in one
        # pass; each packet's payload is its byte slice.
        streams = list(itertools.product(symbols, range(self.cell.n_antennas)))
        n_prb = self.cell.num_prb
        grids = np.empty((len(streams), n_prb * SAMPLES_PER_PRB), np.complex128)
        for row, (symbol, port) in enumerate(streams):
            grids[row] = self._symbol_grid(allocations, port, symbol, is_ssb_slot)
        samples = iq_to_int16(grids, backoff=DL_FIXED_POINT_BACKOFF)
        payload = codec_for(self.compression).compress(
            samples.reshape(-1, 2 * SAMPLES_PER_PRB)
        )
        row_bytes = n_prb * self.compression.prb_payload_bytes()
        packets = []
        for row, (symbol, port) in enumerate(streams):
            time = SymbolTime(
                slot_time.frame, slot_time.subframe, slot_time.slot, symbol
            )
            section = UPlaneSection(
                section_id=self.du_id % 4096,
                start_prb=0,
                num_prb=n_prb,
                payload=payload[row * row_bytes : (row + 1) * row_bytes],
                compression=self.compression,
            )
            message = UPlaneMessage(
                direction=Direction.DOWNLINK, time=time, sections=[section]
            )
            eaxc = EAxCId(du_port=self.du_id, ru_port=port)
            packets.append(self._emit(message, eaxc, uplane=True))
            if self.record_reference:
                self.dl_reference[(time, port)] = samples[row]
        return packets

    def _symbol_grid(
        self,
        allocations: List[PrbAllocation],
        port: int,
        symbol: int,
        is_ssb_slot: bool,
    ) -> np.ndarray:
        """Build one symbol's complex grid for one antenna port."""
        n_sc = self.cell.num_prb * SAMPLES_PER_PRB
        noise = self.rng.normal(0, IDLE_PRB_AMPLITUDE, (2, n_sc))
        complex_grid = noise[0] + 1j * noise[1]
        for allocation in allocations:
            if port >= allocation.layers:
                continue
            start = allocation.start_prb * SAMPLES_PER_PRB
            count = allocation.num_prb * SAMPLES_PER_PRB
            data_symbols = self.rng.integers(0, DATA_QAM_ORDER, count)
            complex_grid[start : start + count] = self.modulator.modulate(
                data_symbols
            )
        if is_ssb_slot and port == 0 and symbol in self.cell.ssb_symbols:
            ssb_start, ssb_end = self.cell.ssb_prb_range
            start = ssb_start * SAMPLES_PER_PRB
            count = (ssb_end - ssb_start) * SAMPLES_PER_PRB
            complex_grid[start : start + count] = self._ssb_waveform(count)
        return complex_grid

    def _ssb_waveform(self, n_samples: int) -> np.ndarray:
        """Deterministic PSS/SSS-like sequence derived from the PCI.

        Real SSBs encode the cell id in their sequences; a PCI-seeded QPSK
        sequence preserves the property the dMIMO middlebox needs (the SSB
        is recognisable, constant, and distinct per cell).
        """
        rng = np.random.default_rng(self.cell.pci)
        qpsk = QamModulator(4)
        return qpsk.modulate(rng.integers(0, 4, n_samples))

    def ssb_reference(self) -> np.ndarray:
        """The cell's SSB waveform (used by tests to locate SSB copies)."""
        ssb_start, ssb_end = self.cell.ssb_prb_range
        return self._ssb_waveform((ssb_end - ssb_start) * SAMPLES_PER_PRB)

    def _emit(self, message, eaxc: EAxCId, uplane: bool = False) -> FronthaulPacket:
        packet = make_packet(
            src=self.mac,
            dst=self.ru_mac,
            message=message,
            seq_id=self._next_seq(eaxc.to_int()),
            eaxc=eaxc,
        )
        if uplane:
            self.counters.dl_packets += 1
        else:
            self.counters.cplane_packets += 1
        return packet

    # -- uplink consumption ----------------------------------------------------

    def receive(self, packet: FronthaulPacket) -> None:
        """Consume an uplink U-plane packet (from the RU or a middlebox)."""
        if not packet.is_uplane or packet.direction is not Direction.UPLINK:
            raise ValueError("DU only receives uplink U-plane packets")
        reception = UplinkReception(
            time=packet.time,
            ru_port=packet.eaxc.ru_port,
            sections=list(packet.message.sections),
        )
        if packet.message.filter_index == 1:
            self.prach_receptions.append(reception)
            self.counters.prach_detections += 1
            return
        self.uplink_receptions.append(reception)
        self.counters.ul_packets += 1
        self._account_uplink(reception)

    def _account_uplink(self, reception: UplinkReception) -> None:
        """Credit UL bits for allocations covered by a received packet.

        Bits are credited once per slot (on the first antenna port's
        arrival) per allocation, pro-rated over the slot's UL symbols.
        """
        if reception.ru_port != 0:
            return
        key = reception.time.slot_key()
        pending = self._pending_ul.get(key)
        if not pending:
            return
        symbols = max(
            len(self._ul_symbols(reception.time.absolute_slot(self.cell.numerology))),
            1,
        )
        covered = []
        for allocation in pending:
            for section in reception.sections:
                a_start, a_end = allocation.prb_range
                s_start, s_end = section.prb_range
                if s_start <= a_start and s_end >= a_end:
                    covered.append(allocation)
                    break
        for allocation in covered:
            self.counters.ul_bits += allocation.bits // symbols

    def uplink_iq(self, time: SymbolTime, ru_port: int) -> Optional[np.ndarray]:
        """Recover the full-band int16 uplink grid for a symbol/port."""
        for reception in self.uplink_receptions:
            if reception.time == time and reception.ru_port == ru_port:
                grid = np.zeros((self.cell.num_prb, 2 * SAMPLES_PER_PRB), np.int16)
                for section in reception.sections:
                    grid[
                        section.start_prb : section.start_prb + section.num_prb
                    ] = section.iq_samples()
                return grid
        return None


