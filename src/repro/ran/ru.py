"""A Cat-A O-RAN Radio Unit model.

The RU is deliberately simple (Cat-A: all MIMO processing happens at the
DU, Section 4.2): it obeys C-plane instructions, converts downlink U-plane
IQ to air samples, and digitizes air samples back into uplink U-plane
packets covering exactly the PRB ranges the C-plane requested — including
the full-spectrum requests the RU-sharing middlebox widens ``numPrb`` to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.fronthaul.compression import SAMPLES_PER_PRB, CompressionConfig, codec_for
from repro.fronthaul.cplane import CPlaneMessage, Direction, SectionType
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket, make_packet
from repro.fronthaul.spectrum import PrbGrid
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.phy.geometry import Position
from repro.phy.iq import int16_to_iq, iq_to_int16

#: Receiver noise amplitude of the uplink digitizer (relative to full scale).
UL_NOISE_AMPLITUDE = 2.0e-4

#: Most symbol/port grids digitized in one pass.  Per grid, stacks of
#: 7-10 rows ran fastest on a 2-vCPU x86 host, for 51-, 106- and 273-PRB
#: carriers alike, and 28-row stacks ran 20-30% slower.
UPLINK_BATCH_ROWS = 8


@dataclass(frozen=True)
class RuConfig:
    """RU hardware parameters (a Foxconn RPQN-7800 equivalent)."""

    num_prb: int = 273
    center_frequency_hz: float = 3.46e9
    n_antennas: int = 4
    scs_hz: int = 30_000
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    tx_power_dbm_per_port: float = 24.0

    @property
    def grid(self) -> PrbGrid:
        return PrbGrid(self.center_frequency_hz, self.num_prb, self.scs_hz)


@dataclass
class _UplinkRequest:
    """A pending C-plane request the RU must satisfy with U-plane data."""

    sections: List[Tuple[int, int, int]]  # (section_id, start_prb, num_prb)
    is_prach: bool = False
    start_symbol: int = 0
    num_symbols: int = 1


#: ``signal_fn(ru, position, time, port)``: the air samples one RU antenna
#: receives for one uplink symbol, or None for receiver noise only.
UplinkSignalFn = Callable[
    ["RadioUnit", Position, SymbolTime, int], Optional[np.ndarray]
]


@dataclass
class RuCounters:
    cplane_received: int = 0
    uplane_received: int = 0
    uplane_sent: int = 0
    unsolicited_uplane: int = 0


class RadioUnit:
    """One physical RU on the fronthaul.

    Downlink: C-plane messages open transmission windows; U-plane packets
    fill the transmit grid (only PRBs covered by a C-plane section are
    accepted — unsolicited data is dropped, as real RUs do).

    Uplink: ``build_uplink_slot(position, signal_fn)`` converts the air
    samples of every pending symbol into U-plane packets answering the
    recorded C-plane requests; ``build_uplink(time, port, air_iq)`` does
    the same for one symbol/port.
    """

    def __init__(
        self,
        ru_id: int,
        config: RuConfig = RuConfig(),
        mac: Optional[MacAddress] = None,
        du_mac: Optional[MacAddress] = None,
        seed: int = 0,
    ):
        self.ru_id = ru_id
        self.config = config
        self.mac = mac or MacAddress.from_int(0x02_00_00_00_20_00 + ru_id)
        self.du_mac = du_mac or MacAddress.from_int(0x02_00_00_00_00_00)
        self.counters = RuCounters()
        self.rng = np.random.default_rng(seed ^ (ru_id * 7919))
        #: DL transmit grids: {(time, port): int16 samples (num_prb, 24)}.
        self._tx_grids: Dict[Tuple[SymbolTime, int], np.ndarray] = {}
        #: DL C-plane windows: {(slot_key, port): [(start, end) PRB ranges]}.
        self._dl_windows: Dict[Tuple, List[Tuple[int, int]]] = {}
        #: Pending UL requests: {(slot_key, port, is_prach): _UplinkRequest}.
        #: Data and PRACH requests are distinct: they cover different
        #: channels and the RU answers each with its own U-plane stream.
        self._ul_requests: Dict[Tuple, _UplinkRequest] = {}
        self._seq: Dict[int, int] = {}

    # -- fronthaul reception -----------------------------------------------

    def receive(self, packet: FronthaulPacket) -> None:
        if packet.eth.dst != self.mac:
            raise ValueError(
                f"RU {self.ru_id} received packet for {packet.eth.dst}"
            )
        if packet.is_cplane:
            self._receive_cplane(packet)
        else:
            self._receive_dl_uplane(packet)

    def _receive_cplane(self, packet: FronthaulPacket) -> None:
        self.counters.cplane_received += 1
        message: CPlaneMessage = packet.message
        port = packet.eaxc.ru_port
        key = (message.time.slot_key(), port)
        if message.direction is Direction.DOWNLINK:
            windows = self._dl_windows.setdefault(key, [])
            for section in message.sections:
                windows.append(section.prb_range)
        else:
            is_prach = message.section_type is SectionType.PRACH
            request = self._ul_requests.setdefault(
                key + (is_prach,),
                _UplinkRequest(sections=[], is_prach=is_prach),
            )
            request.start_symbol = message.time.symbol
            for section in message.sections:
                request.sections.append(
                    (section.section_id, section.start_prb, section.num_prb)
                )
                request.num_symbols = max(request.num_symbols, section.num_symbols)

    def _receive_dl_uplane(self, packet: FronthaulPacket) -> None:
        message: UPlaneMessage = packet.message
        if message.direction is not Direction.DOWNLINK:
            raise ValueError("RU received uplink U-plane on downlink path")
        port = packet.eaxc.ru_port
        if port >= self.config.n_antennas:
            self.counters.unsolicited_uplane += 1
            return
        windows = self._dl_windows.get((message.time.slot_key(), port))
        if not windows:
            self.counters.unsolicited_uplane += 1
            return
        self.counters.uplane_received += 1
        grid = self._tx_grids.setdefault(
            (message.time, port),
            np.zeros((self.config.num_prb, 2 * SAMPLES_PER_PRB), np.int16),
        )
        for section in message.sections:
            start, end = section.prb_range
            end = min(end, self.config.num_prb)
            if end <= start:
                continue
            if not any(w_start <= start and end <= w_end for w_start, w_end in windows):
                # PRBs outside every C-plane window are ignored.
                continue
            grid[start:end] = section.iq_samples()[: end - start]

    # -- air interface -------------------------------------------------------

    def transmit_grid(self, time: SymbolTime, port: int) -> Optional[np.ndarray]:
        """Complex air samples for one symbol/port (None if idle)."""
        samples = self._tx_grids.get((time, port))
        if samples is None:
            return None
        return int16_to_iq(samples)

    def transmitted_symbols(self) -> List[Tuple[SymbolTime, int]]:
        return sorted(self._tx_grids, key=lambda k: (k[0], k[1]))

    def build_uplink(
        self,
        time: SymbolTime,
        port: int,
        air_iq: Optional[np.ndarray] = None,
        noise_amplitude: float = UL_NOISE_AMPLITUDE,
    ) -> List[FronthaulPacket]:
        """Digitize air samples into U-plane packets for one symbol/port.

        ``air_iq`` is the complex full-band signal arriving at this
        antenna (None means only receiver noise).  Only PRB ranges with a
        recorded C-plane request are emitted, honoring O-RAN semantics.
        The one-symbol case of :meth:`build_uplink_slot`; the requests
        stay recorded.
        """
        requests = self._requests_at(time, port)
        if not requests:
            return []
        return self._digitize([(time, port, requests, air_iq)], noise_amplitude)

    def build_uplink_slot(
        self, position: Position, signal_fn: Optional[UplinkSignalFn] = None
    ) -> List[FronthaulPacket]:
        """Answer every pending uplink request in one pass, then drop them.

        ``signal_fn(ru, position, time, port)`` supplies the air samples
        of each pending symbol/port (None, or a None result, means only
        receiver noise), called in :meth:`pending_uplink_symbols` order.
        The packets, their sequence numbers and this RU's RNG stream are
        those of calling :meth:`build_uplink` for each pending pair in
        that order.
        """
        items = []
        for time, port in self.pending_uplink_symbols():
            air = None if signal_fn is None else signal_fn(self, position, time, port)
            items.append((time, port, self._requests_at(time, port), air))
        self._ul_requests.clear()
        return self._digitize(items, UL_NOISE_AMPLITUDE)

    def _requests_at(self, time: SymbolTime, port: int) -> List[_UplinkRequest]:
        """The data then PRACH requests covering one symbol/port."""
        return [
            request
            for is_prach in (False, True)
            if (request := self._ul_requests.get(
                (time.slot_key(), port, is_prach)
            )) is not None
            and request.start_symbol
            <= time.symbol
            < request.start_symbol + request.num_symbols
        ]

    def _digitize(self, items, noise_amplitude: float) -> List[FronthaulPacket]:
        """U-plane packets for ``(time, port, requests, air_iq)`` items.

        Up to :data:`UPLINK_BATCH_ROWS` items share one noise draw, one
        fixed-point conversion and one codec pass.  A ``(k, 2, n_sc)``
        draw fills in C order, so the draws are the same stream as one
        real-then-imaginary pair per item.  Each section's payload is the
        byte slice of its PRB range, as both codecs compress every PRB on
        its own.
        """
        compression = self.config.compression
        codec = codec_for(compression)
        n_sc = self.config.num_prb * SAMPLES_PER_PRB
        row_bytes = self.config.num_prb * compression.prb_payload_bytes()
        packets = []
        for first in range(0, len(items), UPLINK_BATCH_ROWS):
            batch = items[first : first + UPLINK_BATCH_ROWS]
            noise = self.rng.normal(0, noise_amplitude, (len(batch), 2, n_sc))
            signal = noise[:, 0] + 1j * noise[:, 1]
            for row, (_, _, _, air_iq) in enumerate(batch):
                if air_iq is None:
                    continue
                if len(air_iq) != n_sc:
                    raise ValueError(
                        f"air IQ has {len(air_iq)} subcarriers, RU grid has {n_sc}"
                    )
                signal[row] += air_iq
            samples = iq_to_int16(signal).reshape(-1, 2 * SAMPLES_PER_PRB)
            payload = codec.compress(samples)
            for row, (time, port, requests, _) in enumerate(batch):
                row_payload = payload[row * row_bytes : (row + 1) * row_bytes]
                for request in requests:
                    packets.append(
                        self._uplink_packet(time, port, request, row_payload)
                    )
        self.counters.uplane_sent += len(packets)
        return packets

    def _uplink_packet(
        self,
        time: SymbolTime,
        port: int,
        request: _UplinkRequest,
        row_payload: bytes,
    ) -> FronthaulPacket:
        """One request's U-plane packet, cut from its symbol's payload."""
        compression = self.config.compression
        prb_bytes = compression.prb_payload_bytes()
        sections = []
        for section_id, start_prb, num_prb in request.sections:
            end = min(start_prb + num_prb, self.config.num_prb)
            sections.append(
                UPlaneSection(
                    section_id=section_id,
                    start_prb=start_prb,
                    num_prb=max(end - start_prb, 0),
                    payload=row_payload[start_prb * prb_bytes : end * prb_bytes],
                    compression=compression,
                )
            )
        message = UPlaneMessage(
            direction=Direction.UPLINK,
            time=time,
            sections=sections,
            filter_index=1 if request.is_prach else 0,
        )
        return make_packet(
            src=self.mac,
            dst=self.du_mac,
            message=message,
            seq_id=self._next_seq(port),
            eaxc=EAxCId(du_port=0, ru_port=port),
        )

    def pending_uplink_symbols(self) -> List[Tuple[SymbolTime, int]]:
        """(time, port) pairs the RU owes uplink U-plane packets for.

        One entry per requested symbol, in the order
        :meth:`build_uplink_slot` answers them.
        """
        result = set()
        for (slot_key, port, _), request in self._ul_requests.items():
            frame, subframe, slot = slot_key
            last = min(request.start_symbol + request.num_symbols, 14)
            for symbol in range(request.start_symbol, last):
                result.add((SymbolTime(frame, subframe, slot, symbol), port))
        return sorted(result, key=lambda item: (item[0], item[1]))

    def clear_uplink_requests(self, slot_key: Tuple) -> None:
        """Drop satisfied requests for a slot (after packets were built)."""
        for key in [k for k in self._ul_requests if k[0] == slot_key]:
            del self._ul_requests[key]

    def _next_seq(self, port: int) -> int:
        seq = self._seq.get(port, 0)
        self._seq[port] = (seq + 1) % 256
        return seq

    # -- housekeeping ---------------------------------------------------------

    def flush_before(self, absolute_slot_exclusive: int, numerology) -> None:
        """Drop state older than a slot index (bounded memory in long runs)."""
        def slot_of(key_time: SymbolTime) -> int:
            return key_time.absolute_slot(numerology)

        self._tx_grids = {
            key: value
            for key, value in self._tx_grids.items()
            if slot_of(key[0]) >= absolute_slot_exclusive
        }
