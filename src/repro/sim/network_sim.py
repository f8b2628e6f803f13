"""The packet-level testbed: DUs, middleboxes, RUs and the air interface.

``FronthaulNetwork`` runs slot-synchronous packet exchange: every slot the
DUs emit their C-/U-plane packets, the middlebox chain processes them,
RUs accept scheduled downlink IQ and answer uplink C-plane requests with
digitized air samples, and the chain processes the uplink back to the DUs.

``RadioEnvironment`` models the air: downlink, each UE position receives
the gain-weighted sum of all RU transmissions plus noise; uplink, each RU
antenna receives the gain-weighted sum of all UE transmissions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.faults.link import ImpairedLink
    from repro.obs.deadline import DeadlineAccountant

import numpy as np

from repro.core.chain import MiddleboxChain
from repro.core.middlebox import Middlebox
from repro.fronthaul.packet import FronthaulPacket
from repro.fronthaul.timing import SymbolTime
from repro.phy.channel import ChannelModel, db_to_linear
from repro.phy.geometry import Position
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, UplinkSignalFn

#: Normalized fronthaul amplitude corresponding to the RU's rated power.
#: Air-domain gains are relative: what matters to decode correctness is
#: the signal-to-noise contrast, which the channel model sets.
REFERENCE_GAIN_DB = 0.0


@dataclass
class UeTransmission:
    """One UE's uplink air signal for a symbol: full-band complex grid."""

    position: Position
    iq: np.ndarray  # complex, full RU band (n_prb * 12 subcarriers)


class RadioEnvironment:
    """Air combining between RU antennas and UE positions."""

    def __init__(
        self,
        channel: Optional[ChannelModel] = None,
        reference_distance_m: float = 5.0,
    ):
        self.channel = channel or ChannelModel()
        # Gains are normalized to the path loss at a reference distance so
        # fronthaul fixed-point amplitudes stay in a sane range.
        self._reference_loss_db = self.channel.params.path_loss_db(
            reference_distance_m
        )

    def relative_gain(self, tx: Position, rx: Position) -> float:
        """Linear amplitude gain relative to the reference distance."""
        gain_db = self.channel.path_gain_db(tx, rx) + self._reference_loss_db
        return math.sqrt(db_to_linear(gain_db))

    def combine_downlink(
        self,
        ue_position: Position,
        transmissions: Sequence[Tuple[Position, np.ndarray]],
        noise_amplitude: float = 1.0e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """What a UE receives: gain-weighted sum of RU signals + noise."""
        rng = rng or np.random.default_rng()
        if not transmissions:
            raise ValueError("no transmissions to combine")
        n_sc = len(transmissions[0][1])
        out = np.zeros(n_sc, dtype=np.complex128)
        for ru_position, iq in transmissions:
            out += self.relative_gain(ru_position, ue_position) * np.asarray(iq)
        out += rng.normal(0, noise_amplitude, n_sc) + 1j * rng.normal(
            0, noise_amplitude, n_sc
        )
        return out

    def combine_uplink(
        self,
        ru_position: Position,
        transmissions: Sequence[UeTransmission],
        n_subcarriers: int,
    ) -> Optional[np.ndarray]:
        """What one RU antenna receives from all transmitting UEs."""
        if not transmissions:
            return None
        out = np.zeros(n_subcarriers, dtype=np.complex128)
        for tx in transmissions:
            if len(tx.iq) != n_subcarriers:
                raise ValueError("UE transmission grid size mismatch")
            out += self.relative_gain(tx.position, ru_position) * tx.iq
        return out


@dataclass
class SlotReport:
    """Per-slot accounting from :meth:`FronthaulNetwork.run_slot`."""

    absolute_slot: int
    dl_packets: int = 0
    ul_packets: int = 0
    undeliverable: int = 0
    #: Frames an endpoint's parser rejected (contained, not propagated).
    malformed: int = 0
    #: Frames the impaired wire absorbed this slot (loss/corruption).
    wire_dropped: int = 0
    #: Partial (degraded) merges delivered at the slot deadline.
    degraded_merges: int = 0
    #: Symbols abandoned at the slot deadline (nothing mergeable arrived).
    abandoned_merges: int = 0


class FronthaulNetwork:
    """Slot-synchronous fronthaul between DUs, a middlebox chain, and RUs.

    The chain is an ordered middlebox list applied downlink in order and
    uplink in reverse.  Packets are delivered by destination MAC; frames
    addressed to unknown MACs are counted as undeliverable (the fate of
    packets a middlebox forgot to redirect).
    """

    def __init__(
        self,
        middleboxes: Sequence[Middlebox] = (),
        environment: Optional[RadioEnvironment] = None,
        deadline_accountant: Optional["DeadlineAccountant"] = None,
        wire: Optional["ImpairedLink"] = None,
        deadline_flush: bool = False,
        isolate_faults: bool = True,
        breaker_threshold: int = 5,
        breaker_probation: int = 16,
        obs=None,
        name: str = "network",
        validator=None,
    ):
        self.name = name
        self.middleboxes = list(middleboxes)
        self.environment = environment or RadioEnvironment()
        self._dus: Dict[int, DistributedUnit] = {}
        self._rus: Dict[int, Tuple[RadioUnit, Position]] = {}
        self.reports: List[SlotReport] = []
        #: Optional per-slot latency budget checker (repro.obs.deadline):
        #: fed every slot's per-stage modelled processing time.
        self.deadline_accountant = deadline_accountant
        #: Optional impaired access wire (repro.faults.ImpairedLink): all
        #: traffic entering the middlebox chain passes through it, in
        #: both directions.
        self.wire = wire
        #: When set, every slot ends with a deadline sweep: middleboxes
        #: exposing ``flush_deadline`` (the DAS) merge-or-abandon symbols
        #: still waiting once their slot has passed.
        self.deadline_flush = deadline_flush
        #: Optional conformance validator
        #: (:class:`repro.conformance.WireValidator`): observes every
        #: post-chain burst at RU ingress (downlink) and DU ingress
        #: (uplink) — a pure observer, never drops or mutates frames.
        self.validator = validator
        #: The middleboxes run inside a fault-isolating chain: a raising
        #: stage is a counted drop guarded by a circuit breaker, never a
        #: crashed slot.
        self.chain: Optional[MiddleboxChain] = None
        if self.middleboxes:
            self.chain = MiddleboxChain(
                self.middleboxes,
                name=name,
                obs=obs,
                isolate_faults=isolate_faults,
                breaker_threshold=breaker_threshold,
                breaker_probation=breaker_probation,
            )

    def add_du(self, du: DistributedUnit) -> None:
        self._dus[du.mac.to_int()] = du

    def add_ru(self, ru: RadioUnit, position: Position = Position(0, 0)) -> None:
        self._rus[ru.mac.to_int()] = (ru, position)

    @property
    def dus(self) -> List[DistributedUnit]:
        return list(self._dus.values())

    @property
    def rus(self) -> List[RadioUnit]:
        return [ru for ru, _ in self._rus.values()]

    def ru_position(self, ru: RadioUnit) -> Position:
        return self._rus[ru.mac.to_int()][1]

    # -- chain application ---------------------------------------------------

    def _through_chain(
        self, packets: List[FronthaulPacket], uplink: bool
    ) -> List[FronthaulPacket]:
        if self.chain is None:
            return packets
        if uplink:
            return self.chain.process_uplink(packets)
        return self.chain.process_downlink(packets)

    def _carry(
        self, packets: List[FronthaulPacket], report: SlotReport
    ) -> List[FronthaulPacket]:
        """Pass a burst over the impaired access wire, if one is set."""
        if self.wire is None:
            return packets
        absorbed_before = self.wire.injector.stats.absorbed
        survivors = self.wire.carry(packets)
        report.wire_dropped += (
            self.wire.injector.stats.absorbed - absorbed_before
        )
        return survivors

    # -- slot loop ----------------------------------------------------------------

    def run_slot(
        self, uplink_signal_fn: Optional[UplinkSignalFn] = None
    ) -> SlotReport:
        """Advance every DU one slot and exchange all fronthaul packets."""
        if not self._dus:
            raise RuntimeError("no DUs in the network")
        absolute_slot = next(iter(self._dus.values())).clock.current_slot
        report = SlotReport(absolute_slot=absolute_slot)
        processing_before = [
            m.stats.processing_ns_total for m in self.middleboxes
        ]

        downlink: List[FronthaulPacket] = []
        for du in self._dus.values():
            downlink.extend(du.advance_slot())
        # Fronthaul timing windows close C-plane transmission before
        # U-plane transmission for a symbol, so across *all* DUs every
        # C-plane message precedes the U-plane data — the ordering the
        # RU-sharing middlebox's Algorithm 2 relies on.  Stable sort keeps
        # per-DU sequence numbers in order.
        downlink.sort(key=lambda packet: packet.is_uplane)
        downlink = self._carry(downlink, report)
        for packet in self._through_chain(downlink, uplink=False):
            if self.validator is not None:
                self.validator.observe(packet, tap=f"{self.name}:ru-ingress")
            entry = self._rus.get(packet.eth.dst.to_int())
            if entry is None:
                report.undeliverable += 1
                continue
            try:
                entry[0].receive(packet)
            except ValueError:
                # Damaged frame rejected at the RU: contained drop.
                report.malformed += 1
                continue
            report.dl_packets += 1

        uplink: List[FronthaulPacket] = []
        for ru, position in self._rus.values():
            uplink.extend(ru.build_uplink_slot(position, uplink_signal_fn))
        uplink = self._carry(uplink, report)
        for packet in self._through_chain(uplink, uplink=True):
            self._deliver_uplink(packet, report)

        if self.deadline_flush and self.chain is not None:
            self._flush_deadlines(absolute_slot, report)

        if self.deadline_accountant is not None:
            from repro.obs.deadline import account_middleboxes

            self.deadline_accountant.observe_slot(
                absolute_slot,
                account_middleboxes(self.middleboxes, processing_before),
            )
        self.reports.append(report)
        return report

    def _deliver_uplink(
        self, packet: FronthaulPacket, report: SlotReport
    ) -> None:
        if self.validator is not None:
            self.validator.observe(packet, tap=f"{self.name}:du-ingress")
        du = self._dus.get(packet.eth.dst.to_int())
        if du is None:
            report.undeliverable += 1
            return
        try:
            du.receive(packet)
        except ValueError:
            # Damaged frame rejected at the DU: contained drop.
            report.malformed += 1
            return
        report.ul_packets += 1

    def _flush_deadlines(
        self, absolute_slot: int, report: SlotReport
    ) -> None:
        """End-of-slot deadline sweep: partial-merge or abandon symbols
        still cached once their slot boundary has passed."""
        numerology = next(iter(self._dus.values())).cell.numerology
        boundary = SymbolTime.from_absolute_slot(
            absolute_slot + 1, numerology
        ).slot_key()
        for stage, middlebox in enumerate(self.middleboxes):
            flush = getattr(middlebox, "flush_deadline", None)
            if flush is None:
                continue
            flushed, abandoned = flush(boundary)
            report.abandoned_merges += abandoned
            if not flushed:
                continue
            report.degraded_merges += len(flushed)
            # A degraded merge leaves the DAS mid-chain: it still has to
            # traverse the uplink tail of the chain towards the DUs.
            # deadline_flush=False keeps lower hold-capable stages from
            # re-capturing a merge already forced out at the boundary.
            for packet in self.chain.process_uplink(
                flushed, source=stage, deadline_flush=False
            ):
                self._deliver_uplink(packet, report)

    def run(
        self,
        n_slots: int,
        uplink_signal_fn: Optional[UplinkSignalFn] = None,
    ) -> List[SlotReport]:
        return [self.run_slot(uplink_signal_fn) for _ in range(n_slots)]
