"""A minimal 5G core (the testbed uses Open5GS).

The middleboxes never see the core, but the end-to-end experiments do:
UEs must register before traffic flows, and the RU-sharing scenario runs
one core per MNO.  This model provides subscriber identity, registration
(attach), and PDU session establishment with per-session counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class Subscriber:
    """A provisioned SIM: IMSI plus the PLMN it belongs to."""

    imsi: str
    plmn: str = "00101"

    def __post_init__(self) -> None:
        if not self.imsi.isdigit() or not 14 <= len(self.imsi) <= 15:
            raise ValueError(f"malformed IMSI: {self.imsi!r}")


@dataclass
class PduSession:
    """An established data session; counters feed throughput accounting."""

    session_id: int
    imsi: str
    dl_bits: int = 0

    def account_downlink(self, bits: int) -> None:
        self.dl_bits += bits


class RegistrationError(Exception):
    """UE attempted to register with a core that does not know it."""


@dataclass
class CoreNetwork:
    """One MNO's core: subscriber database, AMF (registration), SMF (PDU).

    In the RU-sharing experiments each MNO runs its own instance, and UE
    association is forced by PLMN/PCI as in Section 6.2.3.
    """

    plmn: str = "00101"
    name: str = "open5gs"
    _subscribers: Dict[str, Subscriber] = field(default_factory=dict)
    _registered: Dict[str, bool] = field(default_factory=dict)
    _sessions: Dict[int, PduSession] = field(default_factory=dict)
    _next_session_id: int = 1

    def provision(self, subscriber: Subscriber) -> None:
        if subscriber.plmn != self.plmn:
            raise ValueError(
                f"subscriber PLMN {subscriber.plmn} does not match core "
                f"PLMN {self.plmn}"
            )
        self._subscribers[subscriber.imsi] = subscriber

    def register(self, imsi: str) -> None:
        """AMF registration (the 'attach' of the experiments)."""
        if imsi not in self._subscribers:
            raise RegistrationError(f"unknown IMSI {imsi}")
        self._registered[imsi] = True

    def deregister(self, imsi: str) -> None:
        self._registered.pop(imsi, None)
        for session in list(self._sessions.values()):
            if session.imsi == imsi:
                del self._sessions[session.session_id]

    def is_registered(self, imsi: str) -> bool:
        return self._registered.get(imsi, False)

    def establish_session(self, imsi: str) -> PduSession:
        if not self.is_registered(imsi):
            raise RegistrationError(f"IMSI {imsi} is not registered")
        session = PduSession(self._next_session_id, imsi)
        self._sessions[session.session_id] = session
        self._next_session_id += 1
        return session

    def sessions_for(self, imsi: str) -> List[PduSession]:
        return [s for s in self._sessions.values() if s.imsi == imsi]

    def total_dl_bits(self) -> int:
        return sum(s.dl_bits for s in self._sessions.values())
