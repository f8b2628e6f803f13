"""The benchmark's workloads: specs made from a seed, and closed-loop runners.

Every workload turns ``--seed`` into one :class:`ScenarioSpec` and hands
the program nothing else.  The seed replaces the scenario seed of the
canonical 8-cell topology (:func:`repro.eval.scale.bench_spec`), which
derives every cell's DU and RU seeds; the topology, chains and flows stay
as ``bench_spec`` declares them, so :data:`DEFAULT_SEED` reproduces
``bench_spec`` exactly.

Each runner works in *rounds*: a round is one fixed-size run of the
scenario from a fresh build and an empty codec memo, so every round of a
seed computes the same bytes and a run of N rounds is N repeats of one
deterministic job.  A pass runs rounds until its time is up (at least
one), or a given number of rounds.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import gc
import os
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.eval.scale import bench_spec
from repro.fronthaul.compression import clear_codec_memo, codec_memo_stats
from repro.scale import ScenarioSpec, build_groups, run_scenario
from repro.serve import DeltaOp, RequestRejected, ServeClient, ServeService, SpecDelta

from spans import Tracer, collect_worker_exports, empty_records, merge_exports

WORKLOADS = ("datapath-bfp", "observed-bfp", "served-modcomp-churn")

#: ``bench_spec``'s own scenario seed.
DEFAULT_SEED = 4
#: Slots per inline round (~1.5 s here).  Short rounds let the host
#: speed be read often; 7 groups x 100 slots gives 700 group-slots, so
#: two rounds already hold 10 samples beyond p99.
INLINE_SLOTS = 100
#: Inline set-up repeats after each round.  Spreading them over the run
#: lets them see the same host as the rounds; a 30 s run collects ~190
#: set-ups and ~1300 per-group builds.
SETUP_REPS = 10
#: Stream fold cadence of ``observed-bfp``: a fold every few slots.
OBS_EPOCH_SLOTS = 5
#: One served step advances this many slots.
SERVED_EPOCH_SLOTS = 4
#: add_cell -> rechain -> remove_cell cycles per served round (~2.5 s).
SERVED_CYCLES = 10
#: Dedicated served set-ups after each round (the round adds one more).
SERVED_SETUP_REPS = 2

FRAME_FIELDS = ("dl_packets", "ul_packets", "undeliverable", "malformed", "wire_dropped")
FAILED_FRAME_FIELDS = ("undeliverable", "malformed", "wire_dropped")


# -- specs ---------------------------------------------------------------------


def datapath_spec(seed: int, slots: int = INLINE_SLOTS) -> ScenarioSpec:
    data = bench_spec(slots).to_dict()
    data["seed"] = seed
    return ScenarioSpec.from_dict(data)


def observed_spec(seed: int, slots: int = INLINE_SLOTS) -> ScenarioSpec:
    """``datapath_spec`` with the full observability plane on."""
    data = datapath_spec(seed, slots).to_dict()
    data["name"] = "scale-bench-8cell-observed"
    data["epoch_slots"] = OBS_EPOCH_SLOTS
    data["obs"] = {
        "enabled": True,
        "deadline_accounting": True,
        "conformance": True,
        "stream": True,
        "slo": [
            {
                "name": "deadline-miss-rate",
                "objective": "deadline_miss_rate",
                "threshold": 0.01,
            }
        ],
    }
    return ScenarioSpec.from_dict(data)


def served_spec(seed: int, cycles: int = SERVED_CYCLES) -> ScenarioSpec:
    """Every cell negotiated onto modcomp; 3 steps per churn cycle."""
    data = datapath_spec(seed, 3 * SERVED_EPOCH_SLOTS * cycles).to_dict()
    data["name"] = "scale-bench-8cell-modcomp-served"
    data["epoch_slots"] = SERVED_EPOCH_SLOTS
    for cell in data["cells"]:
        cell["codec"] = "modcomp"
    return ScenarioSpec.from_dict(data)


def make_spec(workload: str, seed: int, size: Optional[int] = None) -> ScenarioSpec:
    """The spec a workload runs; ``size`` is slots (inline) or cycles (served)."""
    if workload == "datapath-bfp":
        return datapath_spec(seed, size or INLINE_SLOTS)
    if workload == "observed-bfp":
        return observed_spec(seed, size or INLINE_SLOTS)
    if workload == "served-modcomp-churn":
        return served_spec(seed, size or SERVED_CYCLES)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


#: The churning tenant: appended last, so adding or removing it changes
#: no other group's build fingerprint.
TENANT = {
    "name": "tenant",
    "pci": 9,
    "bandwidth_hz": 20_000_000,
    "codec": "modcomp",
    "rus": [{"name": "tenant-ru1", "n_antennas": 2}],
    "ues": [
        {
            "ue_id": "tenant-ue1",
            "flows": [{"kind": "cbr", "rate_mbps": 15.0, "direction": "ul"}],
        }
    ],
    "chain": [{"stage": "passthrough"}],
}

#: One churn cycle; a round ends on remove_cell, so the final spec is the
#: base spec and the collected digest must equal the batch run's.
CHURN = (
    SpecDelta(name="admit", ops=(DeltaOp(op="add_cell", cell=TENANT),)),
    SpecDelta(
        name="rechain",
        ops=(
            DeltaOp(
                op="rechain", target="tenant", chain=({"stage": "prb_monitor"},)
            ),
        ),
    ),
    SpecDelta(name="evict", ops=(DeltaOp(op="remove_cell", target="tenant"),)),
)
CHURN_CELLS = (+1, 0, -1)


# -- instrumentation -------------------------------------------------------------


def install_probes(tracer: Tracer) -> None:
    """What every run records, traced or not.

    ``sim.run_slot`` times each group-slot and sums its SlotReport's frame
    counts; ``scale.build.build_groups`` keeps each built chain's
    ``stage_faults`` list (a few ints) so faults are counted after the
    chain is gone.
    """
    from repro.sim.network_sim import FronthaulNetwork
    import repro.scale.build as build_module

    def on_slot(report, elapsed_ns: int) -> None:
        samples = tracer.samples
        samples.setdefault("slot_ns", []).append(elapsed_ns)
        samples.setdefault("slot_index", []).append(report.absolute_slot)
        counts = tracer.counts
        for name in FRAME_FIELDS:
            counts[name] = counts.get(name, 0) + getattr(report, name)

    def on_build(groups, elapsed_ns: int) -> None:
        for group in groups:
            chain = group.network.chain
            if chain is not None:
                tracer.retained.append(chain.stage_faults)

    def count_faults() -> None:
        tracer.counts["stage_faults"] = sum(sum(faults) for faults in tracer.retained)

    parent = os.getpid()

    def worker_memo() -> None:
        # The parent adds memo counts per round; a worker's memo covers
        # its whole life, read once when it exits.
        if os.getpid() != parent:
            add_memo_counts(tracer)

    tracer.method("sim.run_slot", FronthaulNetwork, "run_slot", on_slot)
    tracer.function("scale.build.build_groups", build_module, "build_groups", on_build)
    tracer.on_export.extend((count_faults, worker_memo))


def add_memo_counts(tracer: Tracer) -> None:
    for name, value in codec_memo_stats().items():
        if name.endswith(("_hits", "_misses")):
            key = f"memo.{name}"
            tracer.counts[key] = tracer.counts.get(key, 0) + value


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public calls into each layer (the traced run only)."""
    from repro.apps.das import DasMiddlebox
    from repro.apps.dmimo import DmimoMiddlebox
    from repro.apps.prb_monitor import PrbMonitorMiddlebox
    from repro.apps.ru_sharing import RuSharingMiddlebox
    from repro.apps.security import FronthaulGuardMiddlebox
    from repro.apps.sensing import SpectrumSensorMiddlebox
    from repro.conformance.validator import WireValidator
    from repro.core.chain import MiddleboxChain
    from repro.core.middlebox import Middlebox
    from repro.fronthaul.compression import BfpCompressor
    from repro.fronthaul.modcomp import ModCompressor
    from repro.fronthaul.packet import FronthaulPacket
    from repro.obs.deadline import DeadlineAccountant
    from repro.obs.stream import GroupStreamSource, TelemetryStream
    from repro.ran.du import DistributedUnit
    from repro.ran.ru import RadioUnit
    from repro.scale.pool import WorkerPool
    import repro.serve.protocol as protocol

    for prefix, codec in (("bfp", BfpCompressor), ("modcomp", ModCompressor)):
        for attr in ("compress", "parse_wire", "decompress", "decompress_stack"):
            tracer.method(f"fronthaul.{prefix}.{attr}", codec, attr)
    for attr in ("pack", "clone", "wire_size"):
        tracer.method(f"fronthaul.packet.{attr}", FronthaulPacket, attr)
    tracer.method("ran.du.advance_slot", DistributedUnit, "advance_slot")
    tracer.method("ran.du.receive", DistributedUnit, "receive")
    tracer.method("ran.ru.build_uplink", RadioUnit, "build_uplink")
    tracer.method("ran.ru.receive", RadioUnit, "receive")
    for name, app in (
        ("das", DasMiddlebox),
        ("ru_sharing", RuSharingMiddlebox),
        ("dmimo", DmimoMiddlebox),
        ("prb_monitor", PrbMonitorMiddlebox),
        ("security", FronthaulGuardMiddlebox),
        ("sensing", SpectrumSensorMiddlebox),
    ):
        tracer.method(f"apps.{name}", app, "on_cplane")
        tracer.method(f"apps.{name}", app, "on_uplane")
    tracer.method("core.chain.process", MiddleboxChain, "process_downlink")
    tracer.method("core.chain.process", MiddleboxChain, "process_uplink")
    tracer.method("core.middlebox.process", Middlebox, "process")
    tracer.method("conformance.observe", WireValidator, "observe")
    tracer.method("obs.deadline.observe_slot", DeadlineAccountant, "observe_slot")
    tracer.method("obs.stream.epoch_payload", GroupStreamSource, "epoch_payload")
    tracer.method("obs.stream.fold_epoch", TelemetryStream, "fold_epoch")

    def on_collect(result, elapsed_ns: int) -> None:
        counts = tracer.counts
        for name in ("arena_bytes", "pipe_fallback_payloads"):
            key = f"pool.{name}"
            counts[key] = counts.get(key, 0) + result.transport.get(name, 0)

    tracer.method("scale.pool.advance_epoch", WorkerPool, "advance_epoch")
    tracer.method("scale.pool.mutate", WorkerPool, "mutate")
    tracer.method("scale.pool.collect", WorkerPool, "collect", on_collect)
    tracer.function("serve.protocol.encode_frame", protocol, "encode_frame")
    tracer.function("serve.protocol.decode_body", protocol, "decode_body")


# -- host speed ------------------------------------------------------------------

_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_BLOCKS = [
    _KERNEL_RNG.integers(-4096, 4096, size=(106, 24), dtype=np.int16) for _ in range(24)
]


@dataclass
class _KernelSection:
    section_id: int
    start_prb: int
    payload: bytes
    params: list


def _kernel() -> int:
    """A fixed job shaped like the datapath, using no program code.

    Per 106-PRB block it does what a codec and a packet path do: small
    numpy reductions, shifts and bit packing, a dataclass deep copy and
    a struct header; then dict churn like the per-slot bookkeeping.
    """
    out: list = []
    for block in _KERNEL_BLOCKS:
        peak = np.abs(block.astype(np.int32)).max(axis=1)
        exponent = np.ceil(np.log2(peak + 1.0)).astype(np.int64)
        shifted = block.astype(np.int64) >> np.maximum(exponent - 8, 0)[:, None]
        bits = np.unpackbits(shifted.astype(">i2").view(np.uint8)).reshape(-1, 16)[:, 7:]
        payload = np.packbits(bits).tobytes()
        out.append(copy.deepcopy(_KernelSection(1, 0, payload, [exponent, peak])))
        out.append(struct.pack(">HBB", len(payload), 1, 2) + payload)
    table: Dict[tuple, list] = {}
    for i in range(4000):
        table[(i, i % 7)] = [i, str(i), (i, i)]
    return len(out) + len(table)


def calibrate(runs: int = 5) -> float:
    """Seconds :func:`_kernel` takes now, best of ``runs``."""
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - started)
    return best


#: :func:`calibrate` on the reference host: the median over four minutes
#: of the 2-vCPU Xeon VM (Python 3.11, numpy 2.4) the benchmark was
#: tuned on.  Normalised times read as on that host at that speed.
CAL_REF_S = 0.0045


class SpeedGauge:
    """The host's speed, read between timed blocks.

    The shared host this benchmark runs on drifts by up to 1.6x over
    seconds to minutes, moving every timing of a run together.  The
    kernel slows with it: over 30 s windows the ratio of round time to
    kernel time spread 0.02 where round time alone spread 0.21.
    """

    def __init__(self):
        self.last = calibrate()

    def scale(self) -> float:
        """Factor turning times of the block since the last reading into
        reference-host times: ``CAL_REF_S`` over the mean kernel time of
        that reading and one taken now."""
        now = calibrate()
        scale = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return scale


# -- runners -------------------------------------------------------------------


#: Outcome lists of times, normalised by block (see SpeedGauge).
TIMED = ("slot_ms", "step_ms", "apply_ms", "setup_s")


@dataclass
class Outcome:
    """What one pass of a workload measured: its rounds, merged.

    Time lists hold raw measurements; :meth:`normalised` gives them in
    reference-host time, block by block.
    """

    rounds: int = 0
    #: Seconds inside the timed region (the closed loop, set-up excluded).
    wall_s: float = 0.0
    #: ``wall_s`` in reference-host seconds.
    ref_wall_s: float = 0.0
    #: Seconds from each round's start to its end, set-up and teardown
    #: included: the time spans are compared with.
    round_s: float = 0.0
    #: Each round's ``wall_s``, in order.
    round_walls: List[float] = field(default_factory=list)
    cell_slots: int = 0
    digests: List[str] = field(default_factory=list)
    slot_ms: List[float] = field(default_factory=list)
    step_ms: List[float] = field(default_factory=list)
    apply_ms: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    #: Groups each served apply rebuilt.
    rebuilt: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Peak RSS summed over one round's pool workers, max over rounds.
    worker_rss_kb: int = 0
    #: Records of this process and every worker (see spans.Tracer.export).
    records: Dict[str, Any] = field(default_factory=empty_records)
    #: Problems that make the run incorrect.
    errors: List[str] = field(default_factory=list)
    #: Per TIMED list: (start, end, scale) of every normalised block.
    blocks: Dict[str, List[Tuple[int, int, float]]] = field(
        default_factory=lambda: {name: [] for name in TIMED}
    )

    def mark(self) -> Tuple[float, Dict[str, int]]:
        return self.wall_s, {name: len(getattr(self, name)) for name in TIMED}

    def normalise_since(self, mark: Tuple[float, Dict[str, int]], scale: float) -> None:
        wall, lengths = mark
        self.ref_wall_s += (self.wall_s - wall) * scale
        for name, start in lengths.items():
            self.blocks[name].append((start, len(getattr(self, name)), scale))

    def normalised(self, name: str) -> List[float]:
        values = getattr(self, name)
        return [
            value * scale
            for start, end, scale in self.blocks[name]
            for value in values[start:end]
        ]

    def add_round(self, wall: float, round_s: float, digest: str) -> None:
        self.rounds += 1
        self.wall_s += wall
        self.round_s += round_s
        self.round_walls.append(wall)
        self.digests.append(digest)


def _drive(
    tracer: Tracer,
    one_round: Callable[[Outcome], None],
    setups: Callable[[Outcome], None],
    seconds: float,
    rounds: Optional[int],
    paired: bool,
) -> Tuple[Outcome, Optional[Outcome]]:
    """Rounds until ``seconds`` are up (at least one) or ``rounds`` are done.

    ``paired`` runs a traced round beside every untraced one, the two in
    alternating order, so host-speed drift between them cancels in their
    ratio.  The layer spans are installed for the traced round only.
    ``setups`` runs after every untraced round.  The host's speed is read
    between all of these blocks, and each block's times are normalised
    by it.
    """
    untraced = Outcome()
    traced = Outcome() if paired else None
    gauge = SpeedGauge()
    started = time.perf_counter()
    while (
        untraced.rounds < rounds
        if rounds is not None
        else untraced.rounds == 0 or time.perf_counter() - started < seconds
    ):
        sides = [(untraced, False)] + ([(traced, True)] if paired else [])
        if untraced.rounds % 2:
            sides.reverse()
        for outcome, layers in sides:
            patches = tracer.mark()
            if layers:
                install_layer_spans(tracer)
            block = outcome.mark()
            try:
                tracer.reset()
                one_round(outcome)
            finally:
                tracer.unpatch(patches)
            outcome.normalise_since(block, gauge.scale())
            if not layers:
                block = outcome.mark()
                setups(outcome)
                outcome.normalise_since(block, gauge.scale())
    return untraced, traced


def inline_setup(spec: ScenarioSpec, outcome: Outcome, reps: int) -> None:
    """Time ``build_groups(spec)``; and each group alone, the build an apply does."""
    names = list(spec.groups())
    for _ in range(reps):
        started = time.perf_counter()
        build_groups(spec)
        outcome.setup_s.append(time.perf_counter() - started)
        for name in names:
            started = time.perf_counter()
            build_groups(spec, [name])
            outcome.apply_ms.append((time.perf_counter() - started) * 1e3)


def _inline_round(spec: ScenarioSpec, tracer: Tracer, outcome: Outcome) -> None:
    clear_codec_memo()
    gc.collect()
    started = time.perf_counter()
    result = run_scenario(spec, workers=1)
    wall = time.perf_counter() - started
    add_memo_counts(tracer)
    export = tracer.export()
    merge_exports(outcome.records, export)
    outcome.add_round(wall, wall, result.digest)
    outcome.cell_slots += result.cells * result.slots
    slot_ns = export["samples"]["slot_ns"]
    outcome.attempted += len(slot_ns)
    outcome.slot_ms.extend(ns / 1e6 for ns in slot_ns)
    per_slot: Dict[int, int] = {}
    for index, elapsed in zip(export["samples"]["slot_index"], slot_ns):
        per_slot[index] = per_slot.get(index, 0) + elapsed
    outcome.step_ms.extend(total / 1e6 for total in per_slot.values())


def run_inline(
    spec: ScenarioSpec,
    tracer: Tracer,
    seconds: float = 0.0,
    rounds: Optional[int] = None,
    setup_reps: int = 0,
    paired: bool = False,
) -> Tuple[Outcome, Optional[Outcome]]:
    """Closed loop in one process: each slot starts when the previous ends.

    ``setup_reps`` set-ups are timed after every untraced round.
    """
    # A short run first, so lazy imports and first-call costs land
    # outside the timed rounds.
    run_scenario(dataclasses.replace(spec, slots=2), workers=1)
    return _drive(
        tracer,
        lambda outcome: _inline_round(spec, tracer, outcome),
        lambda outcome: inline_setup(spec, outcome, setup_reps),
        seconds,
        rounds,
        paired,
    )


async def _served_setup(spec: ScenarioSpec, workers: int):
    started = time.perf_counter()
    service = await ServeService(spec, workers=workers).start()
    try:
        client = await ServeClient.connect(port=service.port)
        await client.hello()
    except BaseException:
        await service.stop()
        raise
    return service, client, time.perf_counter() - started


async def _churn(
    spec: ScenarioSpec, workers: int, outcome: Outcome
) -> Tuple[float, str]:
    """Set up, step and apply to the horizon, collect: (loop seconds, digest)."""
    service, client, setup = await _served_setup(spec, workers)
    outcome.setup_s.append(setup)
    try:
        cells = len(spec.cells)
        started = time.perf_counter()
        index = 0
        finished = False
        while not finished:
            outcome.attempted += 2
            sent = time.perf_counter()
            try:
                finished = (await client.step(epochs=1))["finished"]
            except RequestRejected as exc:
                outcome.failed += 1
                outcome.errors.append(str(exc))
                break
            outcome.step_ms.append((time.perf_counter() - sent) * 1e3)
            outcome.cell_slots += cells * SERVED_EPOCH_SLOTS
            sent = time.perf_counter()
            try:
                applied = await client.apply(CHURN[index % 3])
            except RequestRejected as exc:
                outcome.failed += 1
                outcome.errors.append(str(exc))
            else:
                outcome.apply_ms.append((time.perf_counter() - sent) * 1e3)
                outcome.rebuilt.append(len(applied["rebuilt"]))
                cells += CHURN_CELLS[index % 3]
            index += 1
        wall = time.perf_counter() - started
        outcome.attempted += 1
        return wall, (await client.collect())["digest"]
    finally:
        await client.close()
        await service.stop()


def _served_round(
    spec: ScenarioSpec, tracer: Tracer, workers: int, outcome: Outcome
) -> None:
    clear_codec_memo()
    gc.collect()
    started = time.perf_counter()
    wall, digest = asyncio.run(_churn(spec, workers, outcome))
    outcome.add_round(wall, time.perf_counter() - started, digest)
    merge_exports(outcome.records, tracer.export())
    exports = collect_worker_exports(tracer.worker_dir)
    if len(exports) != workers:
        outcome.errors.append(f"{len(exports)} worker records for {workers} workers")
    outcome.worker_rss_kb = max(
        outcome.worker_rss_kb, sum(export["maxrss_kb"] for export in exports)
    )
    for export in exports:
        merge_exports(outcome.records, export, main=False)
        outcome.slot_ms.extend(ns / 1e6 for ns in export["samples"].get("slot_ns", ()))


def _served_setups(
    spec: ScenarioSpec, tracer: Tracer, workers: int, outcome: Outcome, reps: int
) -> None:
    async def setups() -> None:
        for _ in range(reps):
            service, client, setup = await _served_setup(spec, workers)
            outcome.setup_s.append(setup)
            await client.close()
            await service.stop()

    asyncio.run(setups())
    collect_worker_exports(tracer.worker_dir)


def run_served(
    spec: ScenarioSpec,
    tracer: Tracer,
    workers: int,
    seconds: float = 0.0,
    rounds: Optional[int] = None,
    setup_reps: int = 0,
    paired: bool = False,
) -> Tuple[Outcome, Optional[Outcome]]:
    """One client on one loopback connection: step, then one churn apply.

    Pool workers are forked per round and write their records when they
    exit; a round's records merge them into this process's.
    ``setup_reps`` more set-ups are timed after every untraced round.
    """
    return _drive(
        tracer,
        lambda outcome: _served_round(spec, tracer, workers, outcome),
        lambda outcome: _served_setups(spec, tracer, workers, outcome, setup_reps),
        seconds,
        rounds,
        paired,
    )
