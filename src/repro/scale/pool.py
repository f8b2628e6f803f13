"""The persistent shared-memory worker pool behind sharded execution.

PR 4's runner forked a fresh set of workers for every run, synchronized
them every ``batch_slots`` batch, and shipped all results back as one
pipe pickle — which BENCH_4.json showed *losing* to single-process.
This pool keeps the same sharding contract (byte-identical digests at
any worker count) while removing all three overheads:

1. **Workers outlive a run.**  ``start()`` forks one worker per shard of
   the :func:`~repro.scale.shard.plan_shards` plan; each builds its
   coupling groups once and then serves commands.  A later ``run()``
   rebuilds worker-side state with a ``reset`` command instead of
   re-forking, so a service, a benchmark sweep, or a parameter study
   amortizes process creation and module state across runs.
2. **Barrier epochs, not batch slots.**  The coordinator barriers every
   :meth:`~repro.scale.spec.ScenarioSpec.effective_epoch_slots` slots
   (default: the whole horizon — the coarsest epoch) and each ack
   carries only ``(slots, events, telemetry-payload descriptor)``.
   Telemetry accumulates worker-side between barriers (metric deltas
   always; spans, deadline accounts and conformance deltas when the
   spec streams) and folds into the coordinator's
   :attr:`WorkerPool.telemetry` stream at each epoch boundary, so long
   runs expose progressing telemetry without per-slot chatter.
3. **Shared-memory transport.**  Bulk payloads (epoch metric deltas and
   the collected :class:`~repro.scale.runner.GroupResult` lists) travel
   through a preallocated :class:`~repro.scale.arena.SharedArena` ring
   per worker; only tiny ``(offset, nbytes, watermark)`` tuples cross
   the control pipe.  A payload that outgrows its ring falls back to
   the pipe for that payload — slower, never wrong.

Failure model
-------------

A middlebox-as-a-service deployment (ROADMAP north star) cannot let one
shard's failure take down a process serving dozens of cells, and a
*hung* worker must never block the coordinator's ``recv`` forever.
Every command (``reset``, ``epoch``, ``collect``, ``mutate``) therefore
goes through one barrier, run under a supervision policy — a
:class:`~repro.scale.spec.SupervisorSpec` derived from the spec by
:func:`supervision_policy`:

- the spec's own ``supervisor`` when it sets one;
- :class:`SupervisorSpec`'s defaults when it only carries
  ``process_chaos`` (an unsupervised chaos run would just crash);
- :data:`FAIL_FAST` otherwise: an infinite deadline and a zero restart
  budget, so the first failure ends the run.

**No barrier waits on a dead worker.**  Every reply is awaited with a
poll loop bounded by
:attr:`~repro.scale.spec.SupervisorSpec.barrier_timeout_s` (infinite
under :data:`FAIL_FAST`, where only a crash ends the wait),
interleaved with ``Process.is_alive()`` checks, and every accepted
reply must carry a heartbeat whose pid matches the process being
barriered on.  Crash, hang, protocol violation and arena frame
corruption each become a typed :class:`WorkerFailure` instead of a
deadlock or an unpickled lie.  A worker's ``("error", traceback)``
reply is a deterministic application error — replaying would fail
identically — so it raises ``scale worker failed`` without recovery.

**Recovery is exact, not approximate.**  On failure the pool kills only
the affected worker, resets its arena ring, respawns it with
``replay_slots`` = the number of slots every shard had confirmed at the
last successful barrier, and re-issues the command.  The replacement
rebuilds its coupling groups from the deterministic
:class:`~repro.scale.spec.ScenarioSpec` and replays the confirmed
prefix epoch by epoch — generating and *discarding* the telemetry
payloads the coordinator already folded, so the per-group delta
baselines advance without double counting.  Determinism makes the
replayed state bit-identical to the lost one: the digest oracle
(sharded == single-process at 1/2/4/8 workers) holds across
recoveries, and ``live_snapshot() == collect()`` still holds byte for
byte because the final epoch's cumulative snapshots come out of the
replayed groups exactly as they would have from the originals.  A
worker lost *between* runs is healed the same way, at the next run's
``reset`` barrier.

**Failure is bounded, never silent.**  Respawns back off geometrically
and each worker has a restart budget
(:attr:`~repro.scale.spec.SupervisorSpec.max_restarts_per_worker`).
Exhausting it raises :class:`ShardRecoveryExhausted` — a
``RuntimeError`` naming the last failure (a crash reads ``scale worker
N died mid-command``) and carrying the partial per-group results
scavenged from the surviving workers.

Recovery events surface in the obs plane: the coordinator-side
:attr:`WorkerPool.metrics` registry counts
``scale_worker_restarts_total`` and
``scale_recovery_replayed_slots_total`` per worker (kept out of the
telemetry stream's registry on purpose — the final cumulative rebuild
would wipe them and break live == collect), and each restart rides the
next :class:`~repro.obs.slo.EpochSample` as ``worker_restarts``, where
an SLO objective can window and alert on it.

Teardown is unconditional: normal exit, a coordinator exception mid-run,
a crashed worker and an exhausted budget all funnel through
:meth:`WorkerPool.close`, which drains workers (``exit`` then join,
terminate, kill), closes the control pipes and unlinks the
shared-memory segment.  A ``weakref.finalize`` backstop covers even a
dropped, never-closed pool.
"""

from __future__ import annotations

import math
import os
import signal
import time
import traceback
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import GroupStreamSource, TelemetryStream
from repro.scale.arena import (
    ArenaFrameError,
    ArenaFullError,
    SharedArena,
    payload_nbytes,
    payload_watermark,
    read_payload,
    unlink_segment,
    validate_descriptor,
    write_payload,
)
from repro.scale.build import BuiltGroup, build_groups
from repro.scale.runner import (
    ScenarioResult,
    _attach_engines,
    _make_sources,
    _step_epochs,
    _step_groups,
    _summarize_group,
)
from repro.scale.shard import plan_shards, rebalance_plan
from repro.scale.spec import ScenarioSpec, SupervisorSpec, assert_same_run_shape

#: Default ring size per worker; collected results that outgrow it fall
#: back to the control pipe, so this trades speed, not correctness.
DEFAULT_ARENA_BYTES = 4 * 1024 * 1024

#: Sentinel marking a payload that had to travel over the control pipe
#: because its ring was full.
_INLINE = "inline"

#: The policy of a spec with neither ``supervisor`` nor ``process_chaos``:
#: wait on a barrier as long as its worker lives, and end the run at the
#: first failure.
FAIL_FAST = SupervisorSpec(barrier_timeout_s=math.inf, max_restarts_per_worker=0)

#: Respawns performed by the pool, labelled by worker index.
RESTARTS_METRIC = "scale_worker_restarts_total"

#: Group-slots replayed to fast-forward replacement workers (slots x
#: groups on the respawned shard), labelled by worker index.
REPLAYED_SLOTS_METRIC = "scale_recovery_replayed_slots_total"

#: The failure classes the barrier distinguishes.
FAILURE_KINDS = ("crash", "hang", "poisoned", "frame")


def supervision_policy(spec: ScenarioSpec) -> SupervisorSpec:
    """The supervision policy a pool runs ``spec`` under (module docstring)."""
    if spec.supervisor is not None:
        return spec.supervisor
    return SupervisorSpec() if spec.process_chaos else FAIL_FAST


def _env_join_timeout(default: float = 10.0) -> float:
    """Worker join allowance from ``REPRO_SCALE_JOIN_TIMEOUT`` (seconds)."""
    raw = os.environ.get("REPRO_SCALE_JOIN_TIMEOUT")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


#: How long any teardown path waits for a worker to exit before
#: escalating (graceful join -> SIGTERM -> SIGKILL, each bounded).
#: Override with REPRO_SCALE_JOIN_TIMEOUT for slow CI machines.
JOIN_TIMEOUT_S = _env_join_timeout()


class WorkerFailure(Exception):
    """One recoverable worker fault, classified.

    Internal to the barrier: every instance is either consumed by a
    successful respawn or folded into the :class:`ShardRecoveryExhausted`
    that ends the run.
    """

    def __init__(self, kind: str, worker: int, detail: str):
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        super().__init__(f"worker {worker} {kind}: {detail}")
        self.kind = kind
        self.worker = worker
        self.detail = detail


class ShardRecoveryExhausted(RuntimeError):
    """A worker burned through its restart budget; the run is over.

    Carries everything an operator needs: the shard that kept dying,
    its failure log (the message repeats the last entry's detail), and
    ``partial`` — the per-group results scavenged best-effort from the
    workers that were still healthy, so a majority-healthy run's data is
    not thrown away with the error.  ``run()`` tears the pool down
    (processes joined, segment unlinked) before it propagates.
    """

    def __init__(
        self,
        worker: int,
        shard_groups: List[str],
        restarts: int,
        failures: List[Dict[str, Any]],
        partial: Dict[str, Any],
    ):
        super().__init__(
            f"shard recovery exhausted: worker {worker} "
            f"(groups {shard_groups}) failed "
            f"{len(failures)} time(s) with {restarts} restart(s) spent; "
            f"partial results for {sorted(partial)}; "
            f"last failure: {failures[-1]['detail']}"
        )
        self.worker = worker
        self.shard_groups = shard_groups
        self.restarts = restarts
        self.failures = failures
        self.partial = partial


def _stop_process(process, graceful: bool = True) -> None:
    """Bounded-time stop: join, escalate to terminate, escalate to kill.

    ``graceful=True`` first gives the worker ``JOIN_TIMEOUT_S`` to exit
    on its own (it was sent ``exit``); crash/finalizer paths skip
    straight to SIGTERM.  A worker that ignores SIGTERM gets SIGKILL —
    teardown never hangs on an unkillable child.
    """
    if graceful:
        process.join(timeout=JOIN_TIMEOUT_S)
    if process.is_alive():
        process.terminate()
        process.join(timeout=JOIN_TIMEOUT_S / 2)
    if process.is_alive():
        process.kill()
        process.join(timeout=JOIN_TIMEOUT_S / 2)


def _build_replayed(
    spec: ScenarioSpec, names: List[str], shard: int, slots: int
) -> Tuple[List[BuiltGroup], List[GroupStreamSource], int]:
    """Build ``names`` fresh and fast-forward them over ``slots`` slots.

    The replayed epochs' payloads are discarded (the coordinator folded
    the originals).  Returns the groups, their telemetry sources and the
    number of epochs replayed.
    """
    groups = build_groups(spec, names)
    _attach_engines(groups)
    sources = _make_sources(spec, groups, shard)
    epochs = sum(1 for _ in _step_epochs(spec, groups, sources, 0, slots))
    return groups, sources, epochs


def _worker_loop(
    conn,
    spec_dict: Dict[str, Any],
    names: List[str],
    arena_name: str,
    region: int,
    regions: int,
    bytes_per_worker: int,
    replay_slots: int = 0,
    chaos_armed: bool = True,
) -> None:
    """Serve pool commands until ``exit``; control pipe carries tuples only.

    Protocol (coordinator -> worker; every command but ``exit`` ends
    with the coordinator's ack watermark, releasing ring space):

    - ``("epoch", n_slots, final, ack)`` advances every local group
      ``n_slots`` and replies ``("ok", n_slots, events,
      payload_descriptor|None, heartbeat)`` where the payload is the
      list of the local groups' telemetry epoch payloads
      (:meth:`~repro.obs.stream.GroupStreamSource.epoch_payload`) —
      metric deltas always, plus spans/deadline/conformance lanes when
      the spec streams.  ``final`` marks the horizon's last epoch, whose
      payloads carry cumulative snapshots.
    - ``("collect", ack)`` summarizes the groups and replies
      ``("result", descriptor, heartbeat)`` — descriptor is
      ``(_INLINE, results)`` when the payload cannot fit the ring.
    - ``("reset", ack)`` rebuilds the groups from the spec (fresh state,
      same bytes as a new fork) and replies ``("ok", 0, 0, None,
      heartbeat)``.
    - ``("mutate", spec_dict, names, rebuild, replay_slots, ack)``
      rebases the worker onto a mutated spec mid-run: groups named in
      ``rebuild`` (plus any newly assigned to this shard) are built
      fresh from the new spec and deterministically fast-forwarded over
      the ``replay_slots`` confirmed prefix (payloads discarded, exactly
      like a respawn), while every other local group keeps its warm
      state untouched.  Replies ``("ok", 0, 0, None, heartbeat)``.
      Nothing is rebound until the new groups are built, so a build
      failure answers ``error`` and leaves the run as it was.
    - ``("exit",)`` leaves the loop; the worker closes its mapping.

    The trailing heartbeat (``{"pid", "clock"}``) lets the coordinator
    reject replies that cannot have come from the process it is
    barriering on.

    ``replay_slots`` is the respawn fast-forward: a worker replacing a
    failed one replays that many already-completed slots *before*
    serving, so determinism leaves it in exactly the state its
    predecessor confirmed at the last successful barrier.
    ``chaos_armed=False`` (the respawn default) disarms one-shot fault
    injections so recovery converges; ``rearm`` injections stay live.

    A build failure is remembered and answered to every command instead
    of closing the pipe, so the coordinator surfaces the traceback
    rather than a BrokenPipeError.
    """
    from repro.faults.process import ProcessChaosAgent, corrupt_descriptor

    failure: Optional[str] = None
    groups: List[BuiltGroup] = []
    sources: List[GroupStreamSource] = []
    spec: Optional[ScenarioSpec] = None
    arena: Optional[SharedArena] = None
    ring = None
    chaos_agent: Optional[ProcessChaosAgent] = None
    epoch_index = 0

    def _heartbeat() -> Dict[str, float]:
        return {"pid": os.getpid(), "clock": time.monotonic()}

    try:
        spec = ScenarioSpec.from_dict(spec_dict)
        chaos_agent = ProcessChaosAgent(
            spec.chaos_specs(), region, names, armed=chaos_armed
        )
        groups, sources, epoch_index = _build_replayed(
            spec, names, region, replay_slots
        )
        arena = SharedArena.attach(arena_name, regions, bytes_per_worker)
        ring = arena.ring(region)
    except Exception:
        failure = traceback.format_exc()

    def ship(obj) -> Any:
        """Frame a bulk payload via the ring, inline over the pipe if full."""
        if ring is not None:
            try:
                return write_payload(ring, obj)
            except ArenaFullError:
                pass
        return (_INLINE, obj)

    while True:
        try:
            command = conn.recv()
        except (EOFError, OSError):  # coordinator vanished: stop serving
            break
        op = command[0]
        if op == "exit":
            break
        try:
            if failure is not None:
                conn.send(("error", failure))
                continue
            if ring is not None:
                ring.release_until(command[-1])
            if op == "epoch":
                chaos = chaos_agent.take(epoch_index)
                epoch_index += 1
                if chaos is not None and chaos.kind == "kill":
                    # Crash mid-epoch: half the slots stepped, no reply,
                    # no cleanup — the harshest failure shape.
                    _step_groups(groups, command[1] // 2)
                    os.kill(os.getpid(), signal.SIGKILL)
                if chaos is not None and chaos.kind == "stall":
                    # Hang through the barrier deadline; if the
                    # coordinator has not killed us by the time the nap
                    # ends we proceed as a merely slow worker.
                    time.sleep(chaos.stall_s)
                if chaos is not None and chaos.kind == "poison":
                    # Protocol-violating reply: alien heartbeat, wrong
                    # slot count, no work done.
                    conn.send(
                        ("ok", command[1], -1, None, {"pid": -1, "clock": 0.0})
                    )
                    continue
                events = _step_groups(groups, command[1])
                descriptor = None
                if sources:
                    descriptor = ship(
                        [
                            source.epoch_payload(final=command[2])
                            for source in sources
                        ]
                    )
                if chaos is not None and chaos.kind == "corrupt_frame":
                    descriptor = corrupt_descriptor(descriptor)
                conn.send(("ok", command[1], events, descriptor, _heartbeat()))
            elif op == "collect":
                results = [_summarize_group(group) for group in groups]
                conn.send(("result", ship(results), _heartbeat()))
            elif op == "reset":
                groups, sources, epoch_index = _build_replayed(
                    spec, names, region, 0
                )
                chaos_agent = ProcessChaosAgent(
                    spec.chaos_specs(), region, names, armed=True
                )
                if ring is not None:
                    ring.reset()
                conn.send(("ok", 0, 0, None, _heartbeat()))
            elif op == "mutate":
                _, new_dict, new_names, rebuild, replay, _ = command
                kept = [
                    group
                    for group in groups
                    if group.name in new_names and group.name not in rebuild
                ]
                kept_names = {group.name for group in kept}
                new_spec = ScenarioSpec.from_dict(new_dict)
                fresh, fresh_sources, _ = _build_replayed(
                    new_spec,
                    [name for name in new_names if name not in kept_names],
                    region,
                    replay,
                )
                group_by_name = {group.name: group for group in kept + fresh}
                source_by_name = {
                    source.group.name: source
                    for source in sources + fresh_sources
                }
                spec = new_spec
                names = list(new_names)
                groups = [group_by_name[name] for name in names]
                sources = (
                    [source_by_name[name] for name in names]
                    if spec.obs.enabled
                    else []
                )
                conn.send(("ok", 0, 0, None, _heartbeat()))
            else:
                conn.send(("error", f"unknown command {command!r}"))
        except Exception:
            conn.send(("error", traceback.format_exc()))
    if arena is not None:
        arena.close()
    conn.close()


def _finalize_pool(arena: SharedArena, processes: List) -> None:
    """Last-resort cleanup for a pool dropped without ``close()``."""
    for process in processes:
        if process.is_alive():
            _stop_process(process, graceful=False)
    name = arena.name
    arena.close()
    arena.unlink()
    unlink_segment(name)


def _mp_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


class WorkerPool:
    """Persistent sharded executor for one :class:`ScenarioSpec`.

    Use as a context manager (or call :meth:`close` yourself)::

        with WorkerPool(spec, workers=8) as pool:
            first = pool.run()     # forks + builds once
            second = pool.run()    # reuses live workers (reset + rerun)
            assert first.digest == second.digest

    ``run()`` returns the same :class:`~repro.scale.runner.
    ScenarioResult` the single-process path produces, with
    ``result.transport`` describing how many bytes moved through shared
    memory versus pipe fallbacks and ``result.recovery`` describing any
    self-healing under the :attr:`supervisor` policy.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        workers: int,
        arena_bytes_per_worker: Optional[int] = None,
        bus=None,
        tail=None,
    ):
        self.spec = spec
        self.plan = plan_shards(spec, workers)
        self.workers = self.plan.workers
        self.arena_bytes = (
            arena_bytes_per_worker
            or spec.arena_bytes_per_worker
            or DEFAULT_ARENA_BYTES
        )
        self.bus = bus
        self.tail = tail
        #: The barrier's supervision policy (fixed: a mutation may not
        #: change it; see :func:`~repro.scale.spec.assert_same_run_shape`).
        self.supervisor = supervision_policy(spec)
        #: The live coordinator fold of every epoch's telemetry payloads
        #: (fresh per run; see :mod:`repro.obs.stream`).
        self.telemetry: TelemetryStream = self._new_stream()
        #: Coordinator-side recovery metrics (NOT the stream registry,
        #: which the final cumulative fold rebuilds from worker
        #: snapshots — restarts are coordinator events and live here).
        self.metrics = MetricsRegistry()
        #: Respawns per worker in the current run.
        self.restarts: List[int] = []
        self._failures: List[Dict[str, Any]] = []
        self._replayed_slots = 0
        self._arena: Optional[SharedArena] = None
        self._spec_dict: Dict[str, Any] = {}
        self._connections: List = []
        self._processes: List = []
        self._rings: List = []
        self._acked: List[int] = []
        self._finalizer = None
        self._started = False
        self._closed = False
        self._dirty = False
        self._transport: Dict[str, int] = {}
        self._done = 0
        self._run_started = 0.0

    # -- lifecycle -----------------------------------------------------------

    def _new_stream(self) -> TelemetryStream:
        obs = self.spec.obs
        return TelemetryStream(
            bus=self.bus,
            slo_specs=obs.slo_specs(),
            max_spans=obs.max_spans if obs.max_spans is not None else 4096,
            sketch_accuracy=obs.sketch_accuracy,
            tail=self.tail,
            source=f"pool:{self.spec.name}",
        )

    @property
    def arena_name(self) -> Optional[str]:
        """The shared segment's name (``None`` before start/after close)."""
        return self._arena.name if self._arena is not None else None

    def start(self) -> "WorkerPool":
        """Fork the workers and let them build their groups (idempotent)."""
        if self._started:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            return self
        self._started = True
        self._arena = SharedArena.create(self.workers, self.arena_bytes)
        self._finalizer = weakref.finalize(
            self, _finalize_pool, self._arena, self._processes
        )
        self._spec_dict = self.spec.to_dict()
        try:
            for index, names in enumerate(self.plan.shards):
                parent, process = self._spawn_worker(index)
                self._connections.append(parent)
                self._processes.append(process)
                self._rings.append(self._arena.ring(index))
                self._acked.append(0)
        except Exception:
            self.close()
            raise
        return self

    def _spawn_worker(
        self,
        index: int,
        replay_slots: int = 0,
        chaos_armed: bool = True,
    ) -> Tuple[Any, Any]:
        """Fork one worker for shard ``index``; return (pipe, process)."""
        context = _mp_context()
        parent, child = context.Pipe()
        process = context.Process(
            target=_worker_loop,
            args=(
                child,
                self._spec_dict,
                self.plan.shards[index],
                self._arena.name,
                index,
                self.workers,
                self.arena_bytes,
                replay_slots,
                chaos_armed,
            ),
            daemon=True,
        )
        process.start()
        child.close()
        return parent, process

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Tear everything down; safe on every path, safe to call twice."""
        if self._closed:
            return
        self._closed = True
        for conn in self._connections:
            try:
                conn.send(("exit",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for conn in self._connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for process in self._processes:
            _stop_process(process, graceful=True)
        if self._arena is not None:
            self._arena.close()
            self._arena.unlink()
        if self._finalizer is not None:
            self._finalizer.detach()

    # -- the barrier ---------------------------------------------------------

    def _barrier(self, command: Callable[[int], Tuple]) -> List[Any]:
        """Issue ``command(index)`` to every worker, then await each reply.

        A failed worker is recovered and the command re-issued (it is
        rebuilt from current state, so a resend carries the respawned
        ring's reset ack watermark), or the run is declared exhausted.
        Returns each worker's decoded bulk payload (``None`` for a reply
        without one), in worker order.
        """
        done = self._done
        for index in range(len(self._connections)):
            self._issue(index, command, done)
        payloads = []
        for index in range(len(self._connections)):
            while True:
                try:
                    reply = self._recv_deadline(
                        index, self._barrier_timeout(done)
                    )
                    payloads.append(
                        self._decode(index, command(index), reply)
                    )
                    break
                except WorkerFailure as failure:
                    self._recover(index, failure, done)
                    self._issue(index, command, done)
        return payloads

    def _barrier_timeout(self, done: int) -> float:
        """The reply deadline, scaled for post-respawn replay time.

        A replacement worker replays ``done`` confirmed slots before it
        can answer the re-issued command, so the allowance grows with
        the confirmed prefix — one base timeout per completed epoch.
        """
        epochs_done = done // self.spec.effective_epoch_slots()
        return self.supervisor.barrier_timeout_s * (1 + epochs_done)

    def _crash(self, index: int, why: str) -> WorkerFailure:
        code = self._processes[index].exitcode
        return WorkerFailure(
            "crash",
            index,
            f"scale worker {index} died mid-command (exitcode {code}): {why}",
        )

    def _issue(
        self, index: int, command: Callable[[int], Tuple], done: int
    ) -> None:
        """Send a command, recovering (then resending) on a dead pipe."""
        while True:
            try:
                self._connections[index].send(command(index))
                return
            except OSError as exc:
                self._recover(
                    index,
                    self._crash(index, f"control-pipe send failed: {exc}"),
                    done,
                )

    def _recv_deadline(self, index: int, timeout: float) -> Tuple:
        """Await one reply; classify silence as crash or hang, bounded."""
        conn = self._connections[index]
        process = self._processes[index]
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerFailure(
                    "hang",
                    index,
                    f"no barrier reply within {timeout:.1f}s "
                    f"(pid {process.pid} still alive)",
                )
            try:
                ready = conn.poll(
                    min(self.supervisor.poll_interval_s, remaining)
                )
            except (OSError, EOFError) as exc:
                raise self._crash(index, f"control pipe broke: {exc}")
            if ready:
                try:
                    return conn.recv()
                except (EOFError, OSError) as exc:
                    raise self._crash(index, f"died mid-reply: {exc}")
            if not process.is_alive() and not conn.poll(0):
                raise self._crash(index, "exited with no reply in flight")

    def _decode(self, index: int, sent: Tuple, reply: Any) -> Any:
        """Validate one reply to ``sent``; return its bulk payload or None.

        Rejects, as :class:`WorkerFailure`, replies the live worker
        cannot have produced.  A worker-side ``("error", traceback)``
        reply propagates as a plain ``RuntimeError``: recovery is for
        *process* faults, not for bugs.
        """
        if (
            isinstance(reply, tuple)
            and len(reply) == 2
            and reply[0] == "error"
        ):
            raise RuntimeError(f"scale worker failed:\n{reply[1]}")
        collect = sent[0] == "collect"
        expect, length = ("result", 3) if collect else ("ok", 5)
        if (
            not isinstance(reply, tuple)
            or len(reply) != length
            or reply[0] != expect
        ):
            raise WorkerFailure(
                "poisoned", index, f"protocol-violating reply: {reply!r}"
            )
        heartbeat = reply[-1]
        pid = self._processes[index].pid
        if not isinstance(heartbeat, dict) or heartbeat.get("pid") != pid:
            raise WorkerFailure(
                "poisoned",
                index,
                f"heartbeat {heartbeat!r} does not match worker pid {pid}",
            )
        if sent[0] == "epoch" and reply[1] != sent[1]:
            raise WorkerFailure(
                "poisoned",
                index,
                f"acked {reply[1]} slots for a {sent[1]}-slot epoch",
            )
        descriptor = reply[1] if collect else reply[3]
        if descriptor is None:
            return None
        try:
            return self._read_bulk(index, descriptor)
        except ArenaFrameError as exc:
            raise WorkerFailure("frame", index, str(exc))

    def _read_bulk(self, index: int, descriptor) -> Any:
        """Decode one shipped payload: arena descriptor or inline tuple."""
        if (
            isinstance(descriptor, tuple)
            and len(descriptor) == 2
            and descriptor[0] == _INLINE
        ):
            self._transport["pipe_fallback_payloads"] += 1
            return descriptor[1]
        validate_descriptor(
            self._rings[index], descriptor, released=self._acked[index]
        )
        payload = read_payload(self._rings[index], descriptor)
        self._acked[index] = payload_watermark(descriptor)
        self._transport["arena_payloads"] += 1
        self._transport["arena_bytes"] += payload_nbytes(descriptor)
        return payload

    # -- recovery ------------------------------------------------------------

    def _recover(
        self, index: int, failure: WorkerFailure, done: int
    ) -> None:
        """Kill, back off, respawn, fast-forward — or declare exhaustion."""
        self._failures.append(
            {
                "worker": index,
                "kind": failure.kind,
                "confirmed_slots": done,
                "detail": failure.detail,
            }
        )
        if self.restarts[index] >= self.supervisor.max_restarts_per_worker:
            raise ShardRecoveryExhausted(
                worker=index,
                shard_groups=list(self.plan.shards[index]),
                restarts=self.restarts[index],
                failures=[
                    entry
                    for entry in self._failures
                    if entry["worker"] == index
                ],
                partial=self._partial_collect(exclude=index),
            )
        backoff = (
            self.supervisor.backoff_base_s
            * self.supervisor.backoff_factor ** self.restarts[index]
        )
        if backoff:
            time.sleep(backoff)
        self._respawn(index, replay_slots=done)

    def _respawn(self, index: int, replay_slots: int) -> None:
        """Replace worker ``index`` with a fast-forwarded twin."""
        try:
            self._connections[index].close()
        except OSError:  # pragma: no cover - already broken
            pass
        _stop_process(self._processes[index], graceful=False)
        self._rings[index].reset()
        self._acked[index] = 0
        parent, process = self._spawn_worker(
            index, replay_slots=replay_slots, chaos_armed=False
        )
        # In-place replacement: the weakref finalizer holds this very
        # list, so the backstop always sees the current processes.
        self._connections[index] = parent
        self._processes[index] = process
        self.restarts[index] += 1
        replayed = replay_slots * len(self.plan.shards[index])
        self._replayed_slots += replayed
        worker_label = str(index)
        self.metrics.counter(
            RESTARTS_METRIC,
            "pool workers respawned by the scale-out supervisor",
            labels=("worker",),
        ).labels(worker_label).inc()
        if replayed:
            self.metrics.counter(
                REPLAYED_SLOTS_METRIC,
                "group-slots replayed to fast-forward replacement workers",
                labels=("worker",),
            ).labels(worker_label).inc(replayed)
        self.telemetry.note_worker_restart(index)

    def _partial_collect(self, exclude: int) -> Dict[str, Any]:
        """Scavenge group results from the still-healthy workers.

        Best-effort and bounded by the policy's barrier deadline:
        survivors may have one in-flight reply queued ahead of the
        collect answer (they may even be a partial epoch *ahead* of the
        last confirmed barrier — stated as-is in the result's
        ``slots``); anything that fails or times out is simply skipped.
        """
        partial: Dict[str, Any] = {}
        for index in range(len(self._connections)):
            if index == exclude or not self._processes[index].is_alive():
                continue
            try:
                self._connections[index].send(
                    ("collect", self._acked[index])
                )
                deadline = (
                    time.monotonic() + self.supervisor.barrier_timeout_s
                )
                for _ in range(2):  # a stale reply, then the answer
                    reply = self._recv_deadline(
                        index, deadline - time.monotonic()
                    )
                    if (
                        isinstance(reply, tuple)
                        and len(reply) == 3
                        and reply[0] == "result"
                    ):
                        for result in self._read_bulk(index, reply[1]):
                            partial[result.name] = result
                        break
            except (WorkerFailure, RuntimeError, OSError, ArenaFrameError):
                continue
        return partial

    # -- incremental drive (the live control plane's view of a run) ----------

    @property
    def done(self) -> int:
        """Slots confirmed by every shard so far in the current run."""
        return self._done

    def begin(self) -> "WorkerPool":
        """Open an incrementally-driven run (fork/reset, fresh stream).

        ``run()`` is ``begin()`` + ``advance_epoch()`` to the horizon +
        ``collect()``; a live service drives the same three stages
        itself so it can interleave barriers with control traffic —
        :meth:`mutate` between epochs, :meth:`collect` mid-run.  A
        worker lost since the previous run is respawned at the reset
        barrier and counts as this run's restart.
        """
        self.start()
        self.telemetry = self._new_stream()
        self._transport = {
            "arena_payloads": 0,
            "arena_bytes": 0,
            "pipe_fallback_payloads": 0,
            "epochs": 0,
        }
        self.restarts = [0] * len(self._connections)
        self._failures = []
        self._replayed_slots = 0
        self._done = 0
        if self._dirty:
            self._barrier(lambda i: ("reset", self._acked[i]))
            self._acked = [0] * len(self._acked)
        self._dirty = True
        self._run_started = time.perf_counter()
        return self

    def advance_epoch(self) -> bool:
        """Run one epoch barrier; ``True`` once the horizon is done.

        Telemetry payloads fold into :attr:`telemetry` exactly as in a
        batch run — an incrementally-driven, unmutated run is
        byte-identical to ``run()``.
        """
        if self._done >= self.spec.slots:
            return True
        epoch = self.spec.effective_epoch_slots()
        step = min(epoch, self.spec.slots - self._done)
        final = self._done + step >= self.spec.slots
        shipped = self._barrier(
            lambda i: ("epoch", step, final, self._acked[i])
        )
        payloads = [
            payload for worker in shipped if worker for payload in worker
        ]
        if payloads:
            self.telemetry.fold_epoch(payloads)
        self._done += step
        self._transport["epochs"] += 1
        return self._done >= self.spec.slots

    def collect(self) -> ScenarioResult:
        """Summarize every group as of the last barrier (mid-run safe).

        Workers summarize without disturbing state, so a mid-run
        collect observes the confirmed prefix — its digest matches a
        from-scratch run of the same spec truncated to :attr:`done`
        slots — and the run then continues to the horizon.  A worker
        recovered here replays the confirmed prefix, never slots nobody
        has run yet.
        """
        shipped = self._barrier(lambda i: ("collect", self._acked[i]))
        groups = {
            result.name: result for results in shipped for result in results
        }
        return ScenarioResult(
            name=self.spec.name,
            workers=self.plan.workers,
            wall_seconds=time.perf_counter() - self._run_started,
            groups=groups,
            plan=self.plan,
            transport=dict(
                self._transport, epoch_slots=self.spec.effective_epoch_slots()
            ),
            telemetry=self.telemetry if self.spec.obs.enabled else None,
            recovery={
                "restarts": {
                    str(index): count
                    for index, count in enumerate(self.restarts)
                    if count
                },
                "total_restarts": sum(self.restarts),
                "replayed_slots": self._replayed_slots,
                "failures": list(self._failures),
            },
        )

    # -- live mutation -------------------------------------------------------

    def mutate(self, new_spec: ScenarioSpec) -> Dict[str, Any]:
        """Rebase the live run onto a mutated spec (rebase semantics).

        Only groups whose build fingerprint changed
        (:meth:`~repro.scale.spec.ScenarioSpec.group_fingerprints`) are
        rebuilt and deterministically fast-forwarded over the
        :attr:`done` confirmed slots; untouched groups keep their warm
        worker state, and no process restarts.  The run's results from
        here on are byte-identical to a from-scratch run of the mutated
        spec — the digest oracle survives mutation.

        All validation (run-shape equality, a coordinator-side trial
        build of every disturbed group) happens *before* any worker is
        told anything, so a rejected mutation raises with the run
        untouched.  Call between epochs only — the mutation lands at
        the next barrier.  The coordinator commits the mutated spec and
        plan before the barrier, so a worker respawned during it is
        built from the mutated spec.
        """
        if not self._started or self._closed:
            raise RuntimeError("mutate() needs a started, open pool")
        assert_same_run_shape(self.spec, new_spec)
        old_fp = self.spec.group_fingerprints()
        new_fp = new_spec.group_fingerprints()
        rebuild = [
            name for name, fp in new_fp.items() if old_fp.get(name) != fp
        ]
        removed = [name for name in old_fp if name not in new_fp]
        outcome = {
            "rebuilt": list(rebuild),
            "removed": list(removed),
            "replayed_slots": self._done if rebuild else 0,
        }
        if rebuild:
            # Trial build: user-level build errors (a stage factory
            # rejecting its params, say) surface here as a clean
            # rejection instead of as a poisoned shard mid-run.
            build_groups(new_spec, rebuild)
        if not rebuild and not removed:
            self.spec = new_spec
            self._spec_dict = new_spec.to_dict()
            return outcome
        self.plan = rebalance_plan(self.plan, new_spec)
        self.spec = new_spec
        self._spec_dict = new_spec.to_dict()
        self._barrier(
            lambda i: (
                "mutate",
                self._spec_dict,
                list(self.plan.shards[i]),
                list(rebuild),
                self._done,
                self._acked[i],
            )
        )
        return outcome

    # -- batch execution -----------------------------------------------------

    def run(self) -> ScenarioResult:
        """Execute the spec's horizon once; see module docstring.

        Any error — an exhausted restart budget, a worker's error
        reply, a coordinator exception between barriers — closes the
        pool (workers joined, segment unlinked) before propagating.
        """
        try:
            self.begin()
            while not self.advance_epoch():
                pass
            result = self.collect()
        except Exception:
            self.close()
            raise
        return result


__all__ = [
    "DEFAULT_ARENA_BYTES",
    "FAILURE_KINDS",
    "FAIL_FAST",
    "JOIN_TIMEOUT_S",
    "REPLAYED_SLOTS_METRIC",
    "RESTARTS_METRIC",
    "ShardRecoveryExhausted",
    "WorkerFailure",
    "WorkerPool",
    "supervision_policy",
]
