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

Teardown is unconditional: normal exit, a coordinator exception mid-run
and a crashed worker all funnel through :meth:`WorkerPool.close`, which
drains workers (``exit`` then join, terminate, kill), closes the control
pipes and unlinks the shared-memory segment.  A ``weakref.finalize``
backstop covers even a dropped, never-closed pool.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
import weakref
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.stream import GroupStreamSource, TelemetryStream
from repro.scale.arena import (
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
from repro.scale.shard import plan_shards, rebalance_plan
from repro.scale.spec import ScenarioSpec, assert_same_run_shape

#: Default ring size per worker; collected results that outgrow it fall
#: back to the control pipe, so this trades speed, not correctness.
DEFAULT_ARENA_BYTES = 4 * 1024 * 1024

#: Sentinel marking a payload that had to travel over the control pipe
#: because its ring was full.
_INLINE = "inline"


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

    The trailing heartbeat (``{"pid", "clock"}``) lets the supervised
    pool reject replies that cannot have come from the process it is
    barriering on.

    ``replay_slots`` is the respawn fast-forward: a worker replacing a
    failed one replays that many already-completed slots *before*
    serving — stepping its groups and generating-then-discarding each
    epoch's telemetry payloads, so determinism leaves it in exactly the
    state its predecessor confirmed at the last successful barrier (the
    coordinator folded those payloads already; regenerating advances the
    delta baselines without double-counting).  ``chaos_armed=False``
    (the respawn default) disarms one-shot fault injections so recovery
    converges; ``rearm`` injections stay live.

    A build failure is remembered and answered to every command instead
    of closing the pipe, so the coordinator surfaces the traceback
    rather than a BrokenPipeError.
    """
    from repro.faults.process import ProcessChaosAgent, corrupt_descriptor
    from repro.scale.runner import _attach_engines, _step_groups, _summarize_group

    failure: Optional[str] = None
    groups: List[BuiltGroup] = []
    sources: List[GroupStreamSource] = []
    spec: Optional[ScenarioSpec] = None
    arena: Optional[SharedArena] = None
    ring = None
    chaos_agent: Optional[ProcessChaosAgent] = None
    epoch_index = 0

    def _make_sources() -> List[GroupStreamSource]:
        if not spec.obs.enabled:
            return []
        return [
            GroupStreamSource(group, shard=region, stream=spec.obs.stream)
            for group in groups
        ]

    def _heartbeat() -> Dict[str, float]:
        return {"pid": os.getpid(), "clock": time.monotonic()}

    try:
        spec = ScenarioSpec.from_dict(spec_dict)
        groups = build_groups(spec, names)
        _attach_engines(groups)
        sources = _make_sources()
        chaos_agent = ProcessChaosAgent(
            spec.chaos_specs(), region, names, armed=chaos_armed
        )
        # Respawn fast-forward: replay the confirmed prefix of the
        # horizon at the run's epoch cadence.  Payloads are discarded —
        # the coordinator already folded the originals.
        cadence = spec.effective_epoch_slots()
        replayed = 0
        while replayed < replay_slots:
            step = min(cadence, replay_slots - replayed)
            _step_groups(groups, step)
            replayed += step
            for source in sources:
                source.epoch_payload(final=replayed >= spec.slots)
            epoch_index += 1
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
                    # supervisor has not killed us by the time the nap
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
                groups = build_groups(spec, names)
                _attach_engines(groups)
                sources = _make_sources()
                chaos_agent = ProcessChaosAgent(
                    spec.chaos_specs(), region, names, armed=True
                )
                epoch_index = 0
                if ring is not None:
                    ring.reset()
                conn.send(("ok", 0, 0, None, _heartbeat()))
            elif op == "mutate":
                new_spec = ScenarioSpec.from_dict(command[1])
                new_names = list(command[2])
                rebuild = set(command[3])
                replay = command[4]
                kept = {
                    group.name: (group, source)
                    for group, source in zip(
                        groups, sources or [None] * len(groups)
                    )
                    if group.name in new_names and group.name not in rebuild
                }
                fresh_names = [
                    name for name in new_names if name not in kept
                ]
                fresh = build_groups(new_spec, fresh_names)
                _attach_engines(fresh)
                fresh_sources = (
                    [
                        GroupStreamSource(
                            group, shard=region, stream=new_spec.obs.stream
                        )
                        for group in fresh
                    ]
                    if new_spec.obs.enabled
                    else [None] * len(fresh)
                )
                # Fast-forward only the rebuilt groups over the
                # confirmed prefix, at the run's epoch cadence; the
                # generated payloads are discarded — they describe
                # epochs the coordinator already folded.
                cadence = new_spec.effective_epoch_slots()
                replayed = 0
                while replayed < replay:
                    step_slots = min(cadence, replay - replayed)
                    _step_groups(fresh, step_slots)
                    replayed += step_slots
                    for source in fresh_sources:
                        if source is not None:
                            source.epoch_payload(
                                final=replayed >= new_spec.slots
                            )
                by_name = dict(kept)
                by_name.update(
                    {
                        group.name: (group, source)
                        for group, source in zip(fresh, fresh_sources)
                    }
                )
                spec = new_spec
                names = new_names
                groups = [by_name[name][0] for name in new_names]
                sources = (
                    [by_name[name][1] for name in new_names]
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
    memory versus pipe fallbacks.
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
        #: The live coordinator fold of every epoch's telemetry payloads
        #: (fresh per run; see :mod:`repro.obs.stream`).
        self.telemetry: TelemetryStream = self._new_stream()
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

    # -- protocol helpers ----------------------------------------------------

    def _worker_died(self, index: int) -> RuntimeError:
        code = self._processes[index].exitcode
        return RuntimeError(
            f"scale worker {index} died mid-command "
            f"(exitcode {code}); shard groups: "
            f"{self.plan.shards[index]}"
        )

    def _send(self, index: int, msg: Tuple) -> None:
        """Send one command; a dead worker's broken pipe raises the same
        typed error as a dead worker seen by :meth:`_recv`."""
        try:
            self._connections[index].send(msg)
        except OSError as exc:
            raise self._worker_died(index) from exc

    def _recv(self, index: int):
        try:
            reply = self._connections[index].recv()
        except (EOFError, OSError) as exc:
            raise self._worker_died(index) from exc
        if reply[0] == "error":
            raise RuntimeError(f"scale worker failed:\n{reply[1]}")
        return reply

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

    def _reset(self) -> None:
        for index in range(len(self._connections)):
            self._send(index, ("reset", self._acked[index]))
        for index in range(len(self._connections)):
            self._recv(index)
            self._acked[index] = 0

    # -- execution -----------------------------------------------------------

    def _begin_run(self) -> None:
        """Per-run state reset (the supervised pool adds its budgets)."""
        if self._dirty:
            self._reset()
        self._dirty = True
        self.telemetry = self._new_stream()
        self._transport = {
            "arena_payloads": 0,
            "arena_bytes": 0,
            "pipe_fallback_payloads": 0,
            "epochs": 0,
        }

    def _epoch_barrier(self, step: int, final: bool, done: int) -> List[Any]:
        """One barrier: every shard runs ``step`` slots, acks collected.

        ``done`` is the count of slots already confirmed before this
        epoch — the fast-forward point a supervised recovery would
        replay to.  Returns the epoch's telemetry payloads flattened in
        worker-index order.
        """
        for index in range(len(self._connections)):
            self._send(index, ("epoch", step, final, self._acked[index]))
        # Barrier: every shard finishes the epoch before any proceeds;
        # acks are tiny (slots, events, payload descriptor, heartbeat).
        payloads = []
        for index in range(len(self._connections)):
            reply = self._recv(index)
            if reply[0] != "ok":
                raise RuntimeError(
                    f"scale worker protocol error: {reply!r}"
                )
            if reply[3] is not None:
                payloads.extend(self._read_bulk(index, reply[3]))
        return payloads

    def _collect_results(self) -> Dict[str, Any]:
        """Gather every group's summary after the horizon completes."""
        groups = {}
        for index in range(len(self._connections)):
            self._send(index, ("collect", self._acked[index]))
        for index in range(len(self._connections)):
            reply = self._recv(index)
            if reply[0] != "result":
                raise RuntimeError(
                    f"scale worker protocol error: {reply!r}"
                )
            for result in self._read_bulk(index, reply[1]):
                groups[result.name] = result
        return groups

    def _result(self, wall: float, groups: Dict[str, Any], epoch: int):
        from repro.scale.runner import ScenarioResult

        return ScenarioResult(
            name=self.spec.name,
            workers=self.plan.workers,
            wall_seconds=wall,
            groups=groups,
            plan=self.plan,
            transport=dict(self._transport, epoch_slots=epoch),
            telemetry=self.telemetry if self.spec.obs.enabled else None,
        )

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
        :meth:`mutate` between epochs, :meth:`collect` mid-run.
        """
        self.start()
        self._begin_run()
        self._done = 0
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
        payloads = self._epoch_barrier(step, final, self._done)
        if payloads:
            self.telemetry.fold_epoch(payloads)
        self._done += step
        self._transport["epochs"] += 1
        return self._done >= self.spec.slots

    def collect(self):
        """Summarize every group as of the last barrier (mid-run safe).

        Workers summarize without disturbing state, so a mid-run
        collect observes the confirmed prefix — its digest matches a
        from-scratch run of the same spec truncated to :attr:`done`
        slots — and the run then continues to the horizon.
        """
        groups = self._collect_results()
        wall = time.perf_counter() - self._run_started
        return self._result(wall, groups, self.spec.effective_epoch_slots())

    # -- live mutation -------------------------------------------------------

    def _mutate_command(self, index: int, rebuild: List[str]) -> Tuple:
        return (
            "mutate",
            self._spec_dict,
            list(self.plan.shards[index]),
            list(rebuild),
            self._done,
            self._acked[index],
        )

    def _mutate_exchange(self, rebuild: List[str]) -> None:
        for index in range(len(self._connections)):
            self._send(index, self._mutate_command(index, rebuild))
        for index in range(len(self._connections)):
            reply = self._recv(index)
            if reply[0] != "ok":
                raise RuntimeError(
                    f"scale worker protocol error: {reply!r}"
                )

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
        the next barrier.
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
        self._mutate_exchange(rebuild)
        return outcome

    # -- batch execution -----------------------------------------------------

    def run(self):
        """Execute the spec's horizon once; see module docstring.

        Any error — a worker crash, a protocol violation, a coordinator
        exception between barriers — closes the pool (workers joined,
        segment unlinked) before propagating.
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


__all__ = ["DEFAULT_ARENA_BYTES", "JOIN_TIMEOUT_S", "WorkerPool"]
