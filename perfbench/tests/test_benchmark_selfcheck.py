"""Self-tests of the benchmark: its inputs, its metric names, its gate."""

from __future__ import annotations

import json
import os
import re

import pytest

import run
import workloads
from spans import Tracer

#: A metric or workload name as BENCHMARK.json allows it.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _names(kind):
    return [metric["name"] for metric in _benchmark()[kind]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_makes_an_identical_spec(workload):
    first = workloads.make_spec(workload, 11).to_dict()
    assert workloads.make_spec(workload, 11).to_dict() == first
    assert workloads.make_spec(workload, 12).to_dict() != first


def test_the_default_seed_is_bench_spec():
    from repro.eval.scale import bench_spec

    spec = workloads.make_spec("datapath-bfp", workloads.DEFAULT_SEED)
    assert spec.to_dict() == bench_spec(workloads.INLINE_SLOTS).to_dict()


def test_metric_names_fit_the_contract():
    bench = _benchmark()
    end_to_end, per_layer = _names("end_to_end"), _names("per_layer")
    workload_names = [workload["name"] for workload in bench["workloads"]]
    assert workload_names == list(workloads.WORKLOADS)
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = end_to_end + per_layer + workload_names
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pinned_digests_hold(workload):
    from repro.scale import run_scenario

    with open(os.path.join(run.HERE, "golden.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)[workload]["digest"]
    spec = workloads.make_spec(workload, workloads.DEFAULT_SEED)
    assert run_scenario(spec, workers=1).digest == pinned


def test_a_property_is_wrapped_through_its_getter_and_restored(tmp_path):
    from repro.fronthaul.cplane import Direction
    from repro.fronthaul.ecpri import EAxCId
    from repro.fronthaul.ethernet import MacAddress
    from repro.fronthaul.packet import FronthaulPacket, make_packet
    from repro.fronthaul.timing import SymbolTime
    from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
    import numpy as np

    section = UPlaneSection.from_samples(
        section_id=1,
        start_prb=0,
        samples=np.ones((4, 24), dtype=np.int16),
    )
    packet = make_packet(
        src=MacAddress.from_int(1),
        dst=MacAddress.from_int(2),
        message=UPlaneMessage(
            direction=Direction.DOWNLINK,
            time=SymbolTime(0, 0, 0, 0),
            sections=[section],
        ),
        seq_id=0,
        eaxc=EAxCId.from_int(0x0101),
    )
    original = FronthaulPacket.__dict__["wire_size"]
    tracer = Tracer(str(tmp_path))
    try:
        tracer.method("fronthaul.packet.wire_size", FronthaulPacket, "wire_size")
        tracer.method("fronthaul.packet.pack", FronthaulPacket, "pack")
        assert packet.wire_size == len(packet.pack())
        calls, total, self_ns, errors = tracer.spans["fronthaul.packet.wire_size"]
        assert (calls, errors) == (1, 0)
        assert tracer.spans["fronthaul.packet.pack"][0] == 2
        assert 0 <= self_ns <= total
    finally:
        tracer.close()
    assert FronthaulPacket.__dict__["wire_size"] is original
    assert "pack" in FronthaulPacket.__dict__
    assert not hasattr(FronthaulPacket.pack, "__wrapped__")


def _gate(workload, spec, untraced, traced, reference):
    faults = run.stage_faults_per_round(untraced)
    assert run.check(untraced, workload, 7, reference, faults) == []
    assert run.check(traced, workload, 7, reference, faults) == []
    assert set(run.end_to_end(untraced)) == set(_names("end_to_end"))
    served = workload == "served-modcomp-churn"
    layer = run.per_layer(traced, untraced, served)
    assert set(layer) == set(_names("per_layer"))
    assert layer["trace.coverage"][0] > 0.5


@pytest.mark.parametrize("workload", ["datapath-bfp", "observed-bfp"])
def test_a_tiny_inline_run_passes_the_gate(workload, tmp_path):
    from repro.scale import run_scenario

    spec = workloads.make_spec(workload, 7, 10)
    tracer = Tracer(str(tmp_path))
    try:
        workloads.install_probes(tracer)
        untraced, traced = workloads.run_inline(
            spec, tracer, rounds=2, setup_reps=2, paired=True
        )
    finally:
        tracer.close()
    assert untraced.attempted == 2 * 10 * len(spec.groups())
    assert len(untraced.setup_s) == 4 and not traced.setup_s
    _gate(workload, spec, untraced, traced, run_scenario(spec, workers=1).digest)


def test_a_tiny_served_run_passes_the_gate(tmp_path):
    from repro.scale import run_scenario

    workload = "served-modcomp-churn"
    spec = workloads.make_spec(workload, 7, 1)
    workers = min(2, os.cpu_count() or 1)
    tracer = Tracer(str(tmp_path))
    try:
        workloads.install_probes(tracer)
        untraced, traced = workloads.run_served(
            spec, tracer, workers, rounds=1, setup_reps=1, paired=True
        )
    finally:
        tracer.close()
    assert len(untraced.apply_ms) == 3 and untraced.failed == 0
    assert len(untraced.setup_s) == 2 and len(traced.setup_s) == 1
    _gate(workload, spec, untraced, traced, run_scenario(spec, workers=1).digest)
    assert os.listdir(tmp_path) == []
