"""Tests of the benchmark harness itself, on small copies of its workloads.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from racml import engine, svm  # noqa: E402

SMALL = {
    "tiny_certify_mc": lambda: workloads.TinyCertifyMC(
        structures=[(4, 2, True, 1), (4, 4, False, 4)], runs=2),
    "sparse_qp_rp": lambda: workloads.SparseQpRp(grid=(10, 20), m=40,
                                                 block_size=50),
    "svm_blobs": lambda: workloads.SvmBlobs(per_class=100, test_per_class=50,
                                            dim=3),
    "enet_sparse": lambda: workloads.EnetSparse(n=100, p=500, density=0.05,
                                                iters=4),
}


SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_small_copies_cover_every_workload():
    assert set(SMALL) == set(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_json_keeps_to_its_limits():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.fullmatch(n) for n in names)
    for key in ("end_to_end", "per_layer"):
        assert all(unit.fullmatch(m["unit"]) for m in SPEC[key])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def traced_once(workload, seed):
    """One traced operation; returns the tracer and the operation's output."""
    inputs = workload.build(seed)
    spans = tracer.Tracer()
    spans.install()
    try:
        with spans.span(tracer.OP_SPAN):
            out = workload.run(inputs)
    finally:
        spans.restore()
    return spans, out, inputs


def test_install_wraps_and_restore_puts_back_every_original():
    before = tracer.snapshot()
    spans = tracer.Tracer()
    spans.install()
    try:
        assert engine.solve is not before["racml.engine", "solve"]
        assert svm.solve_block is not before["racml.svm", "solve_block"]
        assert np.linalg.cholesky is not before["numpy.linalg", "cholesky"]
        assert tracer.snapshot() != before
    finally:
        spans.restore()
    assert tracer.snapshot() == before


def test_traced_run_restores_wrappers_and_reports_every_layer_metric():
    before = tracer.snapshot()
    args = argparse.Namespace(workload="sparse_qp_rp", seed=3, seconds=0.0)
    metrics, units, gate, _notes = run.traced_run(SMALL["sparse_qp_rp"](), args)
    assert tracer.snapshot() == before
    assert gate.attempted > 0 and gate.failed == 0
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["engine.block_solves"] > 0
    assert metrics["linalg.cholesky_calls"] > 0


class Raises:
    """A workload whose operation fails inside a traced call."""

    def build(self, seed):
        return None

    def run(self, inputs):
        return engine.solve(inputs, None)


def test_restore_runs_when_the_operation_raises():
    before = tracer.snapshot()
    with pytest.raises(AttributeError):
        traced_once(Raises(), seed=0)
    assert tracer.snapshot() == before


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_sum_to_at_most_the_span_wall_time(name):
    spans, _out, _inputs = traced_once(SMALL[name](), seed=5)
    name_id, start, end, parent, self_time = spans.arrays()
    assert name_id.size > 1
    assert np.all(self_time >= -1e-9)
    roots = parent < 0
    assert roots.sum() == 1  # the operation span encloses every call
    assert self_time.sum() <= (end - start)[roots].sum() + 1e-9
    # and per span: its self time never exceeds its own duration
    assert np.all(self_time <= end - start + 1e-12)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_sweeps_counters_and_gate(name):
    def counts(seed):
        workload = SMALL[name]()
        spans, out, inputs = traced_once(workload, seed)
        calls = {k: v["calls"] for k, v in spans.summary().items()}
        return calls, dict(spans.counters), out.sweeps, workload.check(inputs, out)

    first, second = counts(11), counts(11)
    assert first == second
    calls, _counters, sweeps, (attempted, failed) = first
    assert sweeps > 0
    assert attempted > 0 and failed == 0
