"""Self-tests of the benchmark harness: op generation, exactness checks, tracing.

Run with ``python3 -m pytest bench/selftest.py``.  The file name keeps these
tests out of the package's own test collection; they start CLI processes.
"""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

# A small op that still crosses every layer, so the tests stay quick.
TINY = ("--dim", "2", "--mu", "1/2", "--max-degree", "2", "--suites", "all")


@pytest.fixture
def tiny(monkeypatch):
    """A 'tiny' workload and its reference, taken from one clean run."""
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload(TINY, True))
    env = run.child_env()
    key, args = next(run.op_stream("tiny", 0))
    _, _, code, out = run.spawn([*run.CLI, *args], env)
    assert code == 0
    total, digest = run.output_facts("tiny", out)
    reference = {"tiny": {"total": total, "digests": {key: digest}}}
    return key, args, env, reference


def test_same_seed_gives_same_argv():
    for workload in run.WORKLOADS:
        first = list(islice(run.op_stream(workload, 7), 30))
        assert first == list(islice(run.op_stream(workload, 7), 30))
        assert first != list(islice(run.op_stream(workload, 8), 30))


def test_every_generated_op_has_a_reference():
    reference = run.load_reference()
    for workload in run.WORKLOADS:
        for key, _ in islice(run.op_stream(workload, 0), 60):
            assert key in reference[workload]["digests"]


def test_clean_op_passes(tiny):
    key, args, env, reference = tiny
    assert run.run_op("tiny", key, args, env, reference).failure is None


def test_corrupt_eigenvalue_op_fails(tiny):
    key, args, env, reference = tiny
    result = run.run_op("tiny", key, [*args, "--corrupt-eigenvalue"], env, reference)
    assert result.failure is not None


def test_tampered_reference_digest_fails(tiny):
    key, args, env, reference = tiny
    digest = reference["tiny"]["digests"][key]
    reference["tiny"]["digests"][key] = ("0" if digest[0] != "0" else "1") + digest[1:]
    result = run.run_op("tiny", key, args, env, reference)
    assert result.failure == "output digest differs from the reference"


def test_wrong_check_count_fails(tiny):
    key, args, env, reference = tiny
    reference["tiny"]["total"] += 1
    assert run.run_op("tiny", key, args, env, reference).failure is not None


def test_self_times_fit_in_op_wall_time(tiny, tmp_path):
    key, args, env, reference = tiny
    result = run.run_op("tiny", key, args, env, reference, tmp_path / "spans.bin")
    assert result.failure is None
    layers = result.layers
    assert layers["spans"] > 0
    self_times = [v for name, v in layers.items() if name.endswith(".self_s")]
    assert all(v >= 0 for v in self_times)
    assert sum(self_times) <= layers["total_self_s"] + 1e-9
    assert layers["total_self_s"] <= result.wall_s


def test_self_time_subtracts_child_spans(tmp_path):
    t = tracer.Tracer()
    t.names += ["cli.main", "measures.inner_ball", "cli._write"]
    t.layer_of += [tracer.LAYERS.index("cli"), tracer.LAYERS.index("measures"),
                   tracer.LAYERS.index("cli")]
    t.calls += [1, 2, 1]
    # main [0, 10] holds inner_ball [1, 3] and [4, 5], then _write [8, 9].
    for name, parent, start, end in [(0, -1, 0.0, 10.0), (1, 0, 1.0, 3.0),
                                     (1, 0, 4.0, 5.0), (2, 0, 8.0, 9.0)]:
        for key, value in zip(("name", "parent", "start", "end"), (name, parent, start, end)):
            t.spans[key].append(value)
    path = tmp_path / "spans.bin"
    t.dump(str(path), "op")
    metrics = tracer.layer_metrics(str(path))
    assert metrics["measures.self_s"] == 3.0
    assert metrics["measures.calls"] == 2
    assert metrics["cli.write_s"] == 1.0
    assert metrics["total_self_s"] == 10.0
