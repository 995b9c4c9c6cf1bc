"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from oracle import DocModel, plucker_failures
from reference import REFERENCE_S, kernel
from tracer import Tracer
from workloads import CliResult, ColdCli, Measure, Wedges, check_rejected


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def bindings(lib):
    return {(layer, attr): value for layer in run.LAYERS
            for attr, value in vars(getattr(lib, layer)).items()}


def test_tracer_wraps_every_binding_and_restores_it(lib):
    before = bindings(lib)
    tracer = Tracer([getattr(lib, layer) for layer in run.LAYERS], run.HOOKS)
    with tracer:
        assert lib.model.validate is not before[("model", "validate")]
        assert lib.cli.validate is lib.model.validate
        assert lib.kclass_weights.require_consistent is lib.strands.require_consistent
        lib.model.validate(lib.fixtures.gr37())
    assert bindings(lib) == before
    assert all(bindings(lib)[key] is value for key, value in before.items())
    assert tracer.counts["model.validate.calls"] == 1
    assert [s[0] for s in tracer.spans if s[0].startswith("model.")][-1] == "model.validate"


def test_self_time_subtracts_child_spans():
    tracer = Tracer([])
    tracer.spans[:] = [("a.f", 0.0, 10.0, -1), ("b.g", 2.0, 5.0, 0), ("a.h", 3.0, 4.0, 1),
                       ("a.h", 6.0, 7.0, 0)]
    by_layer, by_function = tracer.self_times()
    assert by_layer["a"] == pytest.approx(8.0) and by_layer["b"] == pytest.approx(2.0)
    assert by_function["a.f"] == pytest.approx(7.0)  # a.h at 6-7 is a's own time
    assert by_function["a.h"] == pytest.approx(2.0)


def test_rejection_needs_one_error_line_and_nonzero_exit():
    assert check_rejected(CliResult(1, "", "Error: malformed document: 'tail'\n"))
    assert not check_rejected(CliResult(0, '{"k": 3}\n', ""))
    assert not check_rejected(CliResult(None, "", "Traceback: ValueError: bad\n"))
    assert not check_rejected(CliResult(1, "FAIL boundary_flags\n", ""))
    assert not check_rejected(CliResult(1, "", "Error: one\ntwo\n"))


def setup_workload(workload, lib, tmp_path, seed=7):
    st = workload.setup(lib, seed, tmp_path)
    workload.prepare(st)
    return st


def test_tampered_plucker_vector_is_a_failed_op(lib, tmp_path, monkeypatch):
    workload = Measure(models=("gr37",))
    st = setup_workload(workload, lib, tmp_path)
    assert run.run_pass(workload, st).failures == {}

    honest = lib.partition_functions.boundary_measurement

    def tampered(model, weights):
        vec = honest(model, weights)
        values = [(I, x * 2 if i == 0 else x) for i, (I, x) in enumerate(
            (I, x) for I, x in vec.values if x != 0)]
        zeros = [(I, x) for I, x in vec.values if x == 0]
        return type(vec)(vec.k, vec.n, tuple(sorted(values + zeros)))

    monkeypatch.setattr(lib.partition_functions, "boundary_measurement", tampered)
    result = run.run_pass(workload, st)
    assert result.failures["gr37"] >= 3 and result.wrong_answers == result.failures["gr37"]
    assert len(result.failed_at) == result.failures["gr37"]
    assert run.run_pass(workload, st).failed_at == result.failed_at  # same ops fail every pass

    vec = tampered(lib.fixtures.gr37(), st.weights["gr37"][0])
    assert plucker_failures(vec.as_dict(), 3, 7) > 0


def test_op_times_are_scaled_by_the_kernel_samples_around_them(lib, tmp_path, monkeypatch):
    assert kernel() == kernel()
    workload = Measure(models=("gr37",))
    st = setup_workload(workload, lib, tmp_path)
    run.GAUGE.start()
    try:
        result = run.run_pass(workload, st)
    finally:
        run.GAUGE.stop()
    assert all(first <= end for first, end in result.gauge_at)
    assert result.gauge_at[0][0] >= run.GAUGE_BURST

    monkeypatch.setattr(run.GAUGE, "samples", [REFERENCE_S * x for x in [2] * 6 + [1] + [4] * 13])
    scaled = run.PassResult(latencies=[0.5, 3.0], gauge_at=[(5, 6), (12, 14)]).scaled
    assert scaled == pytest.approx([0.25, 0.75])  # medians of samples 0-10 and 7-18


def test_traced_pass_gives_the_untraced_digest(lib, tmp_path):
    workload = Wedges(models=("gr37",))
    st = setup_workload(workload, lib, tmp_path)
    before = bindings(lib)
    plain = run.run_pass(workload, st)
    tracer = Tracer([getattr(lib, layer) for layer in run.LAYERS], run.HOOKS)
    with tracer:
        traced = run.run_pass(workload, st, tracer)
    assert bindings(lib) == before
    assert plain.failures == traced.failures == {}
    assert plain.digest == traced.digest
    assert tracer.counts["kclass_weights.downstream_wedge.calls"] > 0


def test_inputs_follow_the_seed(lib, tmp_path):
    def plan(seed, where):
        where.mkdir()
        st = ColdCli().setup(lib, seed, where)
        texts = sorted(p.read_text() for p in where.glob("mutation-*.json"))
        return [(name, cmd, kind, Path(path).name, subset)
                for name, cmd, kind, path, subset in st.plan], texts

    assert plan(3, tmp_path / "a") == plan(3, tmp_path / "b")
    assert plan(3, tmp_path / "c") != plan(4, tmp_path / "d")


def test_reference_enumeration_agrees_with_the_library(lib):
    model = lib.fixtures.build_uniform(2, 4)
    ref = DocModel(lib.model.to_dict(model))
    mine = ref.matchings()
    assert all(ref.is_perfect_matching(mu) for mu in mine)
    assert set(ref.matchings_by_boundary()) == {frozenset(I) for I in [(1, 2), (1, 3), (1, 4),
                                                                       (2, 3), (2, 4), (3, 4)]}
    assert sorted(map(sorted, mine)) == sorted(
        sorted(mu.arrow_set) for mu in lib.matchings.enumerate_matchings(model))


def test_fails_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
