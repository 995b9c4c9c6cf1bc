"""discdimer benchmark: one workload per process, end-to-end or per-layer.

Run from the repository root:

    python3 bench/run.py --workload verify --seed 1 --seconds 38 --trace 0

Workloads: verify, measure and cold-cli, which BENCHMARK.json lists, and
wedges, which it leaves out to fit the runs' time budget (see workloads.py).
The run imports discdimer from ./src, sets up the workload's models from the seed,
then runs one whole pass of the workload's fixed work and repeats it until
--seconds are used up; the last repeat runs only the leading ops that fit.
One client, closed loop, no threads.

Times are in seconds at reference speed. An op is timed in CPU time
(time.thread_time, user plus system, of the one thread the run uses), which
leaves out the stretches in which the host ran other tenants instead of
this virtual CPU (steal time). The speed of the CPU itself still changes
by up to 1.9 times for seconds to minutes with the host's load. So a
profiling timer runs a fixed reference computation (bench/reference.py)
every 50 ms of CPU time, also in the middle of long ops; its CPU time is
taken out of the op it interrupted, and each op's CPU time is scaled by
REFERENCE_S over the median of the kernel samples taken during it and the
five before and after it. A change to discdimer cannot change the kernel,
so it changes the scaled times as it changes the CPU time. The summary
line reports the unscaled CPU time and the wall-clock time of a pass and
the kernel's median time.

--trace 0 reports the end-to-end metrics: setup_s (median of several
set-ups, each a fresh import of discdimer plus building and writing the
models), work_s (one pass: the sum over its ops of each op's median
reading), op_p50_ms / op_p90_ms (percentiles of those op times,
interpolated between ranks) and peak_rss_mb.

--trace 1 spends half the time on untraced passes and half on passes
with every public function of discdimer wrapped by bench/tracer.py, and
reports the per-layer metrics, including trace.overhead_ratio.

The last line of stdout is the result object; the line before it is a
summary with the seed, the output digest (sha256 of the canonical outputs
of one pass, timings removed; equal on every whole pass, traced or not), the
sample counts and failures by op group. `correct` is true when every pass
gave the same digest, failed on the same ops, and every op on a well-formed
input gave the reference answer. `attempted` and `failed` count the distinct
ops of one pass, so they depend on the seed only; `failed` includes
malformed documents that were not rejected.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import REFERENCE_S, kernel  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("model", "plabic", "fixtures", "strands", "matchings", "lattice_maps",
          "kclass_weights", "partition_functions", "resolution", "intlinalg", "cli")
SETUP_REPEATS = 11
GAUGE_EVERY = 0.05  # CPU seconds between reference-kernel samples
GAUGE_BURST = 10    # samples taken when the gauge starts
GAUGE_WINDOW = 5    # an op is scaled by the samples taken during it and this many each side


def import_library() -> SimpleNamespace:
    """Import discdimer afresh from ./src, so each set-up pays for the import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "discdimer" or m.startswith("discdimer.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{layer: importlib.import_module(f"discdimer.{layer}")
                             for layer in LAYERS})
    if Path(lib.cli.__file__).resolve().parent != SRC / "discdimer":
        raise RuntimeError(f"discdimer was imported from {lib.cli.__file__}, not {SRC}")
    return lib


class Gauge:
    """CPU times of the reference kernel, sampled every GAUGE_EVERY seconds
    of this process's CPU time by a profiling timer, so also in the middle
    of long ops. `spent` is the CPU time the samples took, which the
    runner takes out of the ops' times."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self.busy = False

    def sample(self, *_: Any) -> None:
        if self.busy:
            return
        self.busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection due in the op stays in the op
        start = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - start)
        self.spent += self.samples[-1]
        if collecting:
            gc.enable()
        self.busy = False

    def start(self) -> None:
        for _ in range(GAUGE_BURST):
            self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, GAUGE_EVERY, GAUGE_EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def window(self, first: int, end: int) -> List[float]:
        """The samples taken from `first` to `end`, and GAUGE_WINDOW more each side."""
        return self.samples[max(0, first - GAUGE_WINDOW):end + GAUGE_WINDOW]


GAUGE = Gauge()


def scale(samples: List[float]) -> float:
    """Factor from CPU seconds now to seconds at reference speed."""
    return REFERENCE_S / statistics.median(samples)


@dataclass
class PassResult:
    latencies: List[float] = field(default_factory=list)  # per op, in pass order: CPU s
    gauge_at: List[Tuple[int, int]] = field(default_factory=list)  # per op: GAUGE samples before, after
    walls: List[float] = field(default_factory=list)      # per op, in pass order: wall s
    costs: List[float] = field(default_factory=list)      # per op: call, check and digest; wall s
    digest: Optional[str] = None                          # None: cut short at the deadline
    failures: Counter = field(default_factory=Counter)
    failed_at: List[int] = field(default_factory=list)    # indices of failed ops
    wrong_answers: int = 0

    @property
    def scaled(self) -> List[float]:
        """Op times in seconds at reference speed, each scaled by the kernel
        samples taken during it and nearest before and after it."""
        return [t * scale(GAUGE.window(*at)) for t, at in zip(self.latencies, self.gauge_at)]


def run_pass(workload: Workload, st: SimpleNamespace, tracer: Optional[Tracer] = None,
             deadline: Optional[float] = None, estimates: Optional[List[float]] = None
             ) -> PassResult:
    """One pass of the workload's ops. Given a deadline, stop before the
    first op whose estimated cost would end after it."""
    sha = hashlib.sha256()
    result = PassResult()
    stream = workload.ops(st)
    out: Any = None
    for i in itertools.count():
        try:
            op = stream.send(out)
        except StopIteration:
            result.digest = sha.hexdigest()
            return result
        start = time.perf_counter()
        if deadline is not None and start + estimates[i] > deadline:
            stream.close()
            return result
        first, spent = len(GAUGE.samples), GAUGE.spent
        cpu_start = time.thread_time()
        try:
            with tracer.span(op.span) if tracer and op.span else nullcontext():
                out = op.call()
        except Exception as exc:  # an op that raises is a failed op
            out = exc
        result.latencies.append(time.thread_time() - cpu_start - (GAUGE.spent - spent))
        result.gauge_at.append((first, len(GAUGE.samples)))
        result.walls.append(time.perf_counter() - start)
        try:
            ok = not isinstance(out, Exception) and op.check(out) is True
        except Exception:  # a malformed output fails its check
            ok = False
        if not ok:
            group = op.label.split("/", 1)[0]
            result.failures[group] += 1
            result.failed_at.append(i)
            result.wrong_answers += not group.startswith("mutation.")
        sha.update(f"{op.label}\t{json.dumps(op.canon(out), sort_keys=True)}\n".encode())
        result.costs.append(time.perf_counter() - start)
    raise AssertionError("unreachable")


def run_passes(workload: Workload, st: SimpleNamespace, budget: float,
               tracer: Optional[Tracer] = None, on_pass: Any = None,
               partial: bool = False) -> List[PassResult]:
    """One whole pass, then more while they fit in `budget` seconds. With
    `partial`, the last pass runs as many of its leading ops as fit."""
    deadline = time.perf_counter() + budget
    results = [run_pass(workload, st, tracer)]
    if on_pass is not None:
        on_pass()
    costs = results[0].costs
    while results[-1].digest is not None:
        now = time.perf_counter()
        if partial and now + costs[0] <= deadline:
            results.append(run_pass(workload, st, tracer, deadline, costs))
        elif now + sum(costs) <= deadline:
            results.append(run_pass(workload, st, tracer))
        else:
            break
        if on_pass is not None:
            on_pass()
    return results


def per_op(passes: List[PassResult], reading: str = "scaled") -> List[float]:
    """Each op's median reading over the passes that reached it.

    Every pass runs the same ops in the same order on fresh models, so the
    readings of one op differ only by interference from other processes.
    """
    readings = [getattr(p, reading) for p in passes]
    return [statistics.median(r[i] for r in readings if i < len(r))
            for i in range(len(readings[0]))]


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    by_layer, by_function = tracer.self_times()
    c = tracer.counts
    pieces = c["resolution.graded_piece.calls"]
    return {
        "intlinalg.self_s": by_layer["intlinalg"],
        "intlinalg.rational_rank.calls": c["intlinalg.rational_rank.calls"],
        "intlinalg.rational_rank.entries": c["intlinalg.rational_rank.entries"],
        "resolution.self_s": by_layer["resolution"],
        "resolution.graded_piece.calls": pieces,
        "resolution.degrees_toward.calls": c["resolution.degrees_toward.calls"],
        "resolution.distinct_reachable_ratio":
            len(tracer.notes.get("reachable", ())) / pieces if pieces else 0.0,
        "model.self_s": by_layer["model"],
        "model.validate.calls": c["model.validate.calls"],
        "model.validate.self_s": by_function["model.validate"],
        "model.load.self_s": by_function["model.load"],
        "strands.check_postnikov.calls": c["strands.check_postnikov.calls"],
        "strands.self_s": by_layer["strands"],
        "kclass_weights.downstream_wedge.calls": c["kclass_weights.downstream_wedge.calls"],
        "kclass_weights.self_s": by_layer["kclass_weights"],
        "lattice_maps.self_s": by_layer["lattice_maps"],
        "matchings.enumerate.calls": c["matchings.enumerate_matchings.calls"],
        "matchings.enumerate.matchings_yielded": c["matchings.enumerate.matchings_yielded"],
        "matchings.self_s": by_layer["matchings"],
        "partition_functions.self_s": by_layer["partition_functions"],
        "cli.self_s": by_layer["cli"],
    }


def count_rank_entries(tracer: Tracer, args: tuple, result: Any, parent: Optional[str]) -> None:
    matrix = args[0]
    tracer.counts["intlinalg.rational_rank.entries"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def count_matchings(tracer: Tracer, args: tuple, result: Any, parent: Optional[str]) -> None:
    tracer.counts["matchings.enumerate.matchings_yielded"] += len(result)


def note_reachable(tracer: Tracer, args: tuple, result: Any, parent: Optional[str]) -> None:
    """Distinct (model, matching, reachable set) triples behind graded pieces."""
    if parent == "resolution.graded_piece":
        model, mu = args[0], args[1]
        tracer.notes.setdefault("models", {})[id(model)] = model  # keeps ids unique
        tracer.notes.setdefault("reachable", set()).add((id(model), mu.arrow_set, result.members))


HOOKS = {"intlinalg.rational_rank": count_rank_entries,
         "matchings.enumerate_matchings": count_matchings,
         "resolution.reachable_set": note_reachable}


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "discdimer" / "cli.py").is_file():
        print(f"error: no discdimer sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    GAUGE.start()
    try:
        setup_cpu, setup_at = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gc.collect()  # the previous set-up's garbage is not this one's cost
            first, spent = len(GAUGE.samples), GAUGE.spent
            start = time.thread_time()
            lib = import_library()
            st = workload.setup(lib, args.seed, workdir)
            setup_cpu.append(time.thread_time() - start - (GAUGE.spent - spent))
            setup_at.append((first, len(GAUGE.samples)))
        workload.prepare(st)

        run_start = time.perf_counter()
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = run_passes(workload, st, budget, partial=True)
        traced: List[PassResult] = []
        layers: List[Dict[str, float]] = []
        if args.trace:
            tracer = Tracer([getattr(lib, layer) for layer in LAYERS], HOOKS)

            def collect() -> None:
                layers.append(layer_metrics(tracer))
                tracer.reset()

            with tracer:
                traced = run_passes(workload, st, args.seconds - (time.perf_counter() - run_start),
                                    tracer, collect)
    finally:
        GAUGE.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    setup_times = [t * scale(GAUGE.window(*at)) for t, at in zip(setup_cpu, setup_at)]
    passes = untraced + traced
    digests = {p.digest for p in passes if p.digest is not None}
    # Every pass repeats the same ops, so attempted and failed count the
    # distinct ops of one whole pass: the same seed gives the same counts,
    # however many passes fit in the run. Every other pass must fail on
    # the same ops (a cut-short pass on those it reached).
    first = untraced[0]
    failures = first.failures
    attempted = len(first.latencies)
    same_failures = all(p.failed_at == [i for i in first.failed_at if i < len(p.latencies)]
                        for p in passes)
    op_times = per_op(untraced)
    work = sum(op_times)
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_ratio"] = sum(per_op(traced)) / work
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "work_s": work,
            "op_p50_ms": percentile(op_times, 50) * 1e3,
            "op_p90_ms": percentile(op_times, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "output_digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "ops_per_pass": len(op_times),
        "work_cpu_s": sum(per_op(untraced, "latencies")),
        "work_wall_s": sum(per_op(untraced, "walls")),
        "gauge_samples": len(GAUGE.samples),
        "gauge_median_ms": statistics.median(GAUGE.samples) * 1e3,
        "setup_runs_s": [round(t, 4) for t in setup_times],
        "setup_cpu_s": statistics.median(setup_cpu),
        "untraced_passes": len(untraced), "traced_passes": len(traced),
        "op_samples": sum(len(p.latencies) for p in untraced),
        "failed_ops_ratio": sum(failures.values()) / attempted,
        "failures": dict(sorted(failures.items())),
    }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": (len(digests) == 1 and same_failures
                    and not any(p.wrong_answers for p in passes)),
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
