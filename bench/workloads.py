"""The benchmark workloads.

A workload builds its inputs from the seed in `setup` (timed as set-up),
computes reference answers in `prepare` (untimed), and then yields the ops
of one pass from `ops`. An op is one public call or one CLI command; the
runner times `call`, sends its result back into the generator (later ops
of the pass may use it) and judges it with `check`. Every pass of a run
repeats the same inputs, starting from models loaded afresh, so no result
computed in one pass can be reused by the next.

Why these four (see also BENCH_seed.json):

- verify: the paper's whole check suite as users run it; dominated by
  resolution ranks (intlinalg) and the rotation check's repeated validation.
- wedges: downstream-wedge flood fills for every vertex, each re-running
  the consistency check; almost no enumeration and no resolution. Not in
  BENCHMARK.json: four workloads do not fit the runs' time budget at a run
  length that is steady on a shared 2-vCPU host. Run it by hand.
- measure: matching enumeration feeding boundary measurements, Plücker
  checks and the positroid; no resolution and no wedges.
- cold-cli: short CLI commands on fresh model files, some of them mutated
  documents that must be rejected; the model/cli load path.
"""

from __future__ import annotations

import copy
import functools
import io
import json
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from oracle import (GR37_PERMUTATION, GR37_SOURCE_LABELS, DocModel, cyclic_intervals,
                    k_subsets, plucker_failures, plucker_relation_count, uniform_permutation)

VERIFY_CHECK_NAMES = (
    "validate", "check_postnikov", "boundary_size_sweep", "eta_unimodular",
    "cluster_ensemble", "msmatch_three_way", "wedge_boundary_labels",
    "weight_double_formula", "ms_formula_equality", "black_white_duality",
    "resolution_exactness", "rotation_identities", "plucker_relation_draws")


def canonical(x: Any) -> Any:
    """A JSON-able form of a library result, independent of set order."""
    if isinstance(x, BaseException):
        return {"error": type(x).__name__, "message": str(x)}
    if is_dataclass(x):
        return {f.name: canonical(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, dict):
        return sorted(([canonical(k), canonical(v)] for k, v in x.items()), key=json.dumps)
    if isinstance(x, (set, frozenset)):
        return sorted((canonical(v) for v in x), key=json.dumps)
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


@dataclass
class Op:
    label: str                      # "<model>/<what>[/<arg>]" or "mutation.<kind>/..."
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    span: Optional[str] = None      # span opened around the call when traced
    canon: Callable[[Any], Any] = canonical


OpStream = Generator[Op, Any, None]


def model_type(name: str) -> Tuple[int, int]:
    if name.startswith("uniform-"):
        k, n = name.split("-")[1:]
        return int(k), int(n)
    return {"gr37": (3, 7), "inconsistent": (1, 3)}[name]


def build(lib: SimpleNamespace, name: str) -> Any:
    if name.startswith("uniform-"):
        return lib.fixtures.build_uniform(*model_type(name))
    return getattr(lib.fixtures, name)()


# ---------------------------------------------------------------------------
# In-process CLI
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: Optional[int]             # None: an exception escaped (a traceback)
    out: str
    err: str


def run_cli(lib: SimpleNamespace, args: List[str]) -> CliResult:
    """Run `dimer <args>` as the console script would, capturing output."""
    out, err = io.StringIO(), io.StringIO()
    code: Optional[int] = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            lib.cli.main.main(args=args, prog_name="dimer", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # escaped the CLI: the user would see a traceback
            err.write("Traceback: " + "".join(traceback.format_exception_only(exc)))
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_canon(workdir: Path, res: CliResult) -> Any:
    """The command's exit code and output, with the run's work directory masked."""
    return [res.code, res.out.replace(str(workdir), "$WORK"), res.err.replace(str(workdir), "$WORK")]


def check_rejected(res: CliResult) -> bool:
    """A malformed document gets a one-line error and a non-zero exit."""
    return (res.code not in (0, None) and res.out == ""
            and res.err.startswith("Error: ") and res.err.count("\n") == 1)


# ---------------------------------------------------------------------------
# Shared checks against references
# ---------------------------------------------------------------------------

def labels_ok(name: str, ref: DocModel, source: Dict[int, frozenset],
              target: Dict[int, frozenset]) -> bool:
    k, n = model_type(name)
    for table in (source, target):
        labels = list(table.values())
        if (sorted(table) != ref.vertex_ids or any(len(lab) != k for lab in labels)
                or len(set(labels)) != len(labels)):
            return False
    if name == "gr37":
        return set(source.values()) == GR37_SOURCE_LABELS
    return cyclic_intervals(k, n) <= set(source.values()) & set(target.values())


def expected_permutation(name: str) -> Dict[int, int]:
    return GR37_PERMUTATION if name == "gr37" else uniform_permutation(*model_type(name))


def reference_positroid(name: str, ref: DocModel) -> frozenset:
    """Every k-subset for a uniform model; otherwise the enumerated boundaries."""
    if name.startswith("uniform-"):
        return frozenset(frozenset(I) for I in k_subsets(*model_type(name)))
    return frozenset(ref.matchings_by_boundary())


def ones(point: Any) -> frozenset:
    return frozenset(a for a, x in point.values if x == 1)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    models: Tuple[str, ...] = ()

    def __init__(self, models: Optional[Tuple[str, ...]] = None) -> None:
        if models is not None:
            self.models = models

    def setup(self, lib: SimpleNamespace, seed: int, workdir: Path) -> SimpleNamespace:
        raise NotImplementedError

    def prepare(self, st: SimpleNamespace) -> None:
        st.refs = {name: DocModel(doc) for name, doc in st.docs.items()}
        st.positroid = {name: reference_positroid(name, ref) for name, ref in st.refs.items()}

    def ops(self, st: SimpleNamespace) -> OpStream:
        raise NotImplementedError


class Verify(Workload):
    """`dimer verify --format json --seed S` once per model, in-process."""

    name = "verify"
    # uniform-3-6 (9 s on a 2-vCPU shared host) is left out: too slow to time
    # more than once or twice per run. Cheapest first, so the partial pass at
    # the end of a run re-times most ops.
    models = ("inconsistent", "uniform-2-5", "gr37")

    def setup(self, lib, seed, workdir):
        st = SimpleNamespace(lib=lib, workdir=workdir, docs={}, files={},
                             verify_seed=random.Random(f"{seed}/verify").randrange(2 ** 31))
        for name in self.models:
            st.files[name] = workdir / f"{name}.json"
            lib.model.save(build(lib, name), st.files[name])
        return st

    def ops(self, st):
        for name in self.models:
            args = ["verify", str(st.files[name]), "--format", "json",
                    "--seed", str(st.verify_seed)]
            yield Op(f"{name}/verify", functools.partial(run_cli, st.lib, args),
                     functools.partial(self.check, name, st.verify_seed), span="cli.verify",
                     canon=functools.partial(self.canon, st.workdir))

    @staticmethod
    def check(name: str, seed: int, res: CliResult) -> bool:
        doc = json.loads(res.out)
        names = tuple(c["name"] for c in doc["checks"])
        failed = {c["name"] for c in doc["checks"] if not c["passed"]}
        if names != VERIFY_CHECK_NAMES or doc["seed"] != seed:
            return False
        if name == "inconsistent":
            return (res.code == 1 and doc["passed"] is False and "validate" not in failed
                    and {"check_postnikov", "eta_unimodular"} <= failed)
        return res.code == 0 and doc["passed"] is True and not failed

    @staticmethod
    def canon(workdir: Path, res: CliResult) -> Any:
        try:
            doc = json.loads(res.out)
        except ValueError:
            return cli_canon(workdir, res)
        for check in doc.get("checks", []):
            check.pop("seconds", None)
        return [res.code, doc, res.err]


class Wedges(Workload):
    """𝔪_j three ways for every vertex, plus labels and η⁻¹ once per model."""

    name = "wedges"
    models = ("gr37", "uniform-3-7", "uniform-4-8")

    def setup(self, lib, seed, workdir):
        rng = random.Random(f"{seed}/wedges")
        st = SimpleNamespace(lib=lib, docs={}, order={})
        for name in self.models:
            doc = lib.model.to_dict(build(lib, name))
            st.docs[name] = doc
            st.order[name] = rng.sample([v["id"] for v in doc["vertices"]], len(doc["vertices"]))
        return st

    def ops(self, st):
        lib = st.lib
        kw = lib.kclass_weights
        for name, doc in st.docs.items():
            ref = st.refs[name]
            model = yield Op(f"{name}/from_dict", functools.partial(lib.model.from_dict, doc),
                             lambda m: sorted(v.id for v in m.vertices) == ref.vertex_ids)
            table = yield Op(f"{name}/label_table", lambda: lib.strands.label_table(model),
                             lambda t: labels_ok(name, ref, t.source, t.target))
            inverse = yield Op(f"{name}/eta_inverse_basis",
                               lambda: lib.lattice_maps.eta_inverse_basis(model),
                               lambda inv: sorted(inv) == ref.vertex_ids and all(
                                   ref.is_perfect_matching(ones(p)) for p in inv.values()))
            for j in st.order[name]:
                yield Op(f"{name}/muller_speyer_matching/{j}",
                         lambda: kw.muller_speyer_matching(model, j),
                         lambda mu: (ref.is_perfect_matching(mu.arrow_set)
                                     and ref.boundary(mu.arrow_set) == table.source[j]
                                     and mu.arrow_set == ones(inverse[j])))
                yield Op(f"{name}/upstream_matching/{j}",
                         lambda: kw.upstream_matching(model, j),
                         lambda mu: (ref.is_perfect_matching(mu.arrow_set)
                                     and ref.boundary(mu.arrow_set) == table.target[j]))
                yield Op(f"{name}/projective_matching_oracle/{j}",
                         lambda: kw.projective_matching_oracle(model, j),
                         lambda mu: mu.arrow_set == ones(inverse[j]))


class Measure(Workload):
    """Boundary measurements at seeded weights, Plücker checks, positroid."""

    name = "measure"
    models = ("gr37", "uniform-4-9", "uniform-5-10")
    draws = 3

    def setup(self, lib, seed, workdir):
        rng = random.Random(f"{seed}/measure")
        st = SimpleNamespace(lib=lib, docs={}, weights={})
        for name in self.models:
            doc = lib.model.to_dict(build(lib, name))
            st.docs[name] = doc
            st.weights[name] = [{a["id"]: Fraction(rng.randint(1, 20), rng.randint(1, 20))
                                 for a in doc["arrows"]} for _ in range(self.draws)]
        return st

    def ops(self, st):
        lib = st.lib
        pf, mm = lib.partition_functions, lib.matchings
        for name, doc in st.docs.items():
            k, n = model_type(name)
            support = st.positroid[name]
            model = yield Op(f"{name}/from_dict", functools.partial(lib.model.from_dict, doc),
                             lambda m: len(m.arrows) == len(doc["arrows"]))
            vectors = []
            for i, w in enumerate(st.weights[name]):
                vec = yield Op(f"{name}/boundary_measurement/{i}",
                               lambda: pf.boundary_measurement(model, w),
                               functools.partial(self.check_draw, k, n, support))
                vectors.append(vec)
            for i, vec in enumerate(vectors):
                yield Op(f"{name}/check_plucker_relations/{i}",
                         lambda: pf.check_plucker_relations(vec, k, n),
                         lambda r: (r.passed and not r.failures
                                    and r.checked == plucker_relation_count(k, n)))
            yield Op(f"{name}/positroid", lambda: mm.positroid(model), lambda p: p == support)
            for J in k_subsets(k, n):
                yield Op(f"{name}/positroid_contains_necklace_test/{''.join(map(str, J))}",
                         lambda: mm.positroid_contains_necklace_test(model, J),
                         lambda b: b is (frozenset(J) in support))

    @staticmethod
    def check_draw(k: int, n: int, support: frozenset, vec: Any) -> bool:
        values = vec.as_dict()
        return (set(values) == set(k_subsets(k, n))
                and all(x >= 0 for x in values.values())
                and frozenset(frozenset(I) for I, x in values.items() if x != 0) == support
                and plucker_failures(values, k, n) == 0)


MUTATIONS = ("missing_key", "bad_json", "dangling_arrow", "string_bool", "float_id")


def mutate(doc: dict, kind: str, rng: random.Random) -> str:
    """The text of a malformed copy of a model document.

    string_bool writes "false" (a string) on an internal vertex and
    float_id adds 0.5 to an id; a strict reader rejects both.
    """
    d = copy.deepcopy(doc)
    if kind == "missing_key":
        section, keys = rng.choice([("vertices", ("id", "is_boundary")),
                                    ("arrows", ("id", "tail", "head", "is_boundary")),
                                    ("faces", ("id", "color", "boundary_cycle"))])
        del rng.choice(d[section])[rng.choice(keys)]
    elif kind == "bad_json":
        text = json.dumps(d)
        return text[:rng.randrange(1, len(text) - 1)]
    elif kind == "dangling_arrow":
        face = rng.choice(d["faces"])
        pos = rng.randrange(len(face["boundary_cycle"]))
        face["boundary_cycle"][pos] = max(a["id"] for a in d["arrows"]) + rng.randint(1, 9)
    elif kind == "string_bool":
        rng.choice([v for v in d["vertices"] if not v["is_boundary"]])["is_boundary"] = "false"
    elif kind == "float_id":
        section = rng.choice(["vertices", "arrows", "faces"])
        rng.choice(d[section])["id"] += 0.5
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return json.dumps(d)


class ColdCli(Workload):
    """Short CLI commands on model files, a fixed share of them mutated."""

    name = "cold-cli"
    models = ("uniform-2-5", "uniform-3-6", "uniform-3-7", "uniform-4-8", "gr37")
    commands = ("validate", "type", "check", "strands", "labels", "positroid", "lattice",
                "matchings", "measure", "twist-expr")
    repeats = 11  # valid commands per (model, command); plus one mutated per (kind, command)

    def setup(self, lib, seed, workdir):
        rng = random.Random(f"{seed}/cold-cli")
        st = SimpleNamespace(lib=lib, workdir=workdir, docs={}, files={}, plan=[])
        for name in self.models:
            model = build(lib, name)
            st.files[name] = workdir / f"{name}.json"
            lib.model.save(model, st.files[name])
            st.docs[name] = lib.model.to_dict(model)
        jobs = [(name, cmd, None) for name in self.models for cmd in self.commands
                for _ in range(self.repeats)]
        # Each kind of mutation meets every command once and every model twice,
        # so the malformed share costs the same whatever the seed.
        jobs += [(self.models[(i + j) % len(self.models)], cmd, kind)
                 for i, kind in enumerate(MUTATIONS) for j, cmd in enumerate(self.commands)]
        rng.shuffle(jobs)
        for i, (name, cmd, kind) in enumerate(jobs):
            path = st.files[name]
            if kind is not None:
                path = workdir / f"mutation-{i}.json"
                path.write_text(mutate(st.docs[name], kind, rng), encoding="utf-8")
            st.plan.append((name, cmd, kind, str(path), self.subset(name, rng)))
        return st

    @staticmethod
    def subset(name: str, rng: random.Random) -> frozenset:
        """A k-subset in the positroid: any for uniform, a documented label for gr37."""
        if name == "gr37":
            return rng.choice(sorted(GR37_SOURCE_LABELS, key=sorted))
        k, n = model_type(name)
        return frozenset(rng.sample(range(1, n + 1), k))

    def prepare(self, st):
        super().prepare(st)
        st.groups = {name: ref.matchings_by_boundary() for name, ref in st.refs.items()}

    def ops(self, st):
        canon = functools.partial(cli_canon, st.workdir)
        for name, cmd, kind, path, subset in st.plan:
            extra = {"matchings": ["--boundary"], "twist-expr": ["--subset"]}.get(cmd)
            args = [cmd, path, "--format", "json"]
            if extra:
                args += [*extra, ",".join(map(str, sorted(subset)))]
            if cmd == "measure":
                args += ["--weights", "unit", "--check-plucker"]
            if kind is None:
                label = f"{name}/{cmd}"
                check = functools.partial(self.check, st, name, cmd, subset)
            else:
                label = f"mutation.{kind}/{name}/{cmd}"
                check = check_rejected
            yield Op(label, functools.partial(run_cli, st.lib, args), check,
                     span=f"cli.{cmd}", canon=canon)

    @staticmethod
    def check(st: SimpleNamespace, name: str, cmd: str, subset: frozenset,
              res: CliResult) -> bool:
        if res.code != 0:
            return False
        doc = json.loads(res.out)
        ref, groups = st.refs[name], st.groups[name]
        k, n = model_type(name)
        count = len(groups.get(subset, ()))
        if cmd == "validate":
            return doc["passed"] is True
        if cmd == "type":
            return (doc["k"], doc["n"]) == (k, n)
        if cmd == "check":
            return doc["consistent"] is True
        if cmd == "strands":
            return {s["source"]: s["target"] for s in doc["strands"]} == expected_permutation(name)
        if cmd == "labels":
            source = {int(v): frozenset(lab) for v, lab in doc["labels"].items()}
            return doc["kind"] == "source" and labels_ok(name, ref, source, source)
        if cmd == "positroid":
            return {frozenset(s) for s in doc["subsets"]} == st.positroid[name]
        if cmd == "lattice":
            V = len(ref.vertex_ids)
            return (doc["rank"] == V and doc["eta_invariant_factors"] == [1] * V
                    and doc["eta_unimodular"] is True)
        if cmd == "matchings":
            return sorted(map(tuple, doc["matchings"])) == sorted(
                tuple(sorted(mu)) for mu in groups[subset])
        if cmd == "measure":
            return (doc["plucker"]["passed"] is True
                    and doc["plucker"]["checked"] == plucker_relation_count(k, n)
                    and doc["values"] == {",".join(map(str, I)): str(len(groups.get(frozenset(I), ())))
                                          for I in k_subsets(k, n)})
        if cmd == "twist-expr":
            coefficients = [t["coefficient"] for t in doc["polynomial"]["terms"]]
            return count > 0 and all(c > 0 for c in coefficients) and sum(coefficients) == count
        raise ValueError(f"no check for command {cmd!r}")


WORKLOADS = {w.name: w for w in (Verify, Wedges, Measure, ColdCli)}
