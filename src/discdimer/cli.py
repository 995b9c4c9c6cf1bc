"""Command-line entry point wiring all modules together.

Every subcommand reads the JSON model format of `model.save`/`model.load`.
A model argument may be a file path, a file name under the directory named
by the DIMER_FIXTURES environment variable, or the name of a bundled
fixture (triangle, gr37, inconsistent, uniform-K-N).

A report command is one function decorated with `model_command`: it takes
the loaded model and its own options and returns ``(doc, text_lines,
passed)``, where ``text_lines()`` builds the text report only when it is
printed; the decorator adds the FILE argument and ``--format``, loads the
model and emits the report, as plain text by default or as a JSON document
with a stable ``"schema": 1`` field under ``--format json``. Only `dimer
verify` and the writers (build-uniform, opposite, standardise, fixtures)
have their own frame. `dimer verify` runs the ordered check suite of
`discdimer.verify` and exits 0 iff every check passes. Any ValueError a
command raises (a malformed file, a model that fails validation or
consistency, a failed precondition) is reported as one ``Error:`` line with
exit code 1, as is an output path a writer cannot write.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, Iterator, List, Optional

import click

from . import model as model_lib
from .fixtures import FIXTURE_BUILDERS, build_uniform
from .kclass_weights import downstream_wedge, kclass_of_matching, muller_speyer_matching
from .lattice_maps import (check_cluster_ensemble, eta_invariant_factors,
                           is_eta_unimodular, lattice_basis)
from .matchings import (Matching, enumerate_matchings, extreme_matchings, is_matching,
                        matchings_with_boundary, positroid)
from .model import (BLACK, WHITE, DimerModel, StructuralError, opposite,
                    standardise, type_of, validate)
from .partition_functions import (LaurentPoly, boundary_measurement,
                                  check_plucker_relations, ms_formula,
                                  musp_twist_expression, unit_weights)
from .resolution import check_resolution, rotate_matching
from .strands import (check_postnikov, require_consistent, source_labels,
                      strands as strands_of, target_labels)
from .verify import run_checks, three_way_msmatch

SCHEMA = 1


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

# A decimal number: ASCII digits with no sign and no leading zero.
_NUMBER = "(0|[1-9][0-9]*)"
_ID = re.compile(f" *{_NUMBER} *")
_UNIFORM = re.compile(f"uniform-{_NUMBER}-{_NUMBER}")
_WEIGHT = re.compile(f"{_NUMBER}(?:/{_NUMBER})?")


def _load(name: str) -> DimerModel:
    if os.path.isfile(name):
        return model_lib.load(name)
    fixture_dir = os.environ.get("DIMER_FIXTURES")
    if fixture_dir:
        for candidate in (os.path.join(fixture_dir, name),
                          os.path.join(fixture_dir, name + ".json")):
            if os.path.isfile(candidate):
                return model_lib.load(candidate)
    if name in FIXTURE_BUILDERS:
        return FIXTURE_BUILDERS[name]()
    if name.startswith("uniform-"):
        match = _UNIFORM.fullmatch(name)
        if match is None:
            raise click.ClickException(f"cannot resolve model {name!r}: expected "
                                       "uniform-K-N with integers 1 <= K < N")
        try:
            return build_uniform(int(match[1]), int(match[2]))
        except ValueError as exc:
            raise click.ClickException(f"cannot resolve model {name!r}: {exc}")
    raise click.ClickException(f"cannot resolve model {name!r}: not a file, "
                               "not under DIMER_FIXTURES, not a bundled fixture")


def _parse_id(token: str, what: str, text: str) -> int:
    """The id a token spells: ASCII digits with no sign and no leading zero,
    between optional spaces; any other token is an error that names it."""
    match = _ID.fullmatch(token)
    if match is None:
        raise click.ClickException(f"cannot parse {what} {text!r}: {token!r} is not a decimal id")
    return int(match[1])


class _Integer(click.ParamType):
    """An integer option, read as `_parse_id` reads an id; its default is
    an int already."""
    name = "integer"

    def convert(self, value, param, ctx) -> int:
        return value if isinstance(value, int) else _parse_id(value, param.name, value)


def _read_weight(key: str, x: object) -> Fraction:
    """An arrow's weight: a JSON integer, or a string p or p/q of ASCII
    digits with no sign and no leading zero; nothing else."""
    if type(x) is int:
        return Fraction(x)
    match = _WEIGHT.fullmatch(x) if isinstance(x, str) else None
    if match is None:
        raise ValueError(f"weight {json.dumps(x)} of arrow {key} is not an integer "
                         "or a string p or p/q of decimal digits")
    return Fraction(int(match[1]), int(match[2] or 1))


def _parse_ints(text: str, what: str) -> List[int]:
    ids = [_parse_id(token, what, text) for token in text.split(",")]
    repeated = sorted({x for x in ids if ids.count(x) > 1})
    if repeated:
        raise click.ClickException(f"{what} {text!r} repeats {repeated[0]}")
    return ids


def _matching_from_option(model: DimerModel, text: str) -> Matching:
    ids = _parse_ints(text, "matching")
    if not is_matching(model, ids):
        raise click.ClickException(f"arrow ids {sorted(ids)} are not a perfect matching")
    return Matching(frozenset(ids))


def _poly_report(I: List[int], poly: LaurentPoly) -> tuple:
    terms = [{"exponents": {str(i): e for i, e in key}, "coefficient": c} for key, c in poly.terms]
    doc = {"subset": sorted(set(I)), "polynomial": {"basis": poly.basis, "terms": terms}}
    return doc, lambda: [poly.pretty()]


def _emit(doc: dict, fmt: str, text_lines: Callable[[], List[str]], passed: bool = True) -> None:
    """Print the report; exit with code 1 after it unless it `passed`."""
    # Echoes name sys.stdout: click's default lookup keeps every redirected stdout alive.
    if fmt == "json":
        doc = {"schema": SCHEMA, **doc}
        click.echo(json.dumps(doc, indent=1, sort_keys=True), file=sys.stdout)
    else:
        for line in text_lines():
            click.echo(line, file=sys.stdout)
    if not passed:
        sys.exit(1)


format_option = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                             default="text", show_default=True,
                             help="Output format.")
matching_option = click.option("--matching", "matching", required=True,
                               help="Matching as comma-separated arrow ids.")
subset_option = click.option("--subset", "subset", required=True, help="k-subset, e.g. 1,3,5.")


class _OneLineErrors(click.Group):
    """Reports every ValueError a command raises as one `Error:` line with
    exit code 1. StructuralError and UnicodeDecodeError are ValueErrors."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_OneLineErrors)
def main() -> None:
    """Combinatorics of consistent dimer models on the disc."""


def model_command(name: str, *options: Callable) -> Callable:
    """Register `dimer <name> FILE [options] [--format]` as a report on a model.

    The body is called as `body(model, **options)` with the model FILE names
    and returns `(doc, text_lines)` or `(doc, text_lines, passed)`, where
    `text_lines()` gives the text report; the doc, with `"command": name`
    added, or the text lines are printed as `_emit` prints them."""
    def register(body: Callable) -> click.Command:
        @functools.wraps(body)
        def command(file: str, fmt: str, **values) -> None:
            doc, *rest = body(_load(file), **values)
            _emit({"command": name, **doc}, fmt, *rest)
        for option in reversed((click.argument("file"), *options, format_option)):
            command = option(command)
        return main.command(name)(command)
    return register


# ---------------------------------------------------------------------------
# Core model commands
# ---------------------------------------------------------------------------

@model_command("validate")
def cmd_validate(model: DimerModel) -> tuple:
    """Run the structural validity checks."""
    report = validate(model)
    doc = {"passed": report.passed,
           "checks": {name: {"ok": ok, "detail": detail}
                      for name, (ok, detail) in report.checks.items()}}
    return doc, lambda: [
        *(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else "")
          for name, (ok, detail) in report.checks.items()),
        f"valid: {report.passed}"], report.passed


@model_command("type")
def cmd_type(model: DimerModel) -> tuple:
    """Print the type (k, n) of the model."""
    k, n = type_of(model)
    return {"k": k, "n": n}, lambda: [f"({k}, {n})"]


@contextlib.contextmanager
def _saving(path: str) -> Iterator[None]:
    """Report an OSError raised while writing `path` as one `Error:` line."""
    try:
        yield
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}")


def _write_model(model: DimerModel, out: Optional[str]) -> None:
    if out:
        with _saving(out):
            model_lib.save(model, out)
    else:
        click.echo(json.dumps(model_lib.to_dict(model), indent=1, sort_keys=True), file=sys.stdout)


@main.command("build-uniform")
@click.option("-k", "k", type=_Integer(), required=True)
@click.option("-n", "n", type=_Integer(), required=True)
@click.option("-o", "out", required=True, help="Output model file.")
def cmd_build_uniform(k: int, n: int, out: str) -> None:
    """Build the uniform (k,n) model and write it to a file."""
    model = build_uniform(k, n)
    _write_model(model, out)
    click.echo(f"wrote uniform ({k},{n}) model with {len(model.vertices)} vertices to {out}",
               file=sys.stdout)


@main.command("opposite")
@click.argument("file")
@click.option("-o", "out", default=None, help="Output file (default: stdout).")
def cmd_opposite(file: str, out: Optional[str]) -> None:
    """Write the opposite model (all arrows and colours reversed)."""
    _write_model(opposite(_load(file)), out)


@main.command("standardise")
@click.argument("file")
@click.option("--black", "black", is_flag=True,
              help="Standardise with black boundary faces instead of white.")
@click.option("-o", "out", default=None, help="Output file (default: stdout).")
def cmd_standardise(file: str, black: bool, out: Optional[str]) -> None:
    """Insert digons so every boundary arrow lies in a face of one colour."""
    _write_model(standardise(_load(file), BLACK if black else WHITE), out)


# ---------------------------------------------------------------------------
# Strand commands
# ---------------------------------------------------------------------------

@model_command("strands")
def cmd_strands(model: DimerModel) -> tuple:
    """List the strands (zig-zag paths) of the model."""
    all_strands = strands_of(model)
    doc = {"strands": [{"source": s.start_label, "target": s.end_label,
                        "arrows": list(s.arrows)} for s in all_strands]}
    return doc, lambda: [f"{s.start_label} -> {s.end_label}: arrows {list(s.arrows)}"
                         for s in all_strands]


@model_command("labels", click.option("--target", "use_target", is_flag=True,
                                      help="Print target labels instead of source labels."))
def cmd_labels(model: DimerModel, use_target: bool) -> tuple:
    """Print the source (or target) label of every quiver vertex."""
    table = target_labels(model) if use_target else source_labels(model)
    kind = "target" if use_target else "source"
    doc = {"kind": kind, "labels": {str(v): sorted(lab) for v, lab in sorted(table.items())}}
    return doc, lambda: [f"{v}: {sorted(lab)}" for v, lab in sorted(table.items())]


@model_command("check")
def cmd_check(model: DimerModel) -> tuple:
    """Check strand consistency; exit 0 iff the model is consistent."""
    report = check_postnikov(model)
    doc = {"consistent": report.passed,
           "b1_pass": report.b1_pass, "b2_pass": report.b2_pass,
           "closed_loop_arrows": list(report.closed_loop_arrows),
           "b1_witness": list(report.b1_witness) if report.b1_witness else None,
           "b2_witness": list(report.b2_witness) if report.b2_witness else None}
    return doc, lambda: [
        f"b1 (no double crossing): {'pass' if report.b1_pass else 'FAIL'}",
        f"b2 (opposite orders): {'pass' if report.b2_pass else 'FAIL'}",
        f"closed loops: {list(report.closed_loop_arrows) or 'none'}",
        f"consistent: {report.passed}"], report.passed


# ---------------------------------------------------------------------------
# Matching commands
# ---------------------------------------------------------------------------

@model_command("matchings", click.option(
    "--boundary", "boundary", default=None,
    help="Restrict to matchings with this boundary value, e.g. 1,3,5."))
def cmd_matchings(model: DimerModel, boundary: Optional[str]) -> tuple:
    """Enumerate perfect matchings as sorted arrow-id arrays."""
    if boundary is None:
        pool = enumerate_matchings(model)
    else:
        pool = matchings_with_boundary(model, _parse_ints(boundary, "boundary"))
    arrays = sorted(sorted(mu.arrow_set) for mu in pool)
    doc = {"count": len(arrays), "matchings": arrays}
    return doc, lambda: [str(a) for a in arrays] + [f"count: {len(arrays)}"]


@model_command("positroid")
def cmd_positroid(model: DimerModel) -> tuple:
    """List the boundary values of perfect matchings."""
    subsets = sorted(sorted(I) for I in positroid(model))
    doc = {"count": len(subsets), "subsets": subsets}
    return doc, lambda: [str(s) for s in subsets] + [f"count: {len(subsets)}"]


@model_command("extremes", click.option("--boundary", "boundary", required=True,
                                        help="Boundary value, e.g. 1,3,5."))
def cmd_extremes(model: DimerModel, boundary: str) -> tuple:
    """The flip-minimal and flip-maximal matchings with a given boundary."""
    I = _parse_ints(boundary, "boundary")
    lo, hi = (sorted(mu.arrow_set) for mu in extreme_matchings(model, I))
    doc = {"boundary": sorted(set(I)), "minimal": lo, "maximal": hi}
    return doc, lambda: [f"minimal: {lo}", f"maximal: {hi}"]


# ---------------------------------------------------------------------------
# Lattice commands
# ---------------------------------------------------------------------------

@model_command("lattice", click.option(
    "--check-ensemble", "check_ensemble", is_flag=True,
    help="Also verify exactness of the cluster-ensemble sequence."))
def cmd_lattice(model: DimerModel, check_ensemble: bool) -> tuple:
    """Rank and invariant factors of the matching-lattice isomorphism."""
    basis = lattice_basis(model)
    factors = eta_invariant_factors(model)
    unimodular = is_eta_unimodular(model)
    doc = {"rank": len(basis), "eta_invariant_factors": factors, "eta_unimodular": unimodular}
    lines = [f"lattice rank: {len(basis)}",
             f"invariant factors of the vertex-lattice map: {factors}",
             f"unimodular: {unimodular}"]
    passed = unimodular
    if check_ensemble:
        report = check_cluster_ensemble(model)
        doc["ensemble"] = {"passed": report.passed, "witnesses": report.witnesses}
        lines.append(f"cluster ensemble exact: {report.passed}")
        lines.extend(f"  witness: {w}" for w in report.witnesses)
        passed = passed and report.passed
    return doc, lambda: lines, passed


@model_command("ms-matchings")
def cmd_ms_matchings(model: DimerModel) -> tuple:
    """The distinguished matching of each vertex, via downstream wedges."""
    table = {v.id: sorted(muller_speyer_matching(model, v.id).arrow_set)
             for v in model.vertices}
    doc = {"matchings": {str(v): arr for v, arr in sorted(table.items())}}
    return doc, lambda: [f"{v}: {arr}" for v, arr in sorted(table.items())]


# ---------------------------------------------------------------------------
# Wedge / weight commands
# ---------------------------------------------------------------------------

@model_command("wedge", click.option("--arrow", "arrow", type=_Integer(), required=True,
                                     help="Arrow id."))
def cmd_wedge(model: DimerModel, arrow: int) -> tuple:
    """Vertices in the downstream wedge of an arrow."""
    members = sorted(downstream_wedge(model, arrow).members)
    return {"arrow": arrow, "members": members}, lambda: [f"arrow {arrow}: {members}"]


@model_command("kclass", matching_option)
def cmd_kclass(model: DimerModel, matching: str) -> tuple:
    """The class of the matching module in the vertex lattice."""
    mu = _matching_from_option(model, matching)
    cls = kclass_of_matching(model, mu)
    doc = {"coefficients": {str(v): c for v, c in cls.coefficients}}
    return doc, lambda: ["{" + ",".join(f"{v}:{c}" for v, c in cls.coefficients) + "}"]


@model_command("verify-msmatch")
def cmd_verify_msmatch(model: DimerModel) -> tuple:
    """Three-way equality of the distinguished matchings at every vertex."""
    ok, witness = three_way_msmatch(model)
    doc = {"passed": ok, "witness": witness}
    return doc, lambda: [f"three-way equality: {'pass' if ok else 'FAIL'}"] + (
        [f"witness: {witness}"] if witness else []), ok


# ---------------------------------------------------------------------------
# Partition-function commands
# ---------------------------------------------------------------------------

@model_command("ms", subset_option,
               click.option("--black", "black", is_flag=True,
                            help="Use the black-boundary convention."))
def cmd_ms(model: DimerModel, subset: str, black: bool) -> tuple:
    """The boundary-weight partition function for a k-subset."""
    I = _parse_ints(subset, "subset")
    return _poly_report(I, ms_formula(model, I, BLACK if black else WHITE))


@model_command("twist-expr", subset_option)
def cmd_twist_expr(model: DimerModel, subset: str) -> tuple:
    """The twist partition function for a k-subset in the positroid."""
    I = _parse_ints(subset, "subset")
    return _poly_report(I, musp_twist_expression(model, I))


@model_command("measure",
               click.option("--weights", "weights_arg", required=True,
                            help="Either 'unit' or a JSON file mapping each arrow id, written "
                                 "as its decimal id like \"12\", to a positive rational "
                                 "like \"3/7\"."),
               click.option("--check-plucker", "check", is_flag=True,
                            help="Verify every three-term Plücker relation."))
def cmd_measure(model: DimerModel, weights_arg: str, check: bool) -> tuple:
    """Exact boundary measurement for the given arrow weights."""
    if weights_arg == "unit":
        w = unit_weights(model)
    else:
        try:
            with open(weights_arg, "r", encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=model_lib.unique_keys)
            if not isinstance(raw, dict):
                raise ValueError("expected a JSON object mapping arrow ids to weights")
            ids = {str(a.id): a.id for a in model.arrows}
            unknown = next((key for key in raw if key not in ids), None)
            if unknown is not None:
                raise ValueError(f"key {unknown!r} is not the id of an arrow of the model")
            w = {ids[key]: _read_weight(key, x) for key, x in raw.items()}
        except ZeroDivisionError as exc:
            raise click.ClickException(f"cannot read weights: zero denominator in {exc}")
        except (OSError, ValueError) as exc:
            raise click.ClickException(f"cannot read weights: {exc}")
    require_consistent(model)  # an inconsistent model is not the weights' fault
    try:
        vec = boundary_measurement(model, w)
    except ValueError as exc:
        raise click.ClickException(f"bad weights: {exc}")
    doc = {"values": {",".join(map(str, I)): str(x) for I, x in vec.values}}
    summary = []
    report = check_plucker_relations(vec, vec.k, vec.n) if check else None
    if report is not None:
        doc["plucker"] = {"checked": report.checked, "passed": report.passed,
                          "failures": [[list(S), list(q)] for S, q in report.failures]}
        summary = [f"plucker relations checked: {report.checked}, passed: {report.passed}"]
    return (doc, lambda: [f"{list(I)}: {x}" for I, x in vec.values] + summary,
            report is None or report.passed)


# ---------------------------------------------------------------------------
# Resolution commands
# ---------------------------------------------------------------------------

@model_command("resolution", matching_option, click.option(
    "--dmax", "dmax", type=_Integer(), default=None,
    help="Largest degree to check (default: saturation + 1)."))
def cmd_resolution(model: DimerModel, matching: str, dmax: Optional[int]) -> tuple:
    """Exactness of all graded resolution pieces for a matching."""
    mu = _matching_from_option(model, matching)
    report = check_resolution(model, mu, dmax)
    doc = {"d_max": report.d_max,
           "pieces_checked": report.pieces_checked,
           "exact": report.passed,
           "failures": [list(f) for f in report.failures],
           "euler_failures": report.euler_failures}
    return doc, lambda: [
        f"d_max: {report.d_max}",
        f"pieces checked: {report.pieces_checked}",
        f"exact: {report.passed}",
        *(f"  inexact at (vertex, degree) = {f}" for f in report.failures),
        *(f"  degree series off at vertex {v}" for v in report.euler_failures)], report.passed


@model_command("rotate", matching_option,
               click.option("--vertex", "vertex", type=_Integer(), required=True,
                            help="Vertex id."),
               click.option("--degree", "degree", type=_Integer(), required=True))
def cmd_rotate(model: DimerModel, matching: str, vertex: int, degree: int) -> tuple:
    """Rotate a matching one degree step toward a vertex."""
    mu = _matching_from_option(model, matching)
    arrows = sorted(rotate_matching(model, mu, vertex, degree).arrow_set)
    return {"matching": arrows}, lambda: [str(arrows)]


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

@main.command("verify")
@click.argument("file")
@click.option("--seed", "seed", type=_Integer(), default=0, show_default=True,
              help="Seed for the randomized weight draws.")
@format_option
def cmd_verify(file: str, seed: int, fmt: str) -> None:
    """Run the full ordered verification suite; exit 0 iff all checks pass."""
    try:
        model = _load(file)
    except (StructuralError, click.ClickException) as exc:
        click.echo(json.dumps({"schema": SCHEMA, "command": "verify",
                               "error": str(exc)}, indent=1), file=sys.stdout)
        sys.exit(2)
    results = run_checks(model, seed)
    passed = all(r["passed"] for r in results)
    doc = {"command": "verify", "seed": seed, "passed": passed, "checks": results}
    _emit(doc, fmt, lambda: [
        *(f"{'PASS' if r['passed'] else 'FAIL'} {r['name']} ({r['seconds']}s)"
          + (f": {r['witness']}" if r["witness"] else "")
          for r in results),
        f"overall: {'pass' if passed else 'FAIL'}"], passed)


@main.command("fixtures")
@click.argument("outdir", required=False)
def cmd_fixtures(outdir: Optional[str]) -> None:
    """Write the bundled fixtures as JSON model files."""
    outdir = outdir or os.environ.get("DIMER_FIXTURES") or "fixtures"
    with _saving(outdir):
        os.makedirs(outdir, exist_ok=True)
    for name, builder in FIXTURE_BUILDERS.items():
        path = os.path.join(outdir, f"{name}.json")
        _write_model(builder(), path)
        click.echo(f"wrote {path}", file=sys.stdout)


if __name__ == "__main__":
    main()
