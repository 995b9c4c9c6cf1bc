"""Command-line entry point wiring all modules together.

Every subcommand reads the JSON model format of `model.save`/`model.load`.
A model argument may be a file path, a file name under the directory named
by the DIMER_FIXTURES environment variable, or the name of a bundled
fixture (triangle, gr37, inconsistent, uniform-K-N).

Reports are emitted as plain text by default, or as JSON documents with a
stable ``"schema": 1`` field under ``--format json``. `dimer verify` runs
the ordered check suite of `discdimer.verify` and exits 0 iff every check
passes. Any ValueError a command raises (a malformed file, a model that
fails validation or consistency, a failed precondition) is reported as one
``Error:`` line with exit code 1.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, List, Optional

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
        match = re.fullmatch(r"uniform-(\d+)-(\d+)", name)
        if match is None:
            raise click.ClickException(f"cannot resolve model {name!r}: expected "
                                       "uniform-K-N with integers 1 <= K < N")
        try:
            return build_uniform(int(match[1]), int(match[2]))
        except ValueError as exc:
            raise click.ClickException(f"cannot resolve model {name!r}: {exc}")
    raise click.ClickException(f"cannot resolve model {name!r}: not a file, "
                               "not under DIMER_FIXTURES, not a bundled fixture")


_ID = re.compile(r" *(0|[1-9][0-9]*) *")


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


_WEIGHT = re.compile(r"(0|[1-9][0-9]*)(?:/(0|[1-9][0-9]*))?")


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


def _serialize_matching(mu: Matching) -> List[int]:
    return sorted(mu.arrow_set)


def _poly_doc(poly: LaurentPoly) -> dict:
    return {"basis": poly.basis,
            "terms": [{"exponents": {str(i): e for i, e in key}, "coefficient": c}
                      for key, c in poly.terms]}


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


# ---------------------------------------------------------------------------
# Core model commands
# ---------------------------------------------------------------------------

@main.command("validate")
@click.argument("file")
@format_option
def cmd_validate(file: str, fmt: str) -> None:
    """Run the structural validity checks."""
    model = _load(file)
    report = validate(model)
    doc = {"command": "validate", "passed": report.passed,
           "checks": {name: {"ok": ok, "detail": detail}
                      for name, (ok, detail) in report.checks.items()}}
    _emit(doc, fmt, lambda: [
        *(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else "")
          for name, (ok, detail) in report.checks.items()),
        f"valid: {report.passed}"], report.passed)


@main.command("type")
@click.argument("file")
@format_option
def cmd_type(file: str, fmt: str) -> None:
    """Print the type (k, n) of the model."""
    model = _load(file)
    k, n = type_of(model)
    _emit({"command": "type", "k": k, "n": n}, fmt, lambda: [f"({k}, {n})"])


@main.command("build-uniform")
@click.option("-k", "k", type=_Integer(), required=True)
@click.option("-n", "n", type=_Integer(), required=True)
@click.option("-o", "out", required=True, help="Output model file.")
def cmd_build_uniform(k: int, n: int, out: str) -> None:
    """Build the uniform (k,n) model and write it to a file."""
    model = build_uniform(k, n)
    model_lib.save(model, out)
    click.echo(f"wrote uniform ({k},{n}) model with {len(model.vertices)} vertices to {out}",
               file=sys.stdout)


def _write_model(model: DimerModel, out: Optional[str]) -> None:
    if out:
        model_lib.save(model, out)
    else:
        click.echo(json.dumps(model_lib.to_dict(model), indent=1, sort_keys=True), file=sys.stdout)


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

@main.command("strands")
@click.argument("file")
@format_option
def cmd_strands(file: str, fmt: str) -> None:
    """List the strands (zig-zag paths) of the model."""
    model = _load(file)
    all_strands = strands_of(model)
    doc = {"command": "strands",
           "strands": [{"source": s.start_label, "target": s.end_label,
                        "arrows": list(s.arrows)} for s in all_strands]}
    _emit(doc, fmt, lambda: [
        f"{s.start_label} -> {s.end_label}: arrows {list(s.arrows)}"
        for s in all_strands])


@main.command("labels")
@click.argument("file")
@click.option("--target", "use_target", is_flag=True,
              help="Print target labels instead of source labels.")
@format_option
def cmd_labels(file: str, use_target: bool, fmt: str) -> None:
    """Print the source (or target) label of every quiver vertex."""
    model = _load(file)
    table = target_labels(model) if use_target else source_labels(model)
    kind = "target" if use_target else "source"
    doc = {"command": "labels", "kind": kind,
           "labels": {str(v): sorted(lab) for v, lab in sorted(table.items())}}
    _emit(doc, fmt, lambda: [f"{v}: {sorted(lab)}" for v, lab in sorted(table.items())])


@main.command("check")
@click.argument("file")
@format_option
def cmd_check(file: str, fmt: str) -> None:
    """Check strand consistency; exit 0 iff the model is consistent."""
    model = _load(file)
    report = check_postnikov(model)
    doc = {"command": "check", "consistent": report.passed,
           "b1_pass": report.b1_pass, "b2_pass": report.b2_pass,
           "closed_loop_arrows": list(report.closed_loop_arrows),
           "b1_witness": list(report.b1_witness) if report.b1_witness else None,
           "b2_witness": list(report.b2_witness) if report.b2_witness else None}
    _emit(doc, fmt, lambda: [
        f"b1 (no double crossing): {'pass' if report.b1_pass else 'FAIL'}",
        f"b2 (opposite orders): {'pass' if report.b2_pass else 'FAIL'}",
        f"closed loops: {list(report.closed_loop_arrows) or 'none'}",
        f"consistent: {report.passed}"], report.passed)


# ---------------------------------------------------------------------------
# Matching commands
# ---------------------------------------------------------------------------

@main.command("matchings")
@click.argument("file")
@click.option("--boundary", "boundary", default=None,
              help="Restrict to matchings with this boundary value, e.g. 1,3,5.")
@format_option
def cmd_matchings(file: str, boundary: Optional[str], fmt: str) -> None:
    """Enumerate perfect matchings as sorted arrow-id arrays."""
    model = _load(file)
    if boundary is None:
        pool = enumerate_matchings(model)
    else:
        pool = matchings_with_boundary(model, _parse_ints(boundary, "boundary"))
    arrays = sorted(_serialize_matching(mu) for mu in pool)
    doc = {"command": "matchings", "count": len(arrays), "matchings": arrays}
    _emit(doc, fmt, lambda: [str(a) for a in arrays] + [f"count: {len(arrays)}"])


@main.command("positroid")
@click.argument("file")
@format_option
def cmd_positroid(file: str, fmt: str) -> None:
    """List the boundary values of perfect matchings."""
    model = _load(file)
    subsets = sorted(sorted(I) for I in positroid(model))
    doc = {"command": "positroid", "count": len(subsets), "subsets": subsets}
    _emit(doc, fmt, lambda: [str(s) for s in subsets] + [f"count: {len(subsets)}"])


@main.command("extremes")
@click.argument("file")
@click.option("--boundary", "boundary", required=True,
              help="Boundary value, e.g. 1,3,5.")
@format_option
def cmd_extremes(file: str, boundary: str, fmt: str) -> None:
    """The flip-minimal and flip-maximal matchings with a given boundary."""
    model = _load(file)
    I = _parse_ints(boundary, "boundary")
    lo, hi = extreme_matchings(model, I)
    doc = {"command": "extremes", "boundary": sorted(set(I)),
           "minimal": _serialize_matching(lo), "maximal": _serialize_matching(hi)}
    _emit(doc, fmt, lambda: [f"minimal: {_serialize_matching(lo)}",
                             f"maximal: {_serialize_matching(hi)}"])


# ---------------------------------------------------------------------------
# Lattice commands
# ---------------------------------------------------------------------------

@main.command("lattice")
@click.argument("file")
@click.option("--check-ensemble", "check_ensemble", is_flag=True,
              help="Also verify exactness of the cluster-ensemble sequence.")
@format_option
def cmd_lattice(file: str, check_ensemble: bool, fmt: str) -> None:
    """Rank and invariant factors of the matching-lattice isomorphism."""
    model = _load(file)
    basis = lattice_basis(model)
    factors = eta_invariant_factors(model)
    unimodular = is_eta_unimodular(model)
    doc = {"command": "lattice", "rank": len(basis),
           "eta_invariant_factors": factors, "eta_unimodular": unimodular}
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
    _emit(doc, fmt, lambda: lines, passed)


@main.command("ms-matchings")
@click.argument("file")
@format_option
def cmd_ms_matchings(file: str, fmt: str) -> None:
    """The distinguished matching of each vertex, via downstream wedges."""
    model = _load(file)
    table = {v.id: _serialize_matching(muller_speyer_matching(model, v.id))
             for v in model.vertices}
    doc = {"command": "ms-matchings",
           "matchings": {str(v): arr for v, arr in sorted(table.items())}}
    _emit(doc, fmt, lambda: [f"{v}: {arr}" for v, arr in sorted(table.items())])


# ---------------------------------------------------------------------------
# Wedge / weight commands
# ---------------------------------------------------------------------------

@main.command("wedge")
@click.argument("file")
@click.option("--arrow", "arrow_text", required=True, help="Arrow id.")
@format_option
def cmd_wedge(file: str, arrow_text: str, fmt: str) -> None:
    """Vertices in the downstream wedge of an arrow."""
    arrow = _parse_id(arrow_text, "arrow", arrow_text)
    model = _load(file)
    members = sorted(downstream_wedge(model, arrow).members)
    doc = {"command": "wedge", "arrow": arrow, "members": members}
    _emit(doc, fmt, lambda: [f"arrow {arrow}: {members}"])


@main.command("kclass")
@click.argument("file")
@click.option("--matching", "matching", required=True,
              help="Matching as comma-separated arrow ids.")
@format_option
def cmd_kclass(file: str, matching: str, fmt: str) -> None:
    """The class of the matching module in the vertex lattice."""
    model = _load(file)
    mu = _matching_from_option(model, matching)
    cls = kclass_of_matching(model, mu)
    doc = {"command": "kclass",
           "coefficients": {str(v): c for v, c in cls.coefficients}}
    _emit(doc, fmt, lambda: [
        "{" + ",".join(f"{v}:{c}" for v, c in cls.coefficients) + "}"])


@main.command("verify-msmatch")
@click.argument("file")
@format_option
def cmd_verify_msmatch(file: str, fmt: str) -> None:
    """Three-way equality of the distinguished matchings at every vertex."""
    model = _load(file)
    ok, witness = three_way_msmatch(model)
    doc = {"command": "verify-msmatch", "passed": ok, "witness": witness}
    _emit(doc, fmt, lambda: [f"three-way equality: {'pass' if ok else 'FAIL'}"]
          + ([f"witness: {witness}"] if witness else []), ok)


# ---------------------------------------------------------------------------
# Partition-function commands
# ---------------------------------------------------------------------------

@main.command("ms")
@click.argument("file")
@click.option("--subset", "subset", required=True, help="k-subset, e.g. 1,3,5.")
@click.option("--black", "black", is_flag=True,
              help="Use the black-boundary convention.")
@format_option
def cmd_ms(file: str, subset: str, black: bool, fmt: str) -> None:
    """The boundary-weight partition function for a k-subset."""
    model = _load(file)
    I = _parse_ints(subset, "subset")
    poly = ms_formula(model, I, BLACK if black else WHITE)
    doc = {"command": "ms", "subset": sorted(set(I)), "polynomial": _poly_doc(poly)}
    _emit(doc, fmt, lambda: [poly.pretty()])


@main.command("twist-expr")
@click.argument("file")
@click.option("--subset", "subset", required=True, help="k-subset, e.g. 1,3,5.")
@format_option
def cmd_twist_expr(file: str, subset: str, fmt: str) -> None:
    """The twist partition function for a k-subset in the positroid."""
    model = _load(file)
    I = _parse_ints(subset, "subset")
    poly = musp_twist_expression(model, I)
    doc = {"command": "twist-expr", "subset": sorted(set(I)),
           "polynomial": _poly_doc(poly)}
    _emit(doc, fmt, lambda: [poly.pretty()])


@main.command("measure")
@click.argument("file")
@click.option("--weights", "weights_arg", required=True,
              help="Either 'unit' or a JSON file mapping each arrow id, written "
                   "as its decimal id like \"12\", to a positive rational like \"3/7\".")
@click.option("--check-plucker", "check", is_flag=True,
              help="Verify every three-term Plücker relation.")
@format_option
def cmd_measure(file: str, weights_arg: str, check: bool, fmt: str) -> None:
    """Exact boundary measurement for the given arrow weights."""
    model = _load(file)
    if weights_arg == "unit":
        w = unit_weights(model)
    else:
        try:
            with open(weights_arg, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
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
    doc = {"command": "measure",
           "values": {",".join(map(str, I)): str(x) for I, x in vec.values}}
    summary = []
    report = check_plucker_relations(vec, vec.k, vec.n) if check else None
    if report is not None:
        doc["plucker"] = {"checked": report.checked, "passed": report.passed,
                          "failures": [[list(S), list(q)] for S, q in report.failures]}
        summary = [f"plucker relations checked: {report.checked}, passed: {report.passed}"]
    _emit(doc, fmt, lambda: [f"{list(I)}: {x}" for I, x in vec.values] + summary,
          report is None or report.passed)


# ---------------------------------------------------------------------------
# Resolution commands
# ---------------------------------------------------------------------------

@main.command("resolution")
@click.argument("file")
@click.option("--matching", "matching", required=True,
              help="Matching as comma-separated arrow ids.")
@click.option("--dmax", "dmax", type=_Integer(), default=None,
              help="Largest degree to check (default: saturation + 1).")
@format_option
def cmd_resolution(file: str, matching: str, dmax: Optional[int], fmt: str) -> None:
    """Exactness of all graded resolution pieces for a matching."""
    model = _load(file)
    mu = _matching_from_option(model, matching)
    report = check_resolution(model, mu, dmax)
    doc = {"command": "resolution", "d_max": report.d_max,
           "pieces_checked": report.pieces_checked,
           "exact": report.passed,
           "failures": [list(f) for f in report.failures],
           "euler_failures": report.euler_failures}
    _emit(doc, fmt, lambda: [
        f"d_max: {report.d_max}",
        f"pieces checked: {report.pieces_checked}",
        f"exact: {report.passed}"]
        + [f"  inexact at (vertex, degree) = {f}" for f in report.failures]
        + [f"  degree series off at vertex {v}" for v in report.euler_failures], report.passed)


@main.command("rotate")
@click.argument("file")
@click.option("--matching", "matching", required=True,
              help="Matching as comma-separated arrow ids.")
@click.option("--vertex", "vertex_text", required=True, help="Vertex id.")
@click.option("--degree", "degree", type=_Integer(), required=True)
@format_option
def cmd_rotate(file: str, matching: str, vertex_text: str, degree: int, fmt: str) -> None:
    """Rotate a matching one degree step toward a vertex."""
    vertex = _parse_id(vertex_text, "vertex", vertex_text)
    model = _load(file)
    mu = _matching_from_option(model, matching)
    nu = rotate_matching(model, mu, vertex, degree)
    doc = {"command": "rotate", "matching": _serialize_matching(nu)}
    _emit(doc, fmt, lambda: [str(_serialize_matching(nu))])


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
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise click.ClickException(f"cannot create {outdir}: {exc}")
    for name, builder in FIXTURE_BUILDERS.items():
        path = os.path.join(outdir, f"{name}.json")
        model_lib.save(builder(), path)
        click.echo(f"wrote {path}", file=sys.stdout)


if __name__ == "__main__":
    main()
