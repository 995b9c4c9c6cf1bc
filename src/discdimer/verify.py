"""The ordered check suite behind `dimer verify`.

Each check gives ``(passed, witness)``; the witness says where a failed
check went wrong (a matching, read here as an arrow mask, by its arrow
ids) and is None on a pass. A step of `VERIFY_STEPS` is a tuple of check
names and a function of the model and the seed that yields their results
in order: checks that share work are one generator step, so what they
share is a local that goes when the step ends. `run_checks` runs the steps
in order; an exception in a step (a failed precondition) fails each of its
checks left, with the exception as the witness.

The per-matching checks compare vectors dense in vertex position, and the
Marsh–Scott checks count them per boundary value, on a white-standardised
copy that lives only while those three checks run. `rotation_identities`
reads the walk of the degree table that `resolution_exactness` runs
(`_degree_walk`), so its `seconds` is near 0 and the other's cover both.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .kclass_weights import (_weight_columns, muller_speyer_matching,
                             projective_matching_oracle, upstream_matching, weight_table)
from .lattice_maps import (_class_vector, _linear, check_cluster_ensemble, eta_inverse_basis,
                           eta_invariant_factors, is_eta_unimodular)
from .matchings import (_boundary_of, _enumeration, _mask_of, _matching_of, _orientation,
                        positroid, positroid_contains_necklace_test)
from .model import (BLACK, WHITE, DimerModel, _vertex_positions, opposite, standardise, type_of,
                    validate)
from .partition_functions import (_ms_exponents, _require_ms_model, _twist_exponents,
                                  boundary_measurement, check_plucker_relations)
from .resolution import resolution_reports
from .strands import check_postnikov, source_labels, target_labels

CheckResult = Tuple[bool, Optional[str]]
# Of (model, seed); naming DimerModel here would pin each imported copy in typing's cache.
Step = Callable[..., Iterable[CheckResult]]


def three_way_msmatch(model: DimerModel) -> CheckResult:
    """Whether 𝔪_j from downstream wedges, from η⁻¹ and from minimal path
    degrees agree at every vertex j."""
    inverse = eta_inverse_basis(model)
    for v in model.vertices:
        wedge_mu = muller_speyer_matching(model, v.id).arrow_set
        inv_mu = frozenset(a for a, x in inverse[v.id].values if x == 1)
        oracle_mu = projective_matching_oracle(model, v.id).arrow_set
        if not (wedge_mu == inv_mu == oracle_mu):
            return False, (f"vertex {v.id}: wedge {sorted(wedge_mu)}, "
                           f"inverse {sorted(inv_mu)}, oracle {sorted(oracle_mu)}")
    return True, None


def _check_validate(model: DimerModel) -> CheckResult:
    report = validate(model)
    return report.passed, (None if report.passed else str(report.failures()))


def _check_consistency(model: DimerModel) -> CheckResult:
    report = check_postnikov(model)
    if report.passed:
        return True, None
    return False, (f"b1={report.b1_pass}, b2={report.b2_pass}, "
                   f"closed loops={list(report.closed_loop_arrows)}")


def _ids(model: DimerModel, mu_mask: int) -> List[int]:
    """The arrow mask as a witness names it: its sorted arrow ids."""
    return list(_matching_of(model, mu_mask).sorted_ids())


def _check_boundary_sizes(model: DimerModel) -> CheckResult:
    k, _ = type_of(model)
    # Groups come in the order of their first matchings: the first bad one is the witness.
    for I, pool in _enumeration(model)[1].items():
        if len(I) != k:
            return False, f"matching {_ids(model, pool[0])} has |boundary| {len(I)} != {k}"
    return True, None


def _check_eta_unimodular(model: DimerModel) -> CheckResult:
    if is_eta_unimodular(model):
        return True, None
    return False, f"invariant factors {eta_invariant_factors(model)}"


def _check_ensemble(model: DimerModel) -> CheckResult:
    report = check_cluster_ensemble(model)
    return report.passed, (None if report.passed else "; ".join(report.witnesses))


def _check_wedge_labels(model: DimerModel) -> CheckResult:
    src = source_labels(model)
    tgt = target_labels(model)
    orientation = _orientation(model)
    for v in model.vertices:
        # Both matchings are checked where they are built, so their masks are read unchecked.
        down = _mask_of(model, muller_speyer_matching(model, v.id))
        if _boundary_of(orientation, down) != src[v.id]:
            return False, f"downstream boundary at vertex {v.id} differs from source label"
        up = _mask_of(model, upstream_matching(model, v.id))
        if _boundary_of(orientation, up) != tgt[v.id]:
            return False, f"upstream boundary at vertex {v.id} differs from target label"
    return True, None


def _weight_formula(std: DimerModel) -> CheckResult:
    position = _vertex_positions(std)
    table = weight_table(std, WHITE)
    alt = [tuple((position[v], e) for v, e in table[a.id].coefficients) if a.id in table else ()
           for a in std.arrows]
    head = {a.boundary_label: position[a.head] for a in std.boundary_arrows}
    orientation = _orientation(std)
    wt_base, wt_columns, wtd = _weight_columns(std)
    zero = [0] * len(position)
    for mu_mask in _enumeration(std)[0]:
        wt = _linear(wt_base, wt_columns, mu_mask)
        if wt != _linear(zero, alt, mu_mask):
            return False, f"weight formulas disagree on {_ids(std, mu_mask)}"
        # [N_mu] = wtD + sum over boundary labels of p_head - wt(mu).
        expect = [d - w for d, w in zip(wtd, wt)]
        for i in _boundary_of(orientation, mu_mask):
            expect[head[i]] += 1
        if expect != _class_vector(std, mu_mask):
            return False, f"class identity fails on {_ids(std, mu_mask)}"
    return True, None


def _marsh_scott(model: DimerModel, seed: int) -> Iterator[CheckResult]:
    """The weight formula, then MS° against the twist sum and against MS• of
    the opposite at the complement, for every k-subset I: all three on the
    white-standardised copy, a local that goes when the step ends. MS° of
    every I is counted once (`_ms_exponents`) for the last two."""
    std = standardise(model, WHITE)
    yield _weight_formula(std)
    k, n = type_of(std)
    _require_ms_model(std, WHITE)
    groups = _enumeration(std)[1]
    subsets = list(combinations(range(1, n + 1), k))
    white = [_ms_exponents(std, groups.get(frozenset(I), ())) for I in subsets]
    yield next(((False, f"formulas differ at {list(I)}") for I, sums in zip(subsets, white)
                if sums != _twist_exponents(std, groups.get(frozenset(I), ()), I)), (True, None))
    op = opposite(std)  # the same vertices in the same order, so the same dense vectors
    _require_ms_model(op, BLACK)
    op_groups = _enumeration(op)[1]
    everything = frozenset(range(1, n + 1))
    yield next(((False, f"duality fails at {list(I)}") for I, sums in zip(subsets, white)
                if sums != _ms_exponents(op, op_groups.get(everything - frozenset(I), ()))),
               (True, None))


def _degree_walk(model: DimerModel, seed: int) -> Iterator[CheckResult]:
    """The resolution check, then the rotation check, from one walk of the
    degree table (`resolution_reports`). The walk goes on over every
    matching after either check's first failure, so neither hides the
    other's."""
    resolution: CheckResult = (True, None)
    rotation = None
    for mu_mask, report, turn in resolution_reports(model):
        if resolution[0] and not report.passed:
            resolution = False, (f"matching {_ids(model, mu_mask)}: "
                                 f"failures {report.failures}, euler {report.euler_failures}")
        if rotation is None and turn is not None:
            rotation = (mu_mask,) + turn
    yield resolution
    if rotation is None:
        yield True, None
        return
    mu_mask, v, d, found = rotation
    if not found:
        raise ValueError("rotation did not produce a perfect matching")
    yield False, (f"rotation identity fails at matching "
                  f"{_ids(model, mu_mask)}, vertex {v}, degree {d}")


def _check_plucker_draws(model: DimerModel, seed: int) -> CheckResult:
    k, n = type_of(model)
    rng = random.Random(seed)
    # The expected support comes from enumeration, not from the Kasteleyn
    # matrix that the positroid and every draw below are read from.
    support_expected = frozenset(_enumeration(model)[1])
    if positroid(model) != support_expected:
        return False, "Kasteleyn positroid disagrees with enumeration"
    gale = frozenset(frozenset(J) for J in combinations(range(1, n + 1), k)
                     if positroid_contains_necklace_test(model, J))
    if gale != support_expected:
        return False, "necklace Gale-order test disagrees with enumeration"
    for draw in range(3):
        w = {a.id: Fraction(rng.randint(1, 20), rng.randint(1, 20))
             for a in model.arrows}
        vec = boundary_measurement(model, w)
        report = check_plucker_relations(vec, k, n)
        if not report.passed:
            return False, f"draw {draw}: {len(report.failures)} relation failures"
        support = frozenset(frozenset(I) for I, x in vec.values if x != 0)
        if support != support_expected:
            return False, f"draw {draw}: support differs from the positroid"
    return True, None


def _alone(check: Callable[[DimerModel], CheckResult]) -> Step:
    return lambda model, seed: [check(model)]


VERIFY_STEPS: List[Tuple[Tuple[str, ...], Step]] = [
    (("validate",), _alone(_check_validate)),
    (("check_postnikov",), _alone(_check_consistency)),
    (("boundary_size_sweep",), _alone(_check_boundary_sizes)),
    (("eta_unimodular",), _alone(_check_eta_unimodular)),
    (("cluster_ensemble",), _alone(_check_ensemble)),
    (("msmatch_three_way",), _alone(three_way_msmatch)),
    (("wedge_boundary_labels",), _alone(_check_wedge_labels)),
    (("weight_double_formula", "ms_formula_equality", "black_white_duality"), _marsh_scott),
    (("resolution_exactness", "rotation_identities"), _degree_walk),
    (("plucker_relation_draws",), lambda model, seed: [_check_plucker_draws(model, seed)]),
]


def _answers(step: Step, model: DimerModel, seed: int) -> Iterator[CheckResult]:
    """The step's results, then, once it raises, a failure with the
    exception as its witness for each of its checks left."""
    try:
        yield from step(model, seed)
    except Exception as exc:  # a failed precondition is a failed check
        while True:
            yield False, f"{type(exc).__name__}: {exc}"


def run_checks(model: DimerModel, seed: int) -> List[dict]:
    """Run every step in order: one ``{"name", "passed", "witness",
    "seconds"}`` record per check, timed from the record before it. The
    seed drives the Plücker weight draws."""
    results = []
    clock = time.monotonic()
    for names, step in VERIFY_STEPS:
        for name, (ok, witness) in zip(names, _answers(step, model, seed)):
            now = time.monotonic()
            results.append({"name": name, "passed": ok, "witness": witness,
                            "seconds": round(now - clock, 3)})
            clock = now
    return results
