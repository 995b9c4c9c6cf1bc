"""The ordered check suite behind `dimer verify`.

Each check takes a model and returns ``(passed, witness)``, where the
witness says where a failed check went wrong and is None on a pass; it
names a matching, read here as an arrow mask, by its arrow ids.
`run_checks` runs every check of `VERIFY_CHECKS` in order; an exception
in a check (a failed precondition) makes that check fail with the
exception as its witness.

The per-matching checks compare vectors dense in vertex position, and the
Marsh–Scott checks count them per boundary value. `rotation_identities`
reads the walk of the degree table that `resolution_exactness` runs
(`_degree_walk`), so its `seconds` is near 0 and the other's cover both.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from typing import Callable, List, Optional, Tuple

from .kclass_weights import (_weight_columns, muller_speyer_matching,
                             projective_matching_oracle, upstream_matching, weight_table)
from .lattice_maps import (_class_vector, _linear, check_cluster_ensemble, eta_inverse_basis,
                           eta_invariant_factors, is_eta_unimodular)
from .matchings import (_boundary_of, _enumeration, _mask_of, _matching_of, _orientation,
                        positroid, positroid_contains_necklace_test)
from .model import (BLACK, WHITE, DimerModel, ReadOnlyDict, _vertex_positions, opposite, per_model,
                    standardise, type_of, validate)
from .partition_functions import (_ms_exponents, _require_ms_model, _twist_exponents,
                                  boundary_measurement, check_plucker_relations)
from .resolution import resolution_reports
from .strands import check_postnikov, source_labels, target_labels

CheckResult = Tuple[bool, Optional[str]]


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


@per_model
def _standardised_copy(model: DimerModel) -> Optional[DimerModel]:
    """standardise(model, WHITE), built once per model for the checks; None
    when that is the model itself, which kept in its own memo would be a
    reference cycle that only the cyclic garbage collector frees."""
    std = standardise(model, WHITE)
    return None if std is model else std


def _check_weight_formula(model: DimerModel) -> CheckResult:
    std = _standardised_copy(model) or model
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


@per_model
def _white_ms_sums(model: DimerModel) -> Tuple[ReadOnlyDict[Tuple[int, ...], int], ...]:
    """MS° of every k-subset in lexicographic order, as its dense exponent
    vectors counted (`_ms_exponents`) over the subset's matchings of the
    white-standardised copy, once per model for the two checks that set it
    against another computation."""
    std = _standardised_copy(model) or model
    k, n = type_of(std)
    _require_ms_model(std, WHITE)
    groups = _enumeration(std)[1]
    return tuple(ReadOnlyDict(_ms_exponents(std, groups.get(frozenset(I), ())))
                 for I in combinations(range(1, n + 1), k))


def _check_ms_equality(model: DimerModel) -> CheckResult:
    std = _standardised_copy(model) or model
    k, n = type_of(std)
    white_sums = _white_ms_sums(model)
    groups = _enumeration(std)[1]
    for I, white in zip(combinations(range(1, n + 1), k), white_sums):
        if white != _twist_exponents(std, groups.get(frozenset(I), ()), I):
            return False, f"formulas differ at {list(I)}"
    return True, None


def _check_duality(model: DimerModel) -> CheckResult:
    std = _standardised_copy(model) or model
    op = opposite(std)  # the same vertices in the same order, so the same dense vectors
    k, n = type_of(std)
    white_sums = _white_ms_sums(model)
    _require_ms_model(op, BLACK)
    op_groups = _enumeration(op)[1]
    for I, white in zip(map(frozenset, combinations(range(1, n + 1), k)), white_sums):
        comp = frozenset(range(1, n + 1)) - I
        if white != _ms_exponents(op, op_groups.get(comp, ())):
            return False, f"duality fails at {sorted(I)}"
    return True, None


@per_model
def _degree_walk(model: DimerModel) -> Tuple[CheckResult, Optional[Tuple[int, int, int, bool]]]:
    """The resolution check's result and the first rotation failure (μ,
    vertex, degree, whether ν is a perfect matching), from one walk of the
    degree table (`resolution_reports`) that the two checks share. The walk
    goes on over every matching after either check's first failure, so
    neither hides the other's."""
    resolution: CheckResult = (True, None)
    rotation = None
    for mu_mask, report, turn in resolution_reports(model):
        if resolution[0] and not report.passed:
            resolution = False, (f"matching {_ids(model, mu_mask)}: "
                                 f"failures {report.failures}, euler {report.euler_failures}")
        if rotation is None and turn is not None:
            rotation = (mu_mask,) + turn
    return resolution, rotation


def _check_resolution_all(model: DimerModel) -> CheckResult:
    return _degree_walk(model)[0]


def _check_rotation(model: DimerModel) -> CheckResult:
    failure = _degree_walk(model)[1]
    if failure is None:
        return True, None
    mu_mask, v, d, found = failure
    if not found:
        raise ValueError("rotation did not produce a perfect matching")
    return False, (f"rotation identity fails at matching "
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


VERIFY_CHECKS: List[Tuple[str, Callable[..., CheckResult]]] = [
    ("validate", _check_validate),
    ("check_postnikov", _check_consistency),
    ("boundary_size_sweep", _check_boundary_sizes),
    ("eta_unimodular", _check_eta_unimodular),
    ("cluster_ensemble", _check_ensemble),
    ("msmatch_three_way", three_way_msmatch),
    ("wedge_boundary_labels", _check_wedge_labels),
    ("weight_double_formula", _check_weight_formula),
    ("ms_formula_equality", _check_ms_equality),
    ("black_white_duality", _check_duality),
    ("resolution_exactness", _check_resolution_all),
    ("rotation_identities", _check_rotation),
    ("plucker_relation_draws", _check_plucker_draws),
]


def run_checks(model: DimerModel, seed: int) -> List[dict]:
    """Run every check in order: one ``{"name", "passed", "witness",
    "seconds"}`` record per check. The seed drives the Plücker weight draws."""
    results = []
    for name, fn in VERIFY_CHECKS:
        start = time.monotonic()
        try:
            ok, witness = (fn(model, seed) if name == "plucker_relation_draws"
                           else fn(model))
        except Exception as exc:  # a failed precondition is a failed check
            ok, witness = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": ok, "witness": witness,
                        "seconds": round(time.monotonic() - start, 3)})
    return results
