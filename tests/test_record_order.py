"""Record order is not identity: a model document whose vertex, arrow and
face records are shuffled describes the same model. Every result agrees
with the unshuffled model's, and the matrices indexed by vertex position
(η's and β) differ only by the permutation of the vertex records."""

import random
from fractions import Fraction

import pytest

from discdimer import fixtures as fx
from discdimer.lattice_maps import (beta_matrix, check_cluster_ensemble, eta_invariant_factors,
                                    eta_inverse_basis, eta_matrix, lattice_basis)
from discdimer.matchings import positroid
from discdimer.model import from_dict, to_dict
from discdimer.partition_functions import boundary_measurement
from discdimer.strands import necklaces, source_labels, target_labels
from discdimer.verify import run_checks

MODELS = {"gr37": fx.gr37,
          "uniform-2-5": lambda: fx.build_uniform(2, 5),
          "uniform-3-6": lambda: fx.build_uniform(3, 6)}
SEEDS = range(4)


def shuffled(model, seed):
    """The model loaded from its document with each record list shuffled."""
    rng = random.Random(seed)
    doc = to_dict(model)
    for key in ("vertices", "arrows", "faces"):
        rng.shuffle(doc[key])
    return from_dict(doc)


def results(model):
    rng = random.Random(7)
    weights = {aid: Fraction(rng.randint(1, 99), rng.randint(1, 99))
               for aid in sorted(a.id for a in model.arrows)}
    checks = [{k: v for k, v in record.items() if k != "seconds"} for record in run_checks(model, 0)]
    return {"checks": checks,
            "positroid": positroid(model),
            "labels": (source_labels(model), target_labels(model)),
            "necklaces": necklaces(model),
            "eta_invariant_factors": eta_invariant_factors(model),
            "eta_inverse_basis": eta_inverse_basis(model),
            "ensemble": check_cluster_ensemble(model).passed,
            "boundary_measurement": boundary_measurement(model, weights)}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_shuffled_document_gives_the_same_results(name, seed):
    model = MODELS[name]()
    other = shuffled(model, seed)
    assert [v.id for v in other.vertices] != [v.id for v in model.vertices]
    assert results(other) == results(model)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_eta_and_beta_follow_the_vertex_records(name, seed):
    """Row r of the shuffled η is the row of the vertex at position r, and β
    takes that one permutation on both indices; the lattice basis, η's
    columns, is the same."""
    model = MODELS[name]()
    other = shuffled(model, seed)
    position = {v.id: p for p, v in enumerate(model.vertices)}
    perm = [position[v.id] for v in other.vertices]
    assert lattice_basis(other) == lattice_basis(model)
    eta = eta_matrix(model)
    assert eta_matrix(other) == tuple(eta[p] for p in perm)
    beta = beta_matrix(model)
    assert beta_matrix(other) == [[beta[p][q] for q in perm] for p in perm]
