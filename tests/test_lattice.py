"""The matching lattice, the vertex-lattice isomorphism, and the
cluster-ensemble exactness checks."""

import pytest
from oracles import coboundary

from discdimer import fixtures as fx
from discdimer.intlinalg import kernel_basis, lattices_equal
from discdimer.lattice_maps import (LatticePoint, _dual_tree, _rank_kernel, beta_matrix,
                                    check_cluster_ensemble, eta, eta_inverse_basis,
                                    eta_invariant_factors, is_eta_unimodular,
                                    lattice_basis, lattice_point_of_matching,
                                    make_lattice_point, require_in_lattice)
from discdimer.matchings import enumerate_matchings
from discdimer.model import Arrow, DimerModel, Face, Vertex

CONSISTENT_FIXTURES = [n for n in sorted(fx.FIXTURE_BUILDERS) if n != "inconsistent"]
LADDER = {**fx.FIXTURE_BUILDERS,
          **{f"uniform-{k}-{n}": (lambda k=k, n=n: fx.build_uniform(k, n))
             for n in range(3, 11) for k in range(1, n)}}


def face_constraint_kernel(model):
    """The oracle: 𝕄 as the integer kernel of the constraint map
    (deg, f) ↦ (Σ_{γ ∈ face} f(γ) − deg)_face, columns deg then arrows by id."""
    arrows = sorted(a.id for a in model.arrows)
    col_of = {aid: i + 1 for i, aid in enumerate(arrows)}
    constraint = [[-1] + [0] * len(arrows) for _ in model.faces]
    for row, face in zip(constraint, model.faces):
        for aid in face.boundary_cycle:
            row[col_of[aid]] += 1
    return kernel_basis(constraint)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_tree_basis_spans_the_face_constraint_kernel(name):
    model = LADDER[name]()
    basis = lattice_basis(model)
    assert len(basis) == len(model.arrows) + 1 - len(model.faces)
    for point in basis:
        require_in_lattice(model, point)
    vectors = [[p.deg] + [x for _, x in p.values] for p in basis]
    oracle = face_constraint_kernel(model)
    dim = len(model.arrows) + 1
    assert lattices_equal(vectors, oracle, dim)
    # Every off-tree point is needed: without one the span is smaller.
    assert len(vectors) > 1
    assert not lattices_equal(vectors[:-1], oracle, dim)


def test_unreached_face_is_one_line_error(triangle):
    """Two faces sharing only their own two arrows hang off no boundary
    arrow, so the tree cannot reach them."""
    v = max(x.id for x in triangle.vertices) + 1
    a = max(x.id for x in triangle.arrows) + 1
    f = max(x.id for x in triangle.faces) + 1
    model = DimerModel(
        triangle.vertices + (Vertex(v, False), Vertex(v + 1, False)),
        triangle.arrows + (Arrow(a, v, v + 1, False), Arrow(a + 1, v + 1, v, False)),
        triangle.faces + (Face(f, "black", (a, a + 1)), Face(f + 1, "white", (a + 1, a))))
    with pytest.raises(ValueError, match=f"^face {f} is not reached from the boundary"):
        _dual_tree(model)


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_lattice_rank_is_vertex_count(name):
    model = fx.FIXTURE_BUILDERS[name]()
    assert len(lattice_basis(model)) == len(model.vertices)


def test_matchings_are_degree_one_points(gr37):
    for mu in enumerate_matchings(gr37):
        point = lattice_point_of_matching(gr37, mu)
        assert point.deg == 1
        assert all(x in (0, 1) for _, x in point.values)
        require_in_lattice(gr37, point)


def test_make_lattice_point_rejects_bad_face_sums(gr37):
    some_arrow = gr37.arrows[0].id
    with pytest.raises(ValueError):
        make_lattice_point(gr37, 1, {some_arrow: 1})


def test_a_value_on_an_id_that_is_no_arrow_is_rejected(gr37):
    """The face sums read only the model's arrows, so a value on any other
    id would leave them, and η, as they were: it is an error that names it."""
    point = lattice_point_of_matching(gr37, enumerate_matchings(gr37)[0])
    stray = LatticePoint(point.deg, point.values + ((999, 5),))
    message = "^lattice point has a value on 999, which is no arrow of the model$"
    with pytest.raises(ValueError, match=message):
        require_in_lattice(gr37, stray)
    with pytest.raises(ValueError, match=message):
        eta(gr37, stray)


def test_make_lattice_point_rejects_a_value_on_an_id_that_is_no_arrow(gr37):
    """make_lattice_point keeps every id it is given, so that
    `require_in_lattice` sees the stray one instead of a point without it."""
    values = {a: 1 for a in enumerate_matchings(gr37)[0].arrow_set}
    assert make_lattice_point(gr37, 1, values) == lattice_point_of_matching(
        gr37, enumerate_matchings(gr37)[0])
    with pytest.raises(ValueError,
                       match="^lattice point has a value on 999, which is no arrow of the model$"):
        make_lattice_point(gr37, 1, {**values, 999: 5})


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_eta_unimodular_on_consistent(name):
    model = fx.FIXTURE_BUILDERS[name]()
    assert is_eta_unimodular(model)
    assert all(f == 1 for f in eta_invariant_factors(model))


def test_eta_not_unimodular_on_inconsistent(inconsistent):
    assert not is_eta_unimodular(inconsistent)
    factors = eta_invariant_factors(inconsistent)
    assert len(factors) < len(inconsistent.vertices)  # rank-deficient


def test_eta_of_matching_has_rank_one(gr37):
    for mu in enumerate_matchings(gr37):
        assert sum(eta(gr37, lattice_point_of_matching(gr37, mu)).as_dict().values()) == 1


def test_coboundary_and_beta_agree(gr37):
    vertices = [v.id for v in gr37.vertices]  # vertex position
    beta = beta_matrix(gr37)
    for c, i in enumerate(vertices):
        point = coboundary(gr37, {i: 1})
        assert point.deg == 0
        assert eta(gr37, point).as_dict() == {v: beta[r][c] for r, v in enumerate(vertices)}


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_ensemble_exact_on_consistent(name):
    report = check_cluster_ensemble(fx.FIXTURE_BUILDERS[name]())
    assert report.passed, report.witnesses


def test_closed_form_rank_kernel_spans_the_eliminated_kernel():
    for dim in range(1, 41):
        closed = _rank_kernel(dim)
        assert all(sum(v) == 0 for v in closed) and len(closed) == dim - 1
        assert lattices_equal(closed, kernel_basis([[1] * dim]), dim)


def test_ensemble_fails_on_inconsistent(inconsistent):
    report = check_cluster_ensemble(inconsistent)
    assert not report.passed
    assert not report.exact_at_first
    assert not report.exact_at_second


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_eta_inverse_gives_matchings(name):
    model = fx.FIXTURE_BUILDERS[name]()
    inverse = eta_inverse_basis(model)
    for j, point in inverse.items():
        assert point.deg == 1
        cls = eta(model, point)
        assert cls.as_dict().get(j, 0) == 1
        assert all(c == 0 for v, c in cls.coefficients if v != j)


def test_triangle_inverse_matchings(triangle):
    inverse = eta_inverse_basis(triangle)
    arrows = {j: sorted(a for a, x in point.values if x == 1)
              for j, point in inverse.items()}
    assert arrows == {0: [2], 1: [0], 2: [1]}


def test_eta_inverse_raises_on_inconsistent(inconsistent):
    with pytest.raises(ValueError) as exc:
        eta_inverse_basis(inconsistent)
    assert str(exc.value) == "eta is not unimodular; no integral inverse"
