"""The matching lattice, the isomorphism onto the projective K-theory
lattice, the exchange map β, and the cluster ensemble exactness checks.

The matching lattice 𝕄 consists of pairs (deg, f) with f: arrows → ℤ whose
sum around every face cycle equals deg. Perfect matchings are exactly its
0/1-valued degree-1 points. The map η sends 𝕄 into the free abelian group
on the quiver vertices (with basis p_j, the classes of the projectives);
for consistent models it is an isomorphism and its inverse carries each p_j
to a distinguished matching 𝔪_j.

The basis of 𝕄 comes from one spanning tree of the bipartite dual, with no
elimination (`lattice_basis`); the column Hermite form of η gives its Smith
invariant factors and, when it is the identity, its inverse.

η has one body, its columns per arrow (`_eta_columns`): `eta`, its matrix,
η∘d = β and the class [N_μ] = η(μ) of an arrow mask all read them as
vectors dense in vertex position (`_eta_vector`, `_class_vector`), which the
library uses as they are. Vertex position (model order) is the one vertex
order here: the rows of η's matrix, both indices of β and the columns of η⁻¹
follow it, and sorted vertex ids appear only where a `KClass` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import intlinalg
from .matchings import Matching, require_matching
from .model import DimerModel, _arrow_bits, _layout, _vertex_positions, per_model, require_valid

Columns = Tuple[Tuple[Tuple[int, int], ...], ...]  # per arrow: its (vertex position, coefficient)s


@dataclass(frozen=True)
class LatticePoint:
    """An element of 𝕄: an integer function on arrows with equal face sums."""
    deg: int
    values: Tuple[Tuple[int, int], ...]  # sorted (arrow id, value) pairs

    def __getitem__(self, arrow: int) -> int:
        return dict(self.values).get(arrow, 0)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.values)


@dataclass(frozen=True)
class KClass:
    """An element of the K-theory lattice: integer coefficients of the
    projective classes p_j, one per quiver vertex."""
    coefficients: Tuple[Tuple[int, int], ...]  # sorted (vertex id, coeff)

    def __getitem__(self, vertex: int) -> int:
        return dict(self.coefficients).get(vertex, 0)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.coefficients)


def make_lattice_point(model: DimerModel, deg: int, values: Dict[int, int]) -> LatticePoint:
    point = LatticePoint(deg, tuple(sorted({**dict.fromkeys(_arrow_bits(model), 0),
                                            **values}.items())))
    require_in_lattice(model, point)
    return point


def require_in_lattice(model: DimerModel, f: LatticePoint) -> None:
    bits = _arrow_bits(model)
    stray = next((a for a, _ in f.values if a not in bits), None)
    if stray is not None:
        raise ValueError(f"lattice point has a value on {stray}, which is no arrow of the model")
    vals = f.as_dict()
    for face in model.faces:
        total = sum(vals.get(a, 0) for a in face.boundary_cycle)
        if total != f.deg:
            raise ValueError(f"face {face.id} sums to {total}, expected deg {f.deg}")


def lattice_point_of_matching(model: DimerModel, mu: Matching) -> LatticePoint:
    require_matching(model, mu)
    return make_lattice_point(model, 1, {a: 1 for a in mu.arrow_set})


def eta(model: DimerModel, f: LatticePoint) -> KClass:
    require_in_lattice(model, f)
    return _kclass(model, _eta_vector(model, f))


@per_model
def _eta_columns(model: DimerModel) -> Tuple[Tuple[int, ...], Columns]:
    """The one body of η: η(deg, f) = deg·base + Σ_γ f(γ)·column(γ), with
    base = Σ_j p_j − Σ_γ p_{hγ} and column(γ) = p_{hγ} + [γ internal]·p_{tγ},
    dense in vertex position (model order); one column per arrow, in the
    bit order of arrow masks."""
    position = _vertex_positions(model)
    base = [1] * len(position)
    columns = []
    for a in model.arrows:
        h = position[a.head]
        base[h] -= 1
        columns.append(((h, 1),) if a.is_boundary else ((h, 1), (position[a.tail], 1)))
    return tuple(base), tuple(columns)


def _linear(base: Sequence[int], columns: Columns, mask: int) -> List[int]:
    """base + Σ of the columns at the set bits of the arrow mask: a linear
    map of a matching, dense, in one pass over its arrow bits."""
    vec = list(base)
    while mask:
        low = mask & -mask
        mask ^= low
        for p, c in columns[low.bit_length() - 1]:
            vec[p] += c
    return vec


def _kclass(model: DimerModel, vec: Sequence[int]) -> KClass:
    """The dense vector as a `KClass`, every vertex listed: the public edge."""
    return KClass(tuple(sorted(zip((v.id for v in model.vertices), vec))))


def _eta_vector(model: DimerModel, f: LatticePoint) -> List[int]:
    """η(f) from `_eta_columns`, dense in vertex position; the face sums are
    not checked, and an id that is no arrow of the model adds nothing."""
    base, columns = _eta_columns(model)
    bits = _arrow_bits(model)
    vec = [f.deg * b for b in base]
    for aid, x in f.values:
        if x and aid in bits:
            for p, c in columns[bits[aid].bit_length() - 1]:
                vec[p] += x * c
    return vec


def _class_vector(model: DimerModel, mu_mask: int) -> List[int]:
    """[N_μ] = η(μ) = η(1, 𝟙_μ) of the arrow mask μ (unchecked), dense."""
    return _linear(*_eta_columns(model), mu_mask)


def _dual_tree(model: DimerModel) -> Dict[int, Tuple[int, Optional[int]]]:
    """One BFS spanning tree of the bipartite dual (faces are nodes, internal
    arrows edges) with a ground node that every boundary arrow joins, rooted
    at the ground: each face mapped to the arrow joining it to its parent and
    that parent (None for the ground). The ground's arrows are taken in id
    order, so the tree does not depend on the order of the model's records."""
    parent: Dict[int, Tuple[int, Optional[int]]] = {}
    for a in sorted(model.boundary_arrows, key=lambda a: a.id):
        parent.setdefault(model.faces_of_arrow(a.id)[0], (a.id, None))
    order = list(parent)
    for fid in order:
        for aid in model.face(fid).boundary_cycle:
            for g in model.faces_of_arrow(aid):
                if g not in parent:
                    parent[g] = (aid, fid)
                    order.append(g)
    if len(parent) != len(model.faces):
        unreached = min(f.id for f in model.faces if f.id not in parent)
        raise ValueError(f"face {unreached} is not reached from the boundary "
                         "in the bipartite dual")
    return parent


@per_model
def lattice_basis(model: DimerModel) -> Tuple[LatticePoint, ...]:
    """A ℤ-basis of 𝕄 read off `_dual_tree`, with no elimination. Given deg
    and f off the tree, the face sums fix the tree arrows from the leaves up
    in integer steps, so (deg, f off the tree) ↦ (deg, f) is a bijection
    ℤ^(1 + off-tree arrows) → 𝕄. The basis is the image of the unit vectors:
    (1, g) with g = 0 off the tree, then one degree-0 point per off-tree
    arrow, 1 there and 0 on the other off-tree arrows."""
    require_valid(model)
    parent = _dual_tree(model)
    arrows = sorted(a.id for a in model.arrows)

    def settle(values: Dict[int, int], fid: Optional[int], excess: int) -> None:
        # Face fid sums to `excess` more than deg: its tree arrow takes
        # -excess, which moves its parent's sum by -excess, up to the ground.
        while fid is not None:
            aid, fid = parent[fid]
            excess = -excess
            values[aid] = values.get(aid, 0) + excess

    def point(deg: int, values: Dict[int, int]) -> LatticePoint:
        return LatticePoint(deg, tuple((aid, values.get(aid, 0)) for aid in arrows))

    g: Dict[int, int] = {}
    for fid in parent:
        settle(g, fid, -1)
    basis = [point(1, g)]
    tree = {aid for aid, _ in parent.values()}
    for e in arrows:
        if e not in tree:
            values = {e: 1}
            for fid in model.faces_of_arrow(e):
                settle(values, fid, 1)
            basis.append(point(0, values))
    return tuple(basis)


@per_model
def eta_matrix(model: DimerModel) -> Tuple[Tuple[int, ...], ...]:
    """Matrix of η on the lattice_basis of 𝕄: rows indexed by vertex position
    (model order), columns by basis elements. On a model whose vertex
    records are not in id order, the rows are those of sorted ids permuted."""
    return tuple(zip(*(_eta_vector(model, b) for b in lattice_basis(model))))


@per_model
def _eta_smith(model: DimerModel) -> Tuple[int, ...]:
    return tuple(intlinalg.smith_invariant_factors(eta_matrix(model)))


def is_eta_unimodular(model: DimerModel) -> bool:
    """η is invertible over ℤ: its matrix is square, every invariant factor 1."""
    n = len(model.vertices)
    return len(lattice_basis(model)) == n and _eta_smith(model) == (1,) * n


def eta_invariant_factors(model: DimerModel) -> List[int]:
    return list(_eta_smith(model))


def beta_matrix(model: DimerModel) -> List[List[int]]:
    """β[S_i] = p_i − Σ_{a: ta=i} p_{ha} + Σ_{a: ha=i, a internal} p_{ta}
    − χ_i p_i (χ_i = 1 iff i is internal); columns indexed by the vertex
    position of i, rows by vertex position (model order). On a model whose
    vertex records are not in id order, rows and columns are both those of
    sorted ids under one permutation. One pass over the arrows: each adds to
    the column of its tail and, if internal, to that of its head."""
    at = _vertex_positions(model)
    mat = intlinalg.zeros(len(at), len(at))
    for v in model.vertices:
        if v.is_boundary:
            mat[at[v.id]][at[v.id]] = 1
    for a in model.arrows:
        t, h = at[a.tail], at[a.head]
        mat[h][t] -= 1
        if not a.is_boundary:
            mat[t][h] += 1
    return mat


@dataclass
class ClusterEnsembleReport:
    eta_d_equals_beta: bool
    rank_eta_equals_deg: bool
    exact_at_first: bool   # kernel of β equals the image of the constants
    exact_at_second: bool  # kernel of the rank map equals the image of β
    witnesses: List[str]

    @property
    def passed(self) -> bool:
        return (self.eta_d_equals_beta and self.rank_eta_equals_deg
                and self.exact_at_first and self.exact_at_second)


def check_cluster_ensemble(model: DimerModel) -> ClusterEnsembleReport:
    """Verify exactness of ℤ → ℤ^{Q0} → ℤ^{Q0} → ℤ (constants, then β,
    then coefficient sum) together with η∘d = β and rank∘η = deg."""
    dim = len(model.vertices)
    witnesses: List[str] = []

    beta = beta_matrix(model)
    # η(d 1_i) sums η's columns: + for the arrows into i, − for those out of it.
    layout, (_, columns) = _layout(model), _eta_columns(model)
    eta_d_ok = True
    for p, v in enumerate(layout.vertices):
        into, out = (_linear([0] * dim, columns, m[p]) for m in (layout.into_mask, layout.out_mask))
        if [i - o for i, o in zip(into, out)] != [row[p] for row in beta]:
            eta_d_ok = False
            witnesses.append(f"eta(d 1_{v}) != beta[{v}]")

    rank_ok = True
    for b, column in zip(lattice_basis(model), zip(*eta_matrix(model))):
        if sum(column) != b.deg:
            rank_ok = False
            witnesses.append(f"rank(eta(f)) != deg(f) on a basis element of degree {b.deg}")

    # Exactness at the first middle spot: kernel(β) = image of the constant
    # vector (1, ..., 1).
    kernel_b = intlinalg.kernel_basis(beta)
    ones = [[1] * dim]
    first = intlinalg.lattices_equal(kernel_b, ones, dim)
    if not first:
        witnesses.append("kernel of beta differs from the constants")
    # Exactness at the second: kernel of the rank map = column span of β.
    second = intlinalg.lattices_equal(_rank_kernel(dim), list(map(list, zip(*beta))), dim)
    if not second:
        witnesses.append("image of beta differs from the kernel of the rank map")
    return ClusterEnsembleReport(eta_d_ok, rank_ok, first, second, witnesses)


def _rank_kernel(dim: int) -> List[List[int]]:
    """A basis of the kernel of the rank map (1, ..., 1) on ℤ^dim: the
    vectors e_i − e_0 for i = 1..dim−1."""
    return [[-1] + [int(j == i) for j in range(1, dim)] for i in range(1, dim)]


def eta_inverse_basis(model: DimerModel) -> Dict[int, LatticePoint]:
    """The lattice points 𝔪_j = η^{-1}(p_j), one per quiver vertex, in model
    order; raises if η is not unimodular or some preimage fails to be a
    perfect matching."""
    try:
        inv = intlinalg.integer_inverse(eta_matrix(model))  # basis coordinates per p_j column
    except ValueError:
        raise ValueError("eta is not unimodular; no integral inverse") from None
    basis = lattice_basis(model)
    arrows = [aid for aid, _ in basis[0].values]  # every basis point lists every arrow, in id order
    columns = list(zip(*([x for _, x in b.values] for b in basis)))  # per arrow, its basis values
    out: Dict[int, LatticePoint] = {}
    for v, coords in zip(model.vertices, zip(*inv)):
        deg = sum(x * b.deg for x, b in zip(coords, basis))
        values = [sum(map(mul, coords, column)) for column in columns]
        if deg != 1 or any(x not in (0, 1) for x in values):
            raise ValueError(f"eta^-1(p_{v.id}) is not a perfect matching")
        out[v.id] = LatticePoint(deg, tuple(zip(arrows, values)))  # a ℤ-combination of basis points
    return out
