"""Reference answers that do not come from the code under test.

Everything here reads the plain JSON model document (the `to_dict` form)
and uses only definitions from the paper, so a benchmark op is checked
against an answer discdimer did not produce:

- a perfect matching picks exactly one arrow of every face;
- label i lies in the boundary value of a matching iff boundary arrow i is
  clockwise (its face is white) and matched, or anticlockwise and unmatched;
- the uniform (k, n) model has every k-subset in its positroid, strand
  permutation i -> i + k and the n cyclic intervals among its labels;
- the gr37 strand permutation and source labels are the documented ones.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

GR37_PERMUTATION = {1: 5, 2: 4, 3: 1, 4: 6, 5: 7, 6: 2, 7: 3}
GR37_SOURCE_LABELS = frozenset(
    frozenset(int(c) for c in digits)
    for digits in ("134", "123", "127", "167", "367", "356", "345", "135", "137", "357"))


class DocModel:
    """A model document indexed for matching and boundary computations."""

    def __init__(self, doc: dict) -> None:
        self.vertex_ids = sorted(v["id"] for v in doc["vertices"])
        self.faces = {f["id"]: tuple(f["boundary_cycle"]) for f in doc["faces"]}
        self.faces_of_arrow: Dict[int, List[int]] = {a["id"]: [] for a in doc["arrows"]}
        for fid, cycle in sorted(self.faces.items()):
            for aid in cycle:
                self.faces_of_arrow[aid].append(fid)
        color = {f["id"]: f["color"] for f in doc["faces"]}
        self.labels = {a["id"]: a["boundary_label"] for a in doc["arrows"] if a["is_boundary"]}
        self.clockwise = {aid: color[self.faces_of_arrow[aid][0]] == "white"
                          for aid in self.labels}

    def is_perfect_matching(self, arrows: Iterable[int]) -> bool:
        chosen = set(arrows)
        if not chosen <= set(self.faces_of_arrow):
            return False
        return all(sum(1 for a in cycle if a in chosen) == 1 for cycle in self.faces.values())

    def boundary(self, arrows: Iterable[int]) -> FrozenSet[int]:
        chosen = set(arrows)
        return frozenset(label for aid, label in self.labels.items()
                         if (aid in chosen) == self.clockwise[aid])

    def matchings(self) -> List[FrozenSet[int]]:
        """Every perfect matching, by exact cover of the faces."""
        order = sorted(self.faces)
        out: List[FrozenSet[int]] = []
        covered: set = set()
        chosen: List[int] = []

        def extend(pos: int) -> None:
            while pos < len(order) and order[pos] in covered:
                pos += 1
            if pos == len(order):
                out.append(frozenset(chosen))
                return
            for aid in self.faces[order[pos]]:
                faces = self.faces_of_arrow[aid]
                if any(f in covered for f in faces):
                    continue
                covered.update(faces)
                chosen.append(aid)
                extend(pos + 1)
                chosen.pop()
                covered.difference_update(faces)

        extend(0)
        return out

    def matchings_by_boundary(self) -> Dict[FrozenSet[int], List[FrozenSet[int]]]:
        groups: Dict[FrozenSet[int], List[FrozenSet[int]]] = {}
        for mu in self.matchings():
            groups.setdefault(self.boundary(mu), []).append(mu)
        return groups


def k_subsets(k: int, n: int) -> List[Tuple[int, ...]]:
    return list(combinations(range(1, n + 1), k))


def cyclic_intervals(k: int, n: int) -> FrozenSet[FrozenSet[int]]:
    return frozenset(frozenset((s + t) % n + 1 for t in range(k)) for s in range(n))


def uniform_permutation(k: int, n: int) -> Dict[int, int]:
    return {i: (i - 1 + k) % n + 1 for i in range(1, n + 1)}


def plucker_relation_count(k: int, n: int) -> int:
    """Three-term relations: a (k-2)-subset S and four points outside it."""
    return math.comb(n, k - 2) * math.comb(n - k + 2, 4) if k >= 2 else 0


def plucker_failures(values: Mapping[Tuple[int, ...], Fraction], k: int, n: int) -> int:
    """How many three-term Plücker relations the vector breaks."""
    failures = 0
    for S in combinations(range(1, n + 1), k - 2):
        rest = [x for x in range(1, n + 1) if x not in S]

        def z(*pair: int) -> Fraction:
            return values[tuple(sorted(S + pair))]

        for a, b, c, d in combinations(rest, 4):
            if z(a, c) * z(b, d) != z(a, b) * z(c, d) + z(a, d) * z(b, c):
                failures += 1
    return failures
