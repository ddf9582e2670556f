"""Monomial bases, lattice relations, and the gl action."""

from math import comb

import pytest
from handcoded import exponent_matrix

from tautsys.model import (LatticeRelation, ModelSpec, ResourceBoundError,
                           build_projective_model, fermat_point, lattice_relations,
                           lie_action, monomials_of_degree,
                           multiplication_surjectivity)


def test_projective_line_interior_first_labels():
    spec = build_projective_model(1, ordering="interior-first")
    assert spec.n == 3
    assert spec.basis == ((1, 1), (2, 0), (0, 2))
    assert spec.i0 == 0


def test_projective_plane_interior_first_labels():
    spec = build_projective_model(2, ordering="interior-first")
    assert spec.n == 10
    assert spec.basis[0] == (1, 1, 1)
    assert spec.basis == (
        (1, 1, 1), (2, 1, 0), (1, 2, 0), (0, 3, 0), (0, 2, 1),
        (0, 1, 2), (0, 0, 3), (1, 0, 2), (2, 0, 1), (3, 0, 0))


def test_grlex_ordering_and_counts():
    for d in (1, 2, 3):
        spec = build_projective_model(d)
        assert spec.n == comb(2 * d + 1, d)
        assert spec.basis == tuple(sorted(spec.basis, reverse=True))
        assert spec.basis[spec.i0] == (1,) * (d + 1)
        for column in spec.basis:
            assert sum(column) == d + 1


def test_dimension_bound_enforced():
    with pytest.raises(ResourceBoundError):
        build_projective_model(4)


def test_fermat_point_positions():
    spec = build_projective_model(1, ordering="interior-first")
    assert fermat_point(spec) == (0, 1, 1)
    spec2 = build_projective_model(2, ordering="interior-first")
    point = fermat_point(spec2)
    assert sum(point) == 3
    for value, exp in zip(point, spec2.basis):
        assert value == (1 if max(exp) == 3 else 0)


def test_lattice_relation_projective_line():
    spec = build_projective_model(1, ordering="interior-first")
    rels = lattice_relations(spec, 2)
    assert [r.vector for r in rels] == [(2, -1, -1)]
    # the only primitive relation survives a larger bound
    rels3 = lattice_relations(spec, 3)
    assert [r.vector for r in rels3] == [(2, -1, -1)]


def test_model_spec_refuses_an_i0_outside_the_basis():
    """A negative i0 would index the basis from its end."""
    spec = build_projective_model(1)
    fields = dict(d=1, n=3, basis=spec.basis, ordering=spec.ordering)
    assert spec.basis[spec.i0 - 3] == (1, 1)
    for i0 in (spec.i0 - 3, 3):
        with pytest.raises(ValueError):
            ModelSpec(i0=i0, **fields)


def test_lattice_relation_exactness():
    spec = build_projective_model(2, ordering="interior-first")
    rels = lattice_relations(spec, 2)
    matrix = exponent_matrix(spec)
    assert all(sum(r * v for r, v in zip(row, rel.vector)) == 0
               for rel in rels for row in matrix)
    # interior squared equals the product of two boundary monomials
    squares = [rel for rel in rels if rel.vector[0] == 2]
    target = tuple([2] + [0] * 9)
    found = False
    for rel in squares:
        negs = [i for i, e in enumerate(rel.vector) if e < 0]
        if sorted(negs) == [1, 5]:
            found = True
    assert found, "relation (x0x1x2)^2 = (x0^2x1)(x1x2^2) not enumerated"


def test_lattice_relations_complete_up_to_bound():
    # brute force over the raw integer box as an independent enumeration
    spec = build_projective_model(1, ordering="interior-first")
    matrix = exponent_matrix(spec)
    found = set()
    bound = 3
    from itertools import product
    for vec in product(range(-bound, bound + 1), repeat=3):
        if not any(vec):
            continue
        if sum(e for e in vec if e > 0) > bound:
            continue
        if any(sum(r * v for r, v in zip(row, vec)) for row in matrix):
            continue
        canonical = vec
        for e in vec:
            if e > 0:
                break
            if e < 0:
                canonical = tuple(-u for u in vec)
                break
        found.add(canonical)
    assert found == {tuple(r.vector) for r in lattice_relations(spec, bound)}


def test_relation_pairs_are_bounded_before_pairing():
    assert len(lattice_relations(build_projective_model(2), 4)) == 924
    spec = build_projective_model(3)
    for bound, pairs in ((3, 115676), (4, 6758740)):
        with pytest.raises(ResourceBoundError, match=f"gives {pairs} "):
            lattice_relations(spec, bound)


@pytest.mark.parametrize("ordering", ["grlex", "interior-first"])
@pytest.mark.parametrize("d,bounds", [(1, (2, 3, 4)), (2, (2, 3, 4)),
                                      (3, (2,))])
def test_relations_are_distinct_up_to_sign_by_construction(d, bounds,
                                                           ordering):
    """Every bound the pair cap admits: no relation needs a sign flip and
    none repeats up to sign, so the list needs no deduplication pass."""
    spec = build_projective_model(d, ordering=ordering)
    for bound in bounds:
        relations = lattice_relations(spec, bound)
        vectors = [rel.vector for rel in relations]
        assert all(next(e for e in v if e) > 0 for v in vectors)
        classes = {frozenset((v, tuple(-e for e in v))) for v in vectors}
        assert len(classes) == len(vectors)
        assert relations == sorted(
            relations, key=lambda rel: (rel.degree, rel.vector))


def test_lattice_relation_validation():
    with pytest.raises(ValueError):
        LatticeRelation((0, 0, 0))
    with pytest.raises(ValueError):
        LatticeRelation((1, -2, 0))


def test_lie_action_entries():
    spec = build_projective_model(1, ordering="interior-first")
    # E_01 = x0 d/dx1 sends x1^2 to 2 x0 x1: entry 2 at (row a0, column a2)
    gen = lie_action(spec, 0, 1)
    assert gen.matrix[0][2] == 2
    # E_00 reads the x0-degree: diagonal entry 1 on the interior monomial
    diag = lie_action(spec, 0, 0)
    assert diag.matrix[0][0] == 1
    assert diag.matrix[1][1] == 2
    assert diag.matrix[2][2] == 0
    trace = sum(diag.matrix[i][i] for i in range(spec.n))
    assert trace == sum(exp[0] for exp in spec.basis)


def _mat_mul(a, b, n):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n))


def _mat_sub(a, b, n):
    return tuple(
        tuple(a[i][j] - b[i][j] for j in range(n)) for i in range(n))


@pytest.mark.parametrize("d", [1, 2])
def test_lie_action_bracket_relations(d):
    spec = build_projective_model(d, ordering="interior-first")
    n = spec.n
    action = {
        (k, l): lie_action(spec, k, l).matrix
        for k in range(d + 1) for l in range(d + 1)}
    # [E_kl, E_uv] = delta_lu E_kv - delta_vk E_ul on the derivation action
    for (k, l) in action:
        for (u, v) in action:
            bracket = _mat_sub(
                _mat_mul(action[(k, l)], action[(u, v)], n),
                _mat_mul(action[(u, v)], action[(k, l)], n), n)
            expected = tuple(
                tuple(
                    (action[(k, v)][i][j] if l == u else 0)
                    - (action[(u, l)][i][j] if v == k else 0)
                    for j in range(n))
                for i in range(n))
            assert bracket == expected


def test_multiplication_surjectivity_line():
    spec = build_projective_model(1)
    report = multiplication_surjectivity(spec, 1, 1)
    assert report.surjective and report.rank == report.expected == 5


def test_multiplication_surjectivity_plane():
    spec = build_projective_model(2)
    report = multiplication_surjectivity(spec, 1, 1)
    assert report.surjective and report.expected == comb(8, 2)


def test_multiplication_surjectivity_degree_zero_edge():
    spec = build_projective_model(2)
    for l in (0, 1, 2):
        report = multiplication_surjectivity(spec, 0, l)
        assert report.surjective


def test_monomials_of_degree_counts():
    assert len(monomials_of_degree(3, 4)) == comb(6, 2)
    assert monomials_of_degree(2, 1) == [(1, 0), (0, 1)]
    assert monomials_of_degree(2, 0) == [(0, 0)]
