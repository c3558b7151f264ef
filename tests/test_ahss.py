"""Tests for the cohomology-driven upper bounds and their combination."""

import json

import pytest

from perindex.ahss import (
    TAG_AHSS,
    TAG_COMBINED,
    TwistedShape,
    best_upper_bound,
    ku_ahss_upper_bound,
    load_twisted_shape,
    twisted_shape_from_json,
)
from perindex.bounds import TAG_PRIME_POWER, TAG_PRODUCT, upper_bound_product
from perindex.homology import CohomologyGroup, bzr_skeleton_complex

from brute_force import prime_support


def make_shape(d, r, torsion_by_degree=None, free_by_degree=None):
    torsion_by_degree = torsion_by_degree or {}
    free_by_degree = free_by_degree or {}
    groups = []
    for k in range(d + 1):
        free = free_by_degree.get(k, 1 if k == 0 else 0)
        groups.append(CohomologyGroup(k, free, tuple(torsion_by_degree.get(k, ()))))
    return TwistedShape(d, r, tuple(groups))


def test_shape_validation():
    with pytest.raises(ValueError):
        make_shape(3, 1)
    with pytest.raises(ValueError):
        TwistedShape(2, 2, (CohomologyGroup(0, 1, ()),))  # wrong length
    with pytest.raises(ValueError):
        make_shape(3, 2, free_by_degree={0: 0})  # empty space


def test_ku_bound_headline_values():
    shape = make_shape(6, 2, {3: (2,), 5: (4,)})
    report = ku_ahss_upper_bound(shape)
    assert report.bound == 8
    assert report.theorem == TAG_AHSS
    assert [j for j, _ in report.factors] == [3, 5]

    free_h5 = make_shape(6, 2, {3: (2,)}, free_by_degree={5: 1})
    assert ku_ahss_upper_bound(free_h5).bound == 2


def test_ku_bound_low_dimensions():
    for d in (3, 4):
        for r in (2, 3, 6, 9):
            shape = make_shape(d, r, {3: (r,), 4: (2, 4)} if d == 4 else {3: (r,)})
            assert ku_ahss_upper_bound(shape).bound == r
    for d in (0, 1, 2):
        assert ku_ahss_upper_bound(make_shape(d, 5)).bound == 1


def test_ku_bound_uses_r_primary_part_only():
    shape = make_shape(6, 2, {5: (15,)})  # 15 has no 2-part
    assert ku_ahss_upper_bound(shape).bound == 2
    shape = make_shape(6, 2, {5: (12,)})  # 2-part of 12 is 4
    assert ku_ahss_upper_bound(shape).bound == 8


def test_ku_bound_monotone_in_torsion():
    small = make_shape(8, 2, {5: (2,), 7: (2,)})
    large = make_shape(8, 2, {5: (4,), 7: (2, 8)})
    a = ku_ahss_upper_bound(small).bound
    b = ku_ahss_upper_bound(large).bound
    assert b % a == 0 and b >= a


def test_ku_bound_prime_support():
    for r in (2, 3, 4, 6, 10):
        shape = make_shape(7, r, {5: (60,), 7: (30,)})
        bound = ku_ahss_upper_bound(shape).bound
        assert prime_support(bound) <= prime_support(r)


def test_best_upper_bound_combines():
    shape = make_shape(6, 2, {3: (2,), 5: (4,)})
    report = best_upper_bound(shape)
    assert report.bound == 8  # gcd(8, 64)
    assert report.theorem == TAG_COMBINED
    assert any(TAG_PRODUCT in note for note in report.assumptions)

    shape = make_shape(4, 3, {3: (3,)})
    report = best_upper_bound(shape)
    assert report.bound == 3  # gcd(3, 9, 9)
    assert any(TAG_PRIME_POWER in note for note in report.assumptions)

    assert best_upper_bound(make_shape(1, 6)).bound == 1


def test_best_divides_every_known_contributor():
    for d, r, torsion in [(6, 2, {5: (4,)}), (5, 3, {5: (9,)}), (7, 6, {5: (6,), 7: (2,)})]:
        shape = make_shape(d, r, torsion)
        best = best_upper_bound(shape).bound
        ku = ku_ahss_upper_bound(shape).bound
        assert ku % best == 0
        contributors = [ku]
        product = upper_bound_product(d, r)
        if product.known:
            assert product.bound % best == 0
            contributors.append(product.bound)
        # and when every known contributor is a multiple of r, so is the gcd
        if all(c % r == 0 for c in contributors):
            assert best % r == 0


def test_shape_from_complex():
    c = bzr_skeleton_complex(2, 6)
    shape = TwistedShape.from_complex(c, 2)
    assert shape.d == 6
    assert shape.h[2].torsion == (2,)
    assert shape.h[5].torsion == ()
    # H^5 of this skeleton is zero, so the odd-torsion bound collapses to r
    assert ku_ahss_upper_bound(shape).bound == 2


def test_shape_json_roundtrip():
    shape = make_shape(6, 2, {3: (2,), 5: (4,)})
    doc = json.loads(json.dumps(shape.to_json_dict()))
    again = twisted_shape_from_json(doc)
    assert again == shape


def test_shape_json_rejects_malformed(tmp_path):
    with pytest.raises(ValueError):
        twisted_shape_from_json({"d": 2, "r": 2})
    with pytest.raises(ValueError):
        twisted_shape_from_json({"d": 1, "r": 2, "h": [{"free_rank": 1, "torsion": []}]})
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(make_shape(3, 2).to_json_dict()))
    assert load_twisted_shape(path).d == 3
