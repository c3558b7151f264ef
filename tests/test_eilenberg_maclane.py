"""Groups of the paper's own spaces, the skeleta of K(Z/l, 2), against the
literature.

In degrees below its top, a skeleton has the cohomology of K(Z/l, 2)
itself.  There, Hurewicz gives H_2 = Z/l, the homology of K(Z/l, 2) is
H_3 = 0 (Eilenberg-MacLane, "On the groups H(Pi, n), II", Ann. of Math.
1954), and Whitehead's quadratic functor gives H_4 = Gamma(Z/l), which is
Z/4 for l = 2 and Z/l for odd l (Whitehead, "A certain exact sequence",
Ann. of Math. 1950).  The universal coefficient theorem turns these into
H^2 = 0, H^3 = Ext(Z/l, Z) = Z/l, H^4 = 0 and tors H^5 = Gamma(Z/l).  The
rational homology is that of a point, so the free rank in the top degree q
is (-1)^q (chi - 1), with chi the Euler characteristic.
"""

from eilenberg_maclane import k_z_l_2

from perindex.ahss import TwistedShape, best_upper_bound
from perindex.bounds import lower_bound_skeleton
from perindex.homology import bockstein, cohomology_Z, smith_normal_form

from brute_force import euler_characteristic

# (l, top degree): the cell counts, then the groups (free rank, torsion)
SKELETA = {
    (2, 5): ((1, 0, 1, 4, 41, 768), [(1, ()), (0, ()), (0, ()), (0, (2,)), (0, ()), (730, (4,))]),
    (3, 4): ((1, 0, 2, 20, 636), [(1, ()), (0, ()), (0, ()), (0, (3,)), (618, ())]),
}


def test_skeleta_of_k_z_l_2_have_the_literature_groups():
    for (l, top), (counts, groups) in SKELETA.items():
        c = k_z_l_2(l, top)
        assert c.cell_counts == counts
        assert groups[top][0] == (-1) ** top * (euler_characteristic(c) - 1)
        computed = [cohomology_Z(c, k) for k in range(top + 1)]
        assert [(g.free_rank, g.torsion) for g in computed] == groups, (l, top)
        # H^2(X; Z/l) = Hom(H_2, Z/l) = Z/l, and the Bockstein onto H^3 = Z/l
        # is an isomorphism: the canonical class of period l
        beta = bockstein(c, 2, l)
        assert beta.source.torsion == beta.target.torsion == (l,)
        assert beta.is_isomorphism()


def test_the_elimination_on_the_top_boundary_of_the_5_skeleton():
    # the paper's own d_5 for l = 2, 41 x 768: rank 41 - 3 = 38, since H_4 is
    # finite and d_4 has rank 3, and its one non-unit invariant factor gives
    # tors H_4 = Gamma(Z/2) = Z/4; the certificate passes the public re-check
    c = k_z_l_2(2, 5)
    a = c.boundary(5)
    d = smith_normal_form(a)
    assert d.rank == 38
    assert [x for x in d.diag if x != 1] == [4, 0, 0, 0]
    d.verify(a)


# (l, top degree q): the lower and the upper bound on the index of the
# canonical period-l class of the q-skeleton
SANDWICH = {(2, 4): (2, 2), (2, 5): (2, 8), (3, 4): (3, 3)}


def test_the_index_sandwich_on_the_skeleta_of_k_z_l_2():
    # the paper's headline spaces (Antieau-Williams, arXiv:1104.4654): the
    # skeleta of K(Z/l, 2) carry a class of period l whose index the two
    # independent sides pin between a closed form and computed groups
    for (l, q), (lower, upper) in SANDWICH.items():
        c = k_z_l_2(l, q)
        # the class: H^3 = Ext(H_2, Z) = Z/l by Hurewicz and the universal
        # coefficient theorem, and the Bockstein from H^2(X; Z/l) =
        # Hom(H_2, Z/l) = Z/l onto it is an isomorphism, since H^2 = 0 and
        # H^3 has exponent l: it names the class as the image of iota
        h3 = cohomology_Z(c, 3)
        assert (h3.free_rank, h3.torsion) == (0, (l,)), (l, q)
        assert bockstein(c, 2, l).is_isomorphism(), (l, q)
        # lower: the paper's cup-power bound on the q-skeleton, the
        # (a + 1)-skeleton with a = q - 1: n(l, [(q - 2) / 2]) divides the index
        low = lower_bound_skeleton(l, q - 1).bound
        # upper: the gcd of the paper's bounds on the computed shape; in
        # dimension 4 its twisted K-theory spectral sequence bound collapses
        # to the period, and at q = 5 it is l times the l-primary exponent of
        # H^5, here 2 * 4, with tors H^5 = Gamma(Z/2) = Z/4 (Whitehead, above)
        high = best_upper_bound(TwistedShape.from_complex(c, l)).bound
        assert (low, high) == (lower, upper), (l, q)
        assert high % low == 0, (l, q)
