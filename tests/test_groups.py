"""Group layer: table validation, subgroups, quotients, regular representations.

The subgroup expectations are frozen from the brute-force oracles below, which
enumerate subsets directly instead of going through the library's
conjugacy-class scan.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellbundles import bundles, duality, groups
from fellbundles.errors import (
    MissingIdentity,
    NonAssociativeTable,
    NotAPermutationRow,
    NotASubgroup,
    NotNormal,
)

import models
from conftest import A3


def oracle_all_normal_subgroups(g):
    """Every subset that is a normal subgroup; exponential, keep |G| small."""
    found = []
    elems = list(g.elements())
    for r in range(1, g.order + 1):
        for cand in itertools.combinations(elems, r):
            mem = set(cand)
            if 0 not in mem:
                continue
            if any(g.mul(a, b) not in mem for a in mem for b in mem):
                continue
            if any(g.conjugate(s, x) not in mem for s in elems for x in mem):
                continue
            found.append(tuple(sorted(mem)))
    return sorted(found, key=lambda m: (len(m), m))


def perm_parity(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


# frozen from oracle_all_normal_subgroups(symmetric(3)); re-checked below
S3_NORMALS = [(0,), (0, 3, 4), (0, 1, 2, 3, 4, 5)]


class TestBuilders:
    def test_cyclic(self):
        g = groups.cyclic(4)
        assert g.order == 4 and g.identity == 0
        assert g.mul(3, 2) == 1 and g.inv(1) == 3

    def test_symmetric_identity_first(self):
        g = groups.symmetric(3)
        assert g.order == 6
        perms = models.symmetric_permutations(3)
        assert perms[0] == (0, 1, 2)
        # composition convention: table[s][t] acts like s after t
        for s in range(6):
            for t in range(6):
                composed = tuple(perms[s][perms[t][k]] for k in range(3))
                assert perms[g.mul(s, t)] == composed

    def test_dihedral(self):
        g = groups.dihedral(4)
        assert g.order == 8
        # a flip is an involution, a rotation by one step has order 4
        assert g.mul(4, 4) == 0
        r = 1
        orbit = {r}
        x = r
        for _ in range(3):
            x = g.mul(x, r)
            orbit.add(x)
        assert len(orbit) == 4 and 0 in orbit

    def test_direct_product(self):
        g = models.direct_product(groups.cyclic(2), groups.cyclic(3))
        assert g.order == 6
        # (1,0)*(0,1) encodes to 1*3+0=3 and 0*3+1=1
        assert g.mul(3, 1) == 4

    def test_from_table_roundtrip(self):
        g = groups.cyclic(3)
        h = groups.from_table(g.table)
        assert h.table == g.table

    def test_bad_row_rejected(self):
        with pytest.raises(NotAPermutationRow):
            groups.from_table([[0, 0], [1, 1]])

    def test_bad_column_rejected(self):
        with pytest.raises(NotAPermutationRow):
            groups.from_table([[0, 1], [0, 1]])

    def test_identity_must_sit_at_zero(self):
        # a latin square with no two-sided identity at all
        with pytest.raises(MissingIdentity):
            groups.from_table([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
        # Z2 relabeled so the identity is element 1
        with pytest.raises(MissingIdentity):
            groups.from_table([[1, 0], [0, 1]])

    def test_nonassociative_loop_rejected(self):
        # smallest nonassociative loop: latin square with identity, no group law
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(NonAssociativeTable):
            groups.from_table(loop)


class TestSubgroups:
    def test_s3_normal_subgroups_match_oracle(self):
        g = groups.symmetric(3)
        assert oracle_all_normal_subgroups(g) == S3_NORMALS
        assert [n.members for n in models.normal_subgroups(g)] == S3_NORMALS

    def test_a3_is_the_even_permutations(self):
        perms = models.symmetric_permutations(3)
        evens = tuple(i for i, p in enumerate(perms) if perm_parity(p) == 0)
        assert evens == A3

    def test_z4_normal_subgroups(self):
        g = groups.cyclic(4)
        expected = [(0,), (0, 2), (0, 1, 2, 3)]
        assert oracle_all_normal_subgroups(g) == expected
        assert [n.members for n in models.normal_subgroups(g)] == expected

    def test_d4_center_is_normal(self):
        g = groups.dihedral(4)
        mems = [n.members for n in models.normal_subgroups(g)]
        assert (0, 2) in mems  # the half-turn generates the center
        assert mems == oracle_all_normal_subgroups(g)

    def test_not_a_subgroup(self):
        g = groups.cyclic(4)
        with pytest.raises(NotASubgroup):
            groups.NormalSubgroup(g, (0, 1))

    def test_not_normal(self):
        g = groups.symmetric(3)
        with pytest.raises(NotNormal):
            groups.NormalSubgroup(g, (0, 2))  # a transposition subgroup

    def test_closure(self):
        g = groups.symmetric(3)
        assert models.subgroup_closure(g, [3]) == A3
        assert len(models.subgroup_closure(g, [1, 2])) == 6


class TestQuotients:
    def test_z4_mod_2(self):
        q = groups.quotient(groups.cyclic(4), (0, 2))
        assert q.coset_of == (0, 1, 0, 1)
        assert q.section == (0, 1)
        assert q.quotient_group.table == ((0, 1), (1, 0))
        assert q.n_part(3) == 2 and q.n_part(1) == 0

    def test_section_fixes_identity_coset(self):
        for g, n in [(groups.symmetric(3), A3), (groups.dihedral(4), (0, 2)),
                     (groups.cyclic(6), (0, 3))]:
            q = groups.quotient(g, n)
            assert q.section[0] == 0
            assert all(q.coset_of[q.section[k]] == k for k in q.quotient_group.elements())
            # s = section(sN) * n_part(s), with the n-part inside N
            for s in g.elements():
                assert g.mul(q.section[q.coset_of[s]], q.n_part(s)) == s
                assert q.n_part(s) in q.subgroup.members

    def test_s3_mod_a3(self):
        q = groups.quotient(groups.symmetric(3), A3)
        assert q.quotient_group.order == 2
        assert q.quotient_group.table == ((0, 1), (1, 0))

    def test_quotient_rejects_non_normal(self):
        with pytest.raises(NotNormal):
            groups.quotient(groups.symmetric(3), (0, 2))


class TestRegularRepresentations:
    def test_left_is_a_homomorphism(self):
        g = groups.symmetric(3)
        lam = groups.left_regular(g)
        for s in g.elements():
            for t in g.elements():
                assert np.array_equal(lam[s] @ lam[t], lam[g.mul(s, t)])

    def test_right_is_a_homomorphism_and_commutes(self):
        g = groups.dihedral(3)
        lam, rho = groups.left_regular(g), models.right_regular(g)
        for r in g.elements():
            for t in g.elements():
                assert np.array_equal(rho[r] @ rho[t], rho[g.mul(r, t)])
                assert np.array_equal(lam[t] @ rho[r], rho[r] @ lam[t])

    def test_off_identity_traceless(self):
        g = groups.cyclic(5)
        lam = groups.left_regular(g)
        assert np.trace(lam[0]) == 5
        for s in range(1, 5):
            assert np.trace(lam[s]) == 0


@st.composite
def small_groups(draw):
    kind = draw(st.sampled_from(["cyclic", "dihedral", "symmetric", "product"]))
    if kind == "cyclic":
        return groups.cyclic(draw(st.integers(1, 12)))
    if kind == "dihedral":
        return groups.dihedral(draw(st.integers(1, 6)))
    if kind == "symmetric":
        return groups.symmetric(draw(st.integers(1, 3)))
    return models.direct_product(groups.cyclic(draw(st.integers(1, 4))),
                                 groups.cyclic(draw(st.integers(1, 4))))


@settings(max_examples=25, deadline=None)
@given(small_groups())
def test_normal_subgroup_scan_is_sound(g):
    for n in models.normal_subgroups(g):
        assert g.order % n.order == 0
        q = groups.quotient(g, n)
        assert q.quotient_group.order * n.order == g.order


@settings(max_examples=25, deadline=None)
@given(small_groups(), st.data())
def test_inverse_and_identity_laws(g, data):
    s = data.draw(st.integers(0, g.order - 1))
    t = data.draw(st.integers(0, g.order - 1))
    assert g.mul(s, g.inv(s)) == 0
    assert g.mul(0, s) == s and g.mul(s, 0) == s
    assert g.inv(g.mul(s, t)) == g.mul(g.inv(t), g.inv(s))


@pytest.mark.parametrize("members,named", [((0, 9), 9), ((0, -2), -2), ((0, 4), 4), ((-1,), -1)])
def test_a_member_outside_the_group_is_named(members, named):
    # checked before any table lookup: 9 would raise IndexError, -2 would wrap to 2
    with pytest.raises(NotASubgroup, match=f"^member {named} is outside a group of order 4$"):
        groups.NormalSubgroup(groups.cyclic(4), members)


@pytest.mark.parametrize("members,named", [(("a", 9), "'a'"), (([1],), "[1]"), ((0, 1j), "1j")])
def test_a_member_that_is_not_a_number_is_named(members, named):
    # checked before the members are hashed or sorted, which would raise TypeError
    with pytest.raises(NotASubgroup, match=f"^{re.escape(f'member {named} is not an integer')}$"):
        groups.subgroup_members(groups.cyclic(4), members)


# every caller reads subgroup membership from the one validator in `groups`
SUBGROUP_CALLERS = {
    "coset_action": lambda bundle, members: duality.coset_action(bundle.group, members),
    "restrict": bundles.restrict,
    "verify_multiplier_family": lambda bundle, members: bundles.verify_multiplier_family(
        bundles.UnitaryMultiplierFamily(bundle, members, {})),
}


@pytest.mark.parametrize("caller", sorted(SUBGROUP_CALLERS))
@pytest.mark.parametrize("members,named", [((0, 9), 9), ((0, -2), -2), ((0, 2.5), 2.5)])
def test_every_caller_names_a_member_outside_the_group(pauli_pullback, caller, members, named):
    # pauli_pullback is graded by C4
    message = f"^{re.escape(f'member {named} is outside a group of order 4')}$"
    with pytest.raises(NotASubgroup, match=message):
        SUBGROUP_CALLERS[caller](pauli_pullback, members)


def oracle_left_cosets(g, members):
    """The partition of G into the sets sH, each sorted, ordered by least member."""
    return sorted({tuple(sorted(g.mul(s, h) for h in members)) for s in g.elements()})


@settings(max_examples=25, deadline=None)
@given(small_groups(), st.data())
def test_left_cosets_match_the_brute_force_partition(g, data):
    gens = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=2))
    h = models.subgroup_closure(g, gens)
    coset_of, section = groups.left_cosets(g, h)
    cosets = oracle_left_cosets(g, h)
    assert section == tuple(c[0] for c in cosets)
    assert all(coset_of[s] == k for k, c in enumerate(cosets) for s in c)
    perm = duality.coset_action(g, h).perm
    assert perm == tuple(tuple(coset_of[g.mul(t, c)] for c in section) for t in g.elements())
    for n in models.normal_subgroups(g):
        q = groups.quotient(g, n)
        qg = q.quotient_group
        assert duality.coset_action(g, n.members).perm == tuple(
            tuple(qg.mul(q.coset_of[t], k) for k in qg.elements()) for t in g.elements())
