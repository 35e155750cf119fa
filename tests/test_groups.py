import doctest
import itertools

import pytest

import signedflow.groups
from signedflow import (
    FiniteAbelianGroup,
    abelian_groups_of_order,
    abelian_groups_up_to,
    group_pairs_same_invariants,
    parse_group_spec,
)

from reference import index_of, nonzero_elements, zero


def test_doctests():
    failures, _ = doctest.testmod(signedflow.groups)
    assert failures == 0


class TestConstruction:
    @pytest.mark.parametrize("bad", [4.7, 4.0, "4"])
    def test_rejects_non_integer_modulus(self, bad):
        with pytest.raises(ValueError, match="modulus must be an integer, got"):
            FiniteAbelianGroup((bad,))


class TestArithmetic:
    def test_componentwise_addition(self):
        g = FiniteAbelianGroup((4, 2))
        assert g.add((3, 1), (2, 1)) == (1, 0)

    def test_negate_zero_is_zero(self):
        g = FiniteAbelianGroup((4, 2))
        assert g.negate(zero(g)) == zero(g)

    def test_double_in_z4(self):
        g = FiniteAbelianGroup((4,))
        assert g.double((2,)) == (0,)

    def test_group_axioms_exhaustively(self):
        g = FiniteAbelianGroup((4, 3))
        elems = list(g.elements())
        for a in elems:
            assert g.add(a, zero(g)) == a
            assert g.add(a, g.negate(a)) == zero(g)
        for a, b in itertools.product(elems, repeat=2):
            assert g.add(a, b) == g.add(b, a)

    def test_length_and_range_mismatches_raise(self):
        g = FiniteAbelianGroup((4, 2))
        with pytest.raises(ValueError):
            g.add((1,), (0, 0))
        with pytest.raises(ValueError):
            g.add((1, 2), (0, 0))
        with pytest.raises(ValueError):
            g.negate((4, 0))

    @pytest.mark.parametrize("call", [
        lambda g: g.add((1.0,), (2,)),
        lambda g: g.add((1,), (2.0,)),
        lambda g: g.negate((1.5,)),
        lambda g: index_of(g, (1.0,)),
    ])
    def test_float_residues_are_refused(self, call):
        with pytest.raises(ValueError, match="residue must be an integer, got"):
            call(FiniteAbelianGroup((4,)))

    def test_residue_out_of_range_names_the_range(self):
        with pytest.raises(ValueError, match="residue must be in 0..3, got 4"):
            FiniteAbelianGroup((4,)).negate((4,))

    def test_bad_modulus_raises(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((0,))


class TestTwoRank:
    def test_odd_group_has_rank_zero(self):
        assert FiniteAbelianGroup((3,)).two_rank == 0

    def test_elementary_abelian(self):
        assert FiniteAbelianGroup((2, 2)).two_rank == 2

    def test_z8_z2(self):
        g = FiniteAbelianGroup((8, 2))
        involutions = sum(
            1 for x in nonzero_elements(g) if g.double(x) == zero(g)
        )
        assert involutions == 3
        assert 2**g.two_rank == involutions + 1

    def test_involution_count_matches_rank_up_to_order_64(self):
        for g in abelian_groups_up_to(64):
            involutions = sum(
                1 for x in nonzero_elements(g) if g.double(x) == zero(g)
            )
            assert involutions == 2**g.two_rank - 1

    def test_two_part_divides_order(self):
        for g in abelian_groups_up_to(64):
            assert g.order % 2**g.two_rank == 0
            assert g.order // 2**g.two_rank >= 1

    def test_z4_splits_as_rank_one(self):
        g = FiniteAbelianGroup((4,))
        assert (g.two_rank, g.order // 2**g.two_rank) == (1, 2)

    def test_crt_rewrites_do_not_change_invariants(self):
        for moduli in [(6,), (2, 3), (3, 2)]:
            g = FiniteAbelianGroup(moduli)
            assert (g.order, g.two_rank) == (6, 1)

    def test_unit_moduli_are_tolerated(self):
        g = FiniteAbelianGroup((1, 3, 1))
        assert (g.order, g.two_rank) == (3, 0)
        assert len(list(g.elements())) == 3


class TestIndexTable:
    @pytest.mark.parametrize(
        "g", [FiniteAbelianGroup(m) for m in [(), (5,), (4, 2), (3, 2, 2), (4, 3)]]
    )
    def test_matches_element_arithmetic(self, g):
        elems = list(g.elements())
        for k in range(-2, 3):
            for i, a in enumerate(elems):
                table = g.index_table(i, k)
                for b, j in zip(elems, table):
                    multiple = zero(g)
                    for _ in range(abs(k)):
                        multiple = g.add(multiple, b if k > 0 else g.negate(b))
                    assert elems[j] == g.add(a, multiple)

    def test_shift_out_of_range_raises(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((4, 2)).index_table(8, 1)

    @pytest.mark.parametrize("shift, scale", [(1.0, 1), (1, 1.0)])
    def test_float_arguments_are_refused(self, shift, scale):
        with pytest.raises(ValueError, match="must be an integer"):
            FiniteAbelianGroup((4,)).index_table(shift, scale)


class TestEnumeration:
    def test_z2(self):
        assert list(FiniteAbelianGroup((2,)).elements()) == [(0,), (1,)]

    def test_klein_four(self):
        g = FiniteAbelianGroup((2, 2))
        assert len(list(g.elements())) == 4
        assert len(list(nonzero_elements(g))) == 3

    def test_count_and_distinctness(self):
        for g in abelian_groups_up_to(16):
            elems = list(g.elements())
            assert len(elems) == g.order == len(set(elems))

    def test_lexicographic_order_and_index(self):
        g = FiniteAbelianGroup((3, 2))
        elems = list(g.elements())
        assert elems == sorted(elems)
        assert [index_of(g, a) for a in elems] == list(range(6))

    def test_trivial_group(self):
        g = FiniteAbelianGroup(())
        assert list(g.elements()) == [()]
        assert list(nonzero_elements(g)) == []


class TestGroupsOfOrder:
    def test_order_four(self):
        assert [g.moduli for g in abelian_groups_of_order(4)] == [(4,), (2, 2)]

    def test_order_sixteen_has_five_types(self):
        moduli = [g.moduli for g in abelian_groups_of_order(16)]
        assert moduli == [(16,), (8, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2)]

    def test_order_one(self):
        assert [g.moduli for g in abelian_groups_of_order(1)] == [()]

    def test_order_twelve(self):
        assert [g.moduli for g in abelian_groups_of_order(12)] == [(4, 3), (3, 2, 2)]

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            abelian_groups_of_order(0)

    def test_float_order_is_refused(self):
        with pytest.raises(ValueError, match="order must be an integer"):
            abelian_groups_of_order(4.0)

    @pytest.mark.parametrize("up_to, max_order", [(abelian_groups_up_to, 8.0)])
    def test_float_max_order_is_refused(self, up_to, max_order):
        with pytest.raises(ValueError, match="max_order must be an integer"):
            up_to(max_order)


class TestPairsSameInvariants:
    def test_order_nine_pair(self):
        pairs = [p for p in group_pairs_same_invariants(abelian_groups_up_to(9))]
        assert [(a.moduli, b.moduli) for a, b in pairs] == [((9,), (3, 3))]

    def test_order_four_produces_no_pair(self):
        for a, b in group_pairs_same_invariants(abelian_groups_up_to(8)):
            assert a.order != 4

    def test_order_sixteen_rank_two_pair(self):
        pairs = [
            (a.moduli, b.moduli)
            for a, b in group_pairs_same_invariants(abelian_groups_up_to(16))
            if a.order == 16 and a.two_rank == 2
        ]
        assert pairs == [((8, 2), (4, 4))]

    def test_pairs_share_invariants_and_differ(self):
        for a, b in group_pairs_same_invariants(abelian_groups_up_to(36)):
            assert a.order == b.order
            assert a.two_rank == b.two_rank
            assert a.moduli != b.moduli


class TestSpecStrings:
    def test_parse_basic(self):
        assert parse_group_spec("4,2").moduli == (4, 2)

    def test_parse_with_spaces(self):
        assert parse_group_spec(" 2, 3 ").moduli == (2, 3)

    def test_empty_is_trivial(self):
        g = parse_group_spec("")
        assert g.moduli == () and g.order == 1

    def test_round_trip(self):
        for g in abelian_groups_up_to(12):
            assert parse_group_spec(g.spec()) == g

    @pytest.mark.parametrize("bad", ["x", "4,", "4,0", "-2", "2;3"])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_group_spec(bad)

    @pytest.mark.parametrize("spec", ["1_1", "\uff13", "4,1_0"])
    def test_moduli_are_ascii_digits(self, spec):
        with pytest.raises(ValueError, match="modulus must be an integer, got '"):
            parse_group_spec(spec)

    def test_labels(self):
        assert FiniteAbelianGroup((4, 2)).label() == "Z4 x Z2"
        assert FiniteAbelianGroup(()).label() == "Z1"
