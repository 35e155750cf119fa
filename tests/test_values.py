"""The public behaviour of the value classes: repr, equality, hashing,
keyword construction, immutability, copying and pickling."""

import copy
import pickle
from fractions import Fraction

import pytest

from signedflow import (
    Edge,
    FiniteAbelianGroup,
    Orientation,
    Poly,
    QuasiPolynomialFit,
    SignedGraph,
    delete_edge,
    fit_quasipolynomial,
    switch,
)

DIGON = SignedGraph(2, ((0, 1, 1), (0, 1, -1)))


class TestSignedGraph:
    def test_repr(self):
        assert repr(SignedGraph(2, ((0, 1, 1),))) == (
            "SignedGraph(num_vertices=2, edges=(Edge(u=0, v=1, sign=1),))"
        )
        assert repr(SignedGraph(0)) == "SignedGraph(num_vertices=0, edges=())"

    def test_keyword_and_default_construction(self):
        assert SignedGraph(num_vertices=2, edges=((0, 1, 1), (0, 1, -1))) == DIGON
        assert SignedGraph(2).edges == ()
        assert SignedGraph(2) == SignedGraph(2, ())

    def test_edges_become_edge_tuples(self):
        assert DIGON.edges == (Edge(0, 1, 1), Edge(0, 1, -1))
        assert all(type(e) is Edge for e in SignedGraph(2, [[0, 1, 1]]).edges)

    def test_equality_and_hash(self):
        same = SignedGraph.from_edges(2, [(0, 1, 1), (0, 1, -1)])
        assert same == DIGON and hash(same) == hash(DIGON)
        assert SignedGraph(2, ((0, 1, -1), (0, 1, 1))) != DIGON
        assert SignedGraph(3, DIGON.edges) != DIGON
        assert DIGON != (2, DIGON.edges)
        assert {DIGON: 1}[same] == 1

    def test_derived_graphs_equal_constructed_ones(self):
        h = delete_edge(DIGON, 1)
        assert h == SignedGraph(2, ((0, 1, 1),)) and hash(h) == hash(SignedGraph(2, ((0, 1, 1),)))
        assert repr(switch(DIGON, {0})) == (
            "SignedGraph(num_vertices=2, edges=(Edge(u=0, v=1, sign=-1), Edge(u=0, v=1, sign=1)))"
        )

    @pytest.mark.parametrize("name", ["num_vertices", "edges", "other"])
    def test_frozen(self, name):
        for graph in (DIGON, delete_edge(DIGON, 0)):
            with pytest.raises(AttributeError):
                setattr(graph, name, 1)

    def test_copy_and_pickle(self):
        for clone in (copy.copy(DIGON), copy.deepcopy(DIGON), pickle.loads(pickle.dumps(DIGON))):
            assert clone == DIGON and repr(clone) == repr(DIGON)

    @pytest.mark.parametrize("name", ["num_vertices", "edges"])
    def test_del_refused(self, name):
        graph = SignedGraph(2, DIGON.edges)
        with pytest.raises(AttributeError):
            delattr(graph, name)
        assert graph == DIGON and hash(graph) == hash(DIGON)


class TestOrientation:
    def test_repr(self):
        assert repr(Orientation(((-1, 1),))) == "Orientation(taus=((-1, 1),))"

    def test_keyword_construction_and_tuples(self):
        o = Orientation(taus=[[-1, 1], [1, 1]])
        assert o.taus == ((-1, 1), (1, 1))
        assert o == Orientation(((-1, 1), (1, 1)))

    def test_equality_and_hash(self):
        a, b = Orientation(((-1, 1),)), Orientation(((-1, 1),))
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert a != Orientation(((1, -1),))
        assert a != ((-1, 1),)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Orientation(((-1, 1),)).taus = ()

    def test_copy_and_pickle(self):
        o = Orientation(((-1, 1), (1, 1)))
        for clone in (copy.copy(o), copy.deepcopy(o), pickle.loads(pickle.dumps(o))):
            assert clone == o

    def test_del_refused(self):
        o = Orientation(((-1, 1),))
        with pytest.raises(AttributeError):
            del o.taus
        assert o.taus == ((-1, 1),)


class TestFiniteAbelianGroup:
    def test_repr(self):
        assert repr(FiniteAbelianGroup((4, 2))) == "FiniteAbelianGroup(moduli=(4, 2))"
        assert repr(FiniteAbelianGroup(())) == "FiniteAbelianGroup(moduli=())"

    def test_keyword_construction_and_tuples(self):
        z = FiniteAbelianGroup(moduli=[4, 2])
        assert z.moduli == (4, 2) and z == FiniteAbelianGroup((4, 2))

    def test_equality_and_hash(self):
        counts = {FiniteAbelianGroup((4,)): 3, FiniteAbelianGroup((2, 2)): 5}
        assert counts[FiniteAbelianGroup((4,))] == 3
        assert counts[FiniteAbelianGroup((2, 2))] == 5
        assert FiniteAbelianGroup((6,)) != FiniteAbelianGroup((2, 3))
        assert FiniteAbelianGroup((4,)) != (4,)
        assert hash(FiniteAbelianGroup((4, 2))) == hash(FiniteAbelianGroup([4, 2]))

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FiniteAbelianGroup((4,)).moduli = (2,)

    def test_copy_and_pickle(self):
        z = FiniteAbelianGroup((4, 2))
        for clone in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
            assert clone == z and clone.order == 8

    def test_del_refused(self):
        z = FiniteAbelianGroup((4, 2))
        with pytest.raises(AttributeError):
            del z.moduli
        assert z.order == 8


class TestQuasiPolynomialFit:
    def test_repr(self):
        fit = QuasiPolynomialFit(Poly((1, 2)), Poly(()), True, (1, 8))
        assert repr(fit) == (
            "QuasiPolynomialFit(p_even=Poly([1, 2]), p_odd=Poly([]), validated=True, "
            "sample_range=(1, 8))"
        )

    def test_keyword_construction_and_equality(self):
        fit = fit_quasipolynomial([(n, n - 1) for n in range(1, 9)])
        assert fit == QuasiPolynomialFit(
            p_even=Poly((-1, 1)), p_odd=Poly((-1, 1)), validated=True, sample_range=(1, 8)
        )
        assert fit != QuasiPolynomialFit(Poly((-1, 1)), Poly((-1, 1)), False, (1, 8))
        assert fit.polynomial_for(3) == Poly((-1, 1))

    def test_mutable_and_unhashable(self):
        fit = QuasiPolynomialFit(Poly((1,)), Poly((1,)), True, (1, 8))
        fit.validated = False
        assert not fit.validated
        with pytest.raises(TypeError):
            hash(fit)

    def test_deepcopy_and_pickle(self):
        fit = fit_quasipolynomial([(n, n * n // 2) for n in range(1, 9)])
        for clone in (copy.deepcopy(fit), pickle.loads(pickle.dumps(fit))):
            assert clone == fit and repr(clone) == repr(fit)


class TestPoly:
    def test_repr(self):
        assert repr(Poly([1, 2])) == "Poly([1, 2])"
        assert repr(Poly((0, 0))) == "Poly([])"

    def test_equality_and_hash(self):
        a, b = Poly([1, 2]), Poly((1, 2, 0))
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert a != Poly([2, 1])
        assert Poly([1]) != (1,)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Poly([1, 2]).coeffs = (3,)

    def test_del_refused(self):
        p = Poly([1, 2])
        with pytest.raises(AttributeError):
            del p.coeffs
        assert p.coeffs == (1, 2)

    def test_copy_and_pickle(self):
        p = Poly([1, Fraction(1, 2)])
        for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert clone == p and repr(clone) == repr(p)
