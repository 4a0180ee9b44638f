from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermion.lattice import (CompositeBasis, EnergyGrid, FieldGrid,
                              FockBasis, ParticleBasis, build_bases)
from thermion.params import ModelParams


def test_energy_grid_midpoint_nodes():
    g = EnergyGrid(e_max=2.0, n_e=2)
    assert np.allclose(g.nodes, [0.5, 1.5])
    assert g.weight == 1.0
    assert np.all(g.nodes > 0)
    assert np.all(np.diff(g.nodes) > 0)


def test_field_grid_symmetric_nodes():
    g = FieldGrid(u_max=2.0, n_u=4)
    assert np.allclose(g.nodes, [-1.5, -0.5, 0.5, 1.5])
    assert np.allclose(np.sort(-g.nodes), g.nodes)
    assert 0.0 not in g.nodes


def test_field_grid_reflection_is_involution():
    g = FieldGrid(u_max=3.0, n_u=10)
    r = g.reflection
    assert np.allclose(g.nodes[r], -g.nodes)
    assert np.array_equal(r[r], np.arange(g.n_u))


def test_field_grid_rejects_odd_count():
    with pytest.raises(ValueError):
        FieldGrid(u_max=1.0, n_u=3)


def test_fock_dimension_matches_enumeration():
    # brute-force enumeration oracle: 4 modes, <=2 bosons: 1 + 4 + 10
    fb = FockBasis(FieldGrid(2.0, 4), n_max=2)
    assert fb.dim == 15
    assert fb.dim == sum(comb(4 + n - 1, n) for n in range(3))
    assert fb.states[0] == (0, 0, 0, 0)


@given(n_u=st.integers(2, 8).map(lambda k: 2 * k), n_max=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_fock_dimension_formula(n_u, n_max):
    fb = FockBasis(FieldGrid(1.0, n_u), n_max=n_max)
    assert fb.dim == sum(comb(n_u + n - 1, n) for n in range(n_max + 1))


def test_particle_basis_rejects_positive_energy():
    with pytest.raises(ValueError):
        ParticleBasis(0.5, EnergyGrid(1.0, 2))


def test_build_bases_rejects_odd_modes():
    with pytest.raises(ValueError):
        ModelParams(n_u=5)


def test_flat_index_convention():
    b = build_bases(ModelParams(n_e=2, n_u=4, n_max=2))
    dp = b.dim_p
    for i in range(b.left.dim):
        for j in range(b.right.dim):
            for n in range(b.fock.dim):
                assert b.flatten(i, j, n) == i + dp * j + dp * dp * n


def test_flatten_round_trip_exhaustive():
    b = build_bases(ModelParams(n_e=2, n_u=4, n_max=1))
    dp = b.dim_p
    assert b.flatten(0, 0, 0) == 0
    for flat in range(b.dim):
        i, j, n = flat % dp, (flat // dp) % dp, flat // (dp * dp)
        assert b.flatten(i, j, n) == flat


def test_flatten_rejects_out_of_range():
    b = build_bases(ModelParams(n_e=2, n_u=4, n_max=1))
    with pytest.raises(IndexError, match="left"):
        b.flatten(99, 0, 0)
    with pytest.raises(IndexError, match="Fock"):
        b.flatten(0, 0, 10 ** 6)

