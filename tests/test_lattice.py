from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermion.lattice import EnergyGrid, FieldGrid, FockBasis, build_bases
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


def test_build_bases_rejects_odd_modes():
    with pytest.raises(ValueError):
        ModelParams(n_u=5)


def test_flat_index_convention():
    # flat = i + d j + d^2 n, left particle index i fastest; the bound state
    # and the vacuum come first, so the reference sits at flat index 0
    b = build_bases(ModelParams(n_e=2, n_u=4, n_max=2))
    d = b.left.dim
    t = b.as_tensor(np.arange(b.dim))
    for n in range(b.fock.dim):
        for j in range(d):
            for i in range(d):
                assert t[n, j, i] == i + d * j + d * d * n
    assert b.left.energies[0] == -1.0 and not any(b.fock.states[0])
    assert b.vacuum_bound_index() == t[0, 0, 0] == 0


def test_composite_diag_is_the_kron_sum_in_flat_order():
    # f x 1 x 1 + 1 x r x 1 + 1 x 1 x l, summed (f + l) + r bit for bit; a
    # scalar is that multiple of the identity
    b = build_bases(ModelParams(n_e=2, n_u=4, n_max=2))
    d = b.left.dim
    rng = np.random.default_rng(0)
    f, r, l = (rng.standard_normal(n) for n in (b.fock.dim, d, d))
    got = b.as_tensor(b.diag(f, r, l))
    for n in range(b.fock.dim):
        for j in range(d):
            for i in range(d):
                assert got[n, j, i] == (f[n] + l[i]) + r[j]
    assert np.array_equal(b.diag(f), np.kron(f, np.ones(d * d)))
    assert np.array_equal(b.diag(right=r, left=2.5), np.kron(
        np.ones(b.fock.dim), np.kron(r, np.ones(d)) + 2.5))
    assert b.diag().shape == (b.dim,) and not b.diag().any()
