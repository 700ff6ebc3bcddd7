import numpy as np
import pytest
import scipy.linalg as sla

from smhd.core import (PRESSURE, FrontGeometry, PhysParams, State, fluxes, normal_speeds,
                       quasilinear_matrices)
from smhd.elastic import (ElasticState, elastic_fluxes, elastic_quasilinear_matrices,
                          embed_elastodynamics)
from smhd.errors import NonPositiveHeight

from conftest import random_state


def test_unit_mapping():
    es = embed_elastodynamics(State(h=1.0, v=[0, 0], B=[0, 0]), PhysParams(g=2.0))
    assert es.rho == 1.0
    assert es.eos_A == 1.0
    assert es.eos_gamma == 2.0
    assert es.pressure == 1.0
    assert np.array_equal(es.F2, [0.0, 0.0])


def test_fluxes_agree_on_slice(rng):
    p = PhysParams(g=1.3)
    for _ in range(500):
        u = random_state(rng)
        es = embed_elastodynamics(u, p)
        f1, f2 = fluxes(u, p)
        e1, e2 = elastic_fluxes(es)
        assert np.max(np.abs(f1 - e1[:5])) < 1e-12
        assert np.max(np.abs(f2 - e2[:5])) < 1e-12
        # the dropped deformation-column rows carry nothing
        assert np.max(np.abs(e1[5:])) == 0.0
        assert np.max(np.abs(e2[5:])) == 0.0


def test_matrices_reproduce_pressure_form(rng):
    p = PhysParams(g=0.8)
    for _ in range(200):
        u = random_state(rng)
        a0e, a1e, a2e = elastic_quasilinear_matrices(embed_elastodynamics(u, p))
        a0, a1, a2 = quasilinear_matrices(u, p, PRESSURE)
        assert np.array_equal(a0e[:5, :5], a0)
        assert np.array_equal(a1e[:5, :5], a1)
        assert np.array_equal(a2e[:5, :5], a2)


def test_speeds_agree(rng):
    p = PhysParams(g=1.0)
    for _ in range(300):
        u = random_state(rng)
        s = rng.uniform(-2, 2)
        a0e, a1e, a2e = elastic_quasilinear_matrices(embed_elastodynamics(u, p))
        lam = np.sort(sla.eigh(a1e[:5, :5] - s * a2e[:5, :5], a0e[:5, :5], eigvals_only=True))
        cf = normal_speeds(u, p, FrontGeometry(slope=s).normal)
        assert np.max(np.abs(lam - cf)) < 1e-10


def test_full_system_symmetric(rng):
    p = PhysParams(g=1.0)
    u = random_state(rng)
    es = embed_elastodynamics(u, p)
    for m in elastic_quasilinear_matrices(es):
        assert np.array_equal(m, m.T)


def test_nonpositive_density_rejected():
    for rho in (0.0, -1.0):
        with pytest.raises(NonPositiveHeight, match="density must be positive"):
            ElasticState(rho=rho, v=[0.0, 0.0], F1=[1.0, 0.0], F2=[0.0, 1.0], eos_A=0.5,
                         eos_gamma=2.0)
