import numpy as np
import pytest

import pseudosun as ps

# Reference parameter sets used across the suite (source and molecule of
# the shipped figure configs).
REF_PDC = ps.PdcParams(25000.0, 12000.0, 2.5, 0.15)
NARROW_PDC = ps.PdcParams(25000.0, 18001.0, 50.0, 0.11)
SOLAR = ps.ThermalParams(5777.0)
TWO_LEVEL = ps.MolecularSystem(((18000.0, 1.0), (18500.0, 1.0)))
ONE_LEVEL = ps.MolecularSystem(((18000.0, 1.0),))

DYN_GRID = ps.FrequencyGrid(1000.0, 25000.0, 8192)
TIMES_100 = ps.TimeGrid(0.0, 100.0, 2001)
AMP_REF = 12000.0


@pytest.fixture(scope="session")
def fig2_pdc_trajectory():
    spectrum = ps.mean_photon_number(DYN_GRID, REF_PDC)
    return ps.evolve_unconditional(TWO_LEVEL, spectrum, TIMES_100, amplitude_ref=AMP_REF)


@pytest.fixture(scope="session")
def fig2_blackbody_trajectory():
    spectrum = ps.thermal_mean(DYN_GRID, SOLAR)
    return ps.evolve_unconditional(TWO_LEVEL, spectrum, TIMES_100, amplitude_ref=AMP_REF)


def structural_checks(traj, heralded=False):
    """Criterion-8 invariants, applied to a normalized trajectory."""
    assert traj.hermiticity_defect() <= 1e-12
    assert traj.min_eigenvalue() >= -1e-10
    if heralded:
        assert traj.rank1_defect() < 1e-10
    return True


def rng(seed=20260810):
    return np.random.default_rng(seed)
