"""Session-wide fixtures: the expensive normalized states and profiles.

Everything here is deterministic, so sharing one instance across test
modules only trades memory for the minutes a rebuild would cost.
"""

import dataclasses

import pytest

from magbottle.analysis import bifurcation_energy, capture_remainder_profile
from magbottle.dynamics import OrbitState, integrate
from magbottle.model import (
    PotentialSpec,
    build_builtin_model,
    complexify_nonresonant,
    prepare_resonant,
)
from magbottle.normform import normalize


def truncated_view(state, r):
    """The state as it looked after only ``r`` normalization steps.

    Valid for transform pullbacks (which replay the generator list); the
    stored Hamiltonian still reflects the deeper run.
    """
    return dataclasses.replace(state, r=r, generators=state.generators[:r])


def jittered_builtin(rng):
    """The builtin model with each non-quadratic coefficient scaled by a
    factor in [0.95, 1.05] drawn from ``rng``."""
    return PotentialSpec(
        {
            key: c if key == (2, 0) else c * (1.0 + rng.uniform(-0.05, 0.05))
            for key, c in build_builtin_model().as_dict().items()
        }
    )


@pytest.fixture(scope="session")
def builtin():
    return build_builtin_model()


@pytest.fixture(scope="session")
def prep(builtin):
    return complexify_nonresonant(builtin)


@pytest.fixture(scope="session")
def nf5(prep):
    return normalize(prep, r_max=5, r_trunc=6)


@pytest.fixture(scope="session")
def nf8(prep):
    return normalize(prep, r_max=8, r_trunc=9)


@pytest.fixture(scope="session")
def nonres_profile(prep):
    return capture_remainder_profile(prep, N=20)


@pytest.fixture(scope="session")
def bif21(nf8):
    return bifurcation_energy(nf8, 2, 1)


@pytest.fixture(scope="session")
def res21_prep(builtin, bif21):
    return prepare_resonant(builtin, bif21)


@pytest.fixture(scope="session")
def res21_nf8(res21_prep):
    return normalize(res21_prep, r_max=8, r_trunc=10)


@pytest.fixture(scope="session")
def res21_profile(res21_prep):
    # about two minutes; used by the acceptance gate only
    return capture_remainder_profile(res21_prep, N=20)


@pytest.fixture(scope="session")
def drift_orbit():
    # the 1e4-unit orbit whose energy drift both criterion 7 and
    # test_energy_drift_stays_below_bound bound; 3-4 s to integrate on a
    # 2-core x86 host
    return integrate(OrbitState(0.9, 0.3, 0.2, 0.1), 1.0e4, tol=1e-12, n_samples=2001)
