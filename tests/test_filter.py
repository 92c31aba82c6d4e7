"""The exponential filter and its slot decomposition have one definition: a
path sampler and the Monte Carlo filter bank build the same slots and give
bitwise equal trajectories on the same increments."""

from fractions import Fraction

import numpy as np
import pytest

from snf import noise
from snf.mc import FilterBank
from snf.paths import NoisePath, PathSampler

F = Fraction
PHI = noise.phi_atom(0)
Z1 = noise.z_atom(F(-1), (PHI,))
Z2 = noise.z_atom(F(-2), (PHI,))

# atom, (driver kind, number of driver slots) of its bank slot
SLOTS = {
    "Z[-1]{phi}": (Z1, ("w", 0)),
    "Z[-2]{Z[-1]{phi}}": (noise.z_atom(F(-2), (Z1,)), ("prod", 1)),
    "Z[-1]{Z[-2]{phi}^2}": (noise.z_atom(F(-1), (Z2, Z2)), ("prod", 2)),
}


@pytest.mark.parametrize("dt", [1e-2, 2e-3])
@pytest.mark.parametrize("name", sorted(SLOTS))
def test_path_sample_is_the_filter_bank_trajectory(name, dt):
    atom, kind = SLOTS[name]
    path = NoisePath.generate(5.0, dt, seed=29, spin=0.0)
    bank = FilterBank()
    slot = bank.slot_for(atom)
    assert (bank.slots[slot].driver_kind, len(bank.slots[slot].driver_slots)) == kind
    bank.prepare(dt)
    # one replicate, the path's increments as (steps, n_noise, R)
    block = bank.step(bank.make_state(1), path.increments.T[:, :, None])
    got = np.concatenate(([0.0], block[:, slot, 0]))
    want = PathSampler(path).expr((atom,)).values
    assert got.tobytes() == want.tobytes()
    assert np.count_nonzero(want) == path.n_total


def path_slots(atoms):
    """The slots a path sampler builds for ``atoms``, taken in order."""
    sampler = PathSampler(NoisePath.generate(1.0, 1e-2, seed=3, spin=0.0))
    for atom in atoms:
        sampler.slot_for(atom)
    return sampler.slots.slots


@pytest.mark.parametrize("name", sorted(SLOTS))
def test_path_sampler_builds_the_filter_bank_slots(name):
    atom = SLOTS[name][0]
    bank = FilterBank()
    bank.slot_for(atom)
    assert path_slots([atom]) == bank.slots

