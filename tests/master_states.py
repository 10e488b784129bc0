"""The complex joint states of a master trajectory, rebuilt from its real
coordinates: the reference that tests read the coordinates through."""

import numpy as np


def complex_form(real, diagonal):
    """vec(rho)[idx] from real coordinates (..., |idx|) in _reachable_block
    order, by slices: d and x fill the real parts, y the imaginary parts of
    the upper entries, and the lower entries are their exact conjugates."""
    end = (real.shape[-1] + diagonal) // 2
    out = np.empty(real.shape, dtype=complex)
    out[..., :end] = real[..., :end]
    out.imag[..., diagonal:end] = real[..., end:]
    np.conjugate(out[..., diagonal:end], out=out[..., end:])
    return out


def states(traj):
    """vec(rho)[traj.support] at every grid point of a master trajectory."""
    return complex_form(traj.coords, traj._diagonal)
