"""Lossy Mach-Zehnder propagation of coherent superpositions.

The interferometer is two balanced beam splitters around a phase shifter in
arm a, with photon loss modeled by one fictitious beam splitter per arm
(identical transmissivity/reflectivity) placed after the phase shifter.
Because every element is passive linear optics, a product of coherent states
maps to a product of coherent states; a superposition input therefore maps
term by term through a single 4x2 amplitude transfer matrix onto the four
modes (port a, port b, environment of arm a, environment of arm b).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .states import SuperposedState


def _check_phase(phi):
    """Return a float ``phi``, or other phases as a float array of at most one axis, unless some value is not finite."""
    if not isinstance(phi, float):
        phi = np.asarray(phi, dtype=float)
        if phi.ndim > 1:
            raise ValueError(f"phases must be a float or a 1-D array, got shape {phi.shape}")
    if not (math.isfinite(phi) if isinstance(phi, float) else np.isfinite(phi).all()):
        raise ValueError("phi must be finite")
    return phi


def _check_loss(loss_r) -> float:
    """Return ``loss_r`` as a float unless it lies outside [0, 1) or is NaN.

    The package's one loss guard: total loss (r = 1) leaves no fringe to measure.
    """
    loss_r = float(loss_r)
    if not 0.0 <= loss_r < 1.0:
        raise ValueError(f"loss_r must lie in [0, 1), got {loss_r}")
    return loss_r


def _check_cutoff(cutoff) -> int:
    """Return ``cutoff`` as an int unless it is not a nonnegative integer: the highest photon number kept."""
    if not isinstance(cutoff, numbers.Integral) or cutoff < 0:
        raise ValueError(f"cutoff must be a nonnegative integer, got {cutoff!r}")
    return int(cutoff)


@dataclass(frozen=True)
class MziConfig:
    """Phase shift plus the shared loss splitting of both arms.

    ``loss_t`` follows from ``loss_r`` so that loss_t^2 + loss_r^2 = 1.
    """

    phi: float
    loss_r: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "phi", _check_phase(float(self.phi)))
        object.__setattr__(self, "loss_r", _check_loss(self.loss_r))

    @property
    def loss_t(self) -> float:
        return math.sqrt(1.0 - self.loss_r**2)


def _transfer_matrix(phi, loss_r: float, with_derivative: bool = False):
    """4x2 amplitude transfer matrix of the full interferometer; shape (4, 2, P) for an array of P phases.

    Columns act on the input amplitudes (port a, port b); rows give the output
    amplitudes at (port a, port b, env a, env b).  Both 50:50 splitters use
    the i-on-reflection convention, the phase e^{i phi} sits in arm a, and the
    loss splitters act after it.  The matrix is an isometry: photon number is
    conserved across the four modes.  With ``with_derivative`` the result is
    the pair (matrix, its phi derivative).
    """
    t = math.sqrt(1.0 - loss_r**2)
    half = np.exp(0.5j * phi)
    full = np.exp(1j * phi)
    theta = 1j * t * half * np.sin(0.5 * phi)  # arm interference, sine part
    sigma = 1j * t * half * np.cos(0.5 * phi)  # arm interference, cosine part
    rbar = 1j * loss_r / math.sqrt(2.0)
    matrix = np.empty((4, 2) + np.shape(phi), dtype=complex)
    matrix[0, 0], matrix[0, 1] = theta, sigma
    matrix[1, 0], matrix[1, 1] = sigma, -theta
    matrix[2, 0], matrix[2, 1] = rbar * full, 1j * rbar * full
    matrix[3, 0], matrix[3, 1] = 1j * rbar, rbar
    if not with_derivative:
        return matrix
    dtheta = 0.5j * t * full
    dsigma = -0.5 * t * full
    derivative = np.zeros_like(matrix)
    derivative[0, 0], derivative[0, 1] = dtheta, dsigma
    derivative[1, 0], derivative[1, 1] = dsigma, -dtheta
    derivative[2, 0], derivative[2, 1] = 1j * rbar * full, -rbar * full
    return matrix, derivative


def mode_transform(phi, loss_r: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The 4x2 transfer matrix of :func:`_transfer_matrix` and its phi derivative, both (4, 2, P) over P phases."""
    return _transfer_matrix(phi, loss_r, with_derivative=True)


@dataclass(frozen=True)
class FourModeOutput:
    """Output superposition over (port a, port b, env a, env b) at the loss reflectivity ``loss_r``.

    ``weights`` has shape (K,) and ``amplitudes`` shape (K, 4), or (P, K, 4)
    with a leading axis over P phases: term k is the coherent product with
    mode amplitudes ``amplitudes[..., k, :]`` and weight ``weights[k]``.
    """

    weights: np.ndarray
    amplitudes: np.ndarray
    loss_r: float


def _input_pairs(state_a: SuperposedState, state_b: SuperposedState) -> tuple[np.ndarray, np.ndarray]:
    """Weights (K,) and amplitude pairs (K, 2) of the product input, K = len(a) * len(b).

    Pair k = i * len(b) + j holds the a term i and the b term j.
    """
    amps_in = np.empty((len(state_a.weights), len(state_b.weights), 2), dtype=complex)
    amps_in[..., 0] = state_a.amplitudes[:, None]
    amps_in[..., 1] = state_b.amplitudes[None, :]
    return np.multiply.outer(state_a.weights, state_b.weights).ravel(), amps_in.reshape(-1, 2)


def propagate(state_a: SuperposedState, state_b: SuperposedState, config: MziConfig) -> FourModeOutput:
    """Send a product of two superpositions through the interferometer.

    The output has len(a) * len(b) terms; each term's four amplitudes are the
    transfer matrix applied to the input amplitude pair, weights multiply.
    """
    return _output(*_input_pairs(state_a, state_b), config.phi, config.loss_r)


def _output(weights: np.ndarray, amps_in: np.ndarray, phi, loss_r: float) -> FourModeOutput:
    """The transfer matrix at phi, a float or a 1-D array of P phases, applied to each (K, 2) input pair.

    Each phase is the one-phase matrix product over its own contiguous (4, 2)
    block, so its amplitudes are bit-identical to the one-phase call.
    """
    matrix = _transfer_matrix(phi, loss_r)
    if matrix.ndim == 3:
        matrix = np.ascontiguousarray(matrix.transpose(2, 0, 1))
    return FourModeOutput(weights, amps_in @ matrix.swapaxes(-1, -2), loss_r)
