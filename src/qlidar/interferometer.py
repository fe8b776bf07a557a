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
from dataclasses import dataclass

import numpy as np

from .states import SuperposedState


def _check_phase(phi):
    """Return ``phi`` (a phase or an array of phases) unless some value is not finite."""
    finite = math.isfinite(phi) if isinstance(phi, float) else np.all(np.isfinite(phi))
    if not finite:
        raise ValueError("phi must be finite")
    return phi


@dataclass(frozen=True)
class MziConfig:
    """Phase shift plus the shared loss splitting of both arms.

    ``loss_t`` follows from ``loss_r`` so that loss_t^2 + loss_r^2 = 1.
    """

    phi: float
    loss_r: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "phi", _check_phase(float(self.phi)))
        object.__setattr__(self, "loss_r", float(self.loss_r))
        if not 0.0 <= self.loss_r <= 1.0:
            raise ValueError(f"loss_r must lie in [0, 1], got {self.loss_r}")

    @property
    def loss_t(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.loss_r**2))

    @classmethod
    def lossless(cls, phi: float) -> "MziConfig":
        return cls(phi=phi, loss_r=0.0)


def mode_transform(phi, loss_r: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """4x2 amplitude transfer matrix of the full interferometer and its phi derivative.

    Columns act on the input amplitudes (port a, port b); rows give the output
    amplitudes at (port a, port b, env a, env b).  Both 50:50 splitters use
    the i-on-reflection convention, the phase e^{i phi} sits in arm a, and the
    loss splitters act after it.  The matrix is an isometry: photon number is
    conserved across the four modes.  For an array of P phases both results
    have shape (4, 2, P).
    """
    t = math.sqrt(max(0.0, 1.0 - loss_r**2))
    half = np.exp(0.5j * phi)
    full = np.exp(1j * phi)
    theta = 1j * t * half * np.sin(0.5 * phi)  # arm interference, sine part
    sigma = 1j * t * half * np.cos(0.5 * phi)  # arm interference, cosine part
    rbar = 1j * loss_r / math.sqrt(2.0)
    dtheta = 0.5j * t * full
    dsigma = -0.5 * t * full
    matrix = np.empty((4, 2) + np.shape(phi), dtype=complex)
    derivative = np.zeros_like(matrix)
    matrix[0, 0], matrix[0, 1], derivative[0, 0], derivative[0, 1] = theta, sigma, dtheta, dsigma
    matrix[1, 0], matrix[1, 1], derivative[1, 0], derivative[1, 1] = sigma, -theta, dsigma, -dtheta
    matrix[2, 0], matrix[2, 1] = rbar * full, 1j * rbar * full
    derivative[2, 0], derivative[2, 1] = 1j * rbar * full, -rbar * full
    matrix[3, 0], matrix[3, 1] = 1j * rbar, rbar
    return matrix, derivative


@dataclass(frozen=True)
class FourModeOutput:
    """Output superposition over (port a, port b, env a, env b).

    ``weights`` has shape (K,) and ``amplitudes`` shape (K, 4): term k is the
    coherent product with mode amplitudes ``amplitudes[k]`` and weight
    ``weights[k]``.
    """

    weights: np.ndarray
    amplitudes: np.ndarray
    config: MziConfig


def _input_pairs(state_a: SuperposedState, state_b: SuperposedState) -> tuple[np.ndarray, np.ndarray]:
    """Weights (K,) and amplitude pairs (K, 2) of the product input, K = len(a) * len(b).

    Pair k = i * len(b) + j holds the a term i and the b term j.
    """
    if not (state_a.normalized and state_b.normalized):
        raise ValueError("input states must be normalized")
    amps_in = np.empty((len(state_a.weights), len(state_b.weights), 2), dtype=complex)
    amps_in[..., 0] = state_a.amplitudes[:, None]
    amps_in[..., 1] = state_b.amplitudes[None, :]
    return np.multiply.outer(state_a.weights, state_b.weights).ravel(), amps_in.reshape(-1, 2)


def propagate(state_a: SuperposedState, state_b: SuperposedState, config: MziConfig) -> FourModeOutput:
    """Send a product of two superpositions through the interferometer.

    The output has len(a) * len(b) terms; each term's four amplitudes are the
    transfer matrix applied to the input amplitude pair, weights multiply.
    """
    return _output(*_input_pairs(state_a, state_b), config)


def _output(weights: np.ndarray, amps_in: np.ndarray, config: MziConfig) -> FourModeOutput:
    """The transfer matrix applied to each (K, 2) input pair; weights pass through."""
    return FourModeOutput(weights, amps_in @ mode_transform(config.phi, config.loss_r)[0].T, config)
