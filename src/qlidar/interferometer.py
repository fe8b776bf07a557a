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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .states import SuperposedState

LOSS_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class MziConfig:
    """Phase shift plus the shared loss splitting of both arms.

    ``loss_t`` may be omitted; it is then derived from ``loss_r`` so that
    loss_t^2 + loss_r^2 = 1.
    """

    phi: float
    loss_r: float = 0.0
    loss_t: float = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "loss_r", float(self.loss_r))
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if not 0.0 <= self.loss_r <= 1.0:
            raise ValueError(f"loss_r must lie in [0, 1], got {self.loss_r}")
        if self.loss_t is None:
            object.__setattr__(self, "loss_t", math.sqrt(max(0.0, 1.0 - self.loss_r**2)))
        else:
            object.__setattr__(self, "loss_t", float(self.loss_t))
        if not 0.0 <= self.loss_t <= 1.0:
            raise ValueError(f"loss_t must lie in [0, 1], got {self.loss_t}")
        if abs(self.loss_t**2 + self.loss_r**2 - 1.0) > LOSS_UNITARITY_TOL:
            raise ValueError("loss_t^2 + loss_r^2 must equal 1")

    @classmethod
    def lossless(cls, phi: float) -> "MziConfig":
        return cls(phi=phi, loss_r=0.0)


def mode_transform(config: MziConfig) -> np.ndarray:
    """4x2 amplitude transfer matrix of the full interferometer.

    Columns act on the input amplitudes (port a, port b); rows give the output
    amplitudes at (port a, port b, env a, env b).  Both 50:50 splitters use
    the i-on-reflection convention, the phase e^{i phi} sits in arm a, and the
    loss splitters act after it.  The matrix is an isometry: photon number is
    conserved across the four modes.
    """
    phi = config.phi
    t, r = config.loss_t, config.loss_r
    half = cmath.exp(0.5j * phi)
    theta = 1j * t * half * math.sin(0.5 * phi)  # arm interference, sine part
    sigma = 1j * t * half * math.cos(0.5 * phi)  # arm interference, cosine part
    rbar = 1j * r / math.sqrt(2.0)
    full = cmath.exp(1j * phi)
    return np.array(
        [
            [theta, sigma],
            [sigma, -theta],
            [rbar * full, 1j * rbar * full],
            [1j * rbar, rbar],
        ],
        dtype=complex,
    )


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


def _input_pairs(state_a: SuperposedState, state_b: SuperposedState):
    if not (state_a.normalized and state_b.normalized):
        raise ValueError("propagate requires normalized input states")
    weights = []
    amps_in = []
    for ta in state_a.terms:
        for tb in state_b.terms:
            weights.append(ta.weight * tb.weight)
            amps_in.append((ta.amplitude, tb.amplitude))
    return np.array(weights, dtype=complex), np.array(amps_in, dtype=complex)


def propagate(state_a: SuperposedState, state_b: SuperposedState, config: MziConfig) -> FourModeOutput:
    """Send a product of two superpositions through the interferometer.

    The output has len(a) * len(b) terms; each term's four amplitudes are the
    transfer matrix applied to the input amplitude pair, weights multiply.
    """
    weights, amps_in = _input_pairs(state_a, state_b)
    return FourModeOutput(weights, amps_in @ mode_transform(config).T, config)
