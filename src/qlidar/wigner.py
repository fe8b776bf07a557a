"""Phase-space (Wigner) distribution of coherent superpositions.

One cross-term kernel serves both pure superpositions and reduced port-a
states, each a :class:`~qlidar.states.CoherentOperator` sum_ij C_ij |a_j><a_i|:
for the dyad |k><b| between coherent amplitudes the distribution is

    W(lam) = (2/pi) exp(-2(lam - k)(conj(lam) - conj(b))) <b|k>,

which integrates to <b|k> and reduces to the familiar Gaussian for k = b.
Dyad sums are evaluated pointwise, one (i, j) pair at a time; negativity
anywhere certifies a nonclassical state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import CoherentOperator, SuperposedState, density_operator

WIGNER_BOUND = 2.0 / math.pi
BOUND_TOL = 1e-9
IMAG_RESIDUE_TOL = 1e-12


@dataclass(frozen=True)
class WignerGrid:
    """Sampled distribution on a rectangular phase-space grid."""

    y1_axis: np.ndarray
    y2_axis: np.ndarray
    values: np.ndarray  # values[i, j] = W(y1_axis[i] + 1j * y2_axis[j])
    cell_area: float

    @property
    def integral(self) -> float:
        return float(np.sum(self.values) * self.cell_area)


@dataclass(frozen=True)
class NegativitySummary:
    min_value: float
    min_location: tuple[float, float]
    negative_volume: float


def _operator(state) -> CoherentOperator:
    if isinstance(state, CoherentOperator):
        return state
    if isinstance(state, SuperposedState):
        return density_operator(state)
    raise TypeError("expected a SuperposedState or CoherentOperator")


def _evaluate(op: CoherentOperator, lam: np.ndarray) -> np.ndarray:
    total = np.zeros(lam.shape, dtype=complex)
    amps = op.amplitudes.tolist()
    for i, b in enumerate(amps):
        for j, k in enumerate(amps):
            c = complex(op.coeffs[i, j])
            if c == 0:
                continue
            exponent = (
                -2.0 * lam * np.conj(lam)
                + 2.0 * np.conj(lam) * k
                + 2.0 * lam * np.conj(b)
                - 0.5 * (abs(k) ** 2 + abs(b) ** 2)
                - np.conj(b) * k
            )
            total += c * np.exp(exponent)
    residue = float(np.max(np.abs(total.imag)))
    if residue > IMAG_RESIDUE_TOL * max(1.0, float(np.max(np.abs(total.real)))):
        raise ArithmeticError(f"Wigner values have imaginary residue {residue:.3e}")
    return (2.0 / math.pi) * total.real


def wigner_point(state, lam: complex) -> float:
    """W at a single phase-space point lam = y1 + i y2."""
    return float(_evaluate(_operator(state), np.array(complex(lam))))


def default_window(state) -> float:
    """Half-width capturing every Gaussian lobe of the state to far below 1e-9."""
    return max(map(abs, _operator(state).amplitudes.tolist())) + 5.0


def wigner_grid(
    state,
    y1_range: tuple[float, float] | None = None,
    y2_range: tuple[float, float] | None = None,
    resolution: int = 201,
) -> WignerGrid:
    """Evaluate W on a uniform grid (default window covers all lobes)."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    if y1_range is None or y2_range is None:
        half = default_window(state)
        y1_range = y1_range or (-half, half)
        y2_range = y2_range or (-half, half)
    for lo, hi in (y1_range, y2_range):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"phase-space range ({lo}, {hi}) must be finite and increasing")
    y1 = np.linspace(y1_range[0], y1_range[1], resolution)
    y2 = np.linspace(y2_range[0], y2_range[1], resolution)
    lam = y1[:, None] + 1j * y2[None, :]
    values = _evaluate(_operator(state), lam)
    peak = float(np.max(np.abs(values)))
    if peak > WIGNER_BOUND + BOUND_TOL:
        raise ArithmeticError(f"Wigner magnitude {peak:.6f} exceeds 2/pi")
    cell = (y1[1] - y1[0]) * (y2[1] - y2[0])
    return WignerGrid(y1_axis=y1, y2_axis=y2, values=values, cell_area=cell)


def negativity_summary(grid: WignerGrid) -> NegativitySummary:
    """Minimum value, its location, and the integrated negative volume."""
    idx = np.unravel_index(np.argmin(grid.values), grid.values.shape)
    min_value = float(grid.values[idx])
    location = (float(grid.y1_axis[idx[0]]), float(grid.y2_axis[idx[1]]))
    negative = grid.values[grid.values < 0.0]
    return NegativitySummary(
        min_value=min_value,
        min_location=location,
        negative_volume=float(-np.sum(negative) * grid.cell_area),
    )
