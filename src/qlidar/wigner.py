"""Phase-space (Wigner) distribution of coherent superpositions.

One cross-term kernel serves both pure superpositions and reduced port-a
states, each a :class:`~qlidar.states.CoherentOperator` sum_ij C_ij |a_j><a_i|:
for the dyad |k><b| between coherent amplitudes the distribution is

    W(lam) = (2/pi) exp(-2(lam - k)(conj(lam) - conj(b))) <b|k>,

which integrates to <b|k> and reduces to the familiar Gaussian for k = b.
With lam = y1 + i y2 the exponent splits into a y1 part and a y2 part
(Cahill & Glauber, Phys. Rev. 177, 1882, 1969), so a grid is one sum over
the pairs with C_ij != 0 of an outer product of two thin factor arrays.
Completing the square gives each factor the real part -2(y - m)^2 about the
pair midpoint m = (k + b)/2, so nothing overflows at any amplitude.  A grid
must also resolve the fringes: the y1 factor oscillates at 2|Im(k - b)| and
the y2 factor at 2|Re(k - b)|, and a step at or above the Nyquist limit on
either axis is rejected, as is a grid above MAX_RESOLUTION points per axis.
Negativity anywhere certifies a nonclassical state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import CoherentOperator, SuperposedState, _overlap_exponent, _real_part, density_operator

WIGNER_BOUND = 2.0 / math.pi
BOUND_TOL = 1e-9
NEGLIGIBLE_COEFF = 1e-9  # pairs at or below this |C_ij| need no fringe sampling
MAX_RESOLUTION = 1001  # points per axis: 1e6 grid values, a 62 MB CSV that the CLI writes one row block at a time


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


def _evaluate(op: CoherentOperator, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    i, j = np.nonzero(op.coeffs)
    b, k = op.amplitudes[i], op.amplitudes[j]
    m, d = 0.5 * (k + b), k - b
    # pair term c exp(f(y1) + g(y2)): the real parts -2(y - m)^2 complete the square, so no factor exceeds 1
    phase = np.imag(_overlap_exponent(op.amplitudes)[i, j] - 2.0 * k * np.conj(b))
    f = np.exp(-2.0 * (y1[:, None] - m.real) ** 2 + 1j * (2.0 * d.imag * y1[:, None] + phase))
    g = np.exp(-2.0 * (y2[:, None] - m.imag) ** 2 - 2j * d.real * y2[:, None])
    # einsum without optimize makes no BLAS call, so values do not depend on the BLAS thread count
    total = np.einsum("ip,jp->ij", f * op.coeffs[i, j], g)
    return (2.0 / math.pi) * _real_part(total, "Wigner grid")


def wigner_point(state, lam: complex) -> float:
    """W at a single phase-space point lam = y1 + i y2."""
    lam = complex(lam)
    return float(_evaluate(_operator(state), np.array([lam.real]), np.array([lam.imag]))[0, 0])


def _min_resolution(op: CoherentOperator, y1_span: float, y2_span: float) -> int:
    """Fewest points per axis whose step lies below the Nyquist limit pi/omega of every fringe.

    The y1 factor of pair (b, k) oscillates at omega = 2|Im(k - b)| and the y2
    factor at 2|Re(k - b)|.  Pairs with |C_ij| <= NEGLIGIBLE_COEFF are left out:
    each pair term is bounded by |C_ij| in modulus, so they move no value by
    more than (2/pi) NEGLIGIBLE_COEFF.
    """
    d = (op.amplitudes[None, :] - op.amplitudes[:, None])[np.abs(op.coeffs) > NEGLIGIBLE_COEFF]
    omegas = 2.0 * np.max(np.abs(d.imag), initial=0.0), 2.0 * np.max(np.abs(d.real), initial=0.0)
    # step = span / (R - 1) < pi / omega holds first at R = floor(span omega / pi) + 2
    return max(math.floor(span * omega / math.pi) + 2 for span, omega in zip((y1_span, y2_span), omegas))


def default_window(state) -> float:
    """Half-width capturing every Gaussian lobe of the state to far below 1e-9."""
    return max(map(abs, _operator(state).amplitudes.tolist())) + 5.0


def wigner_grid(
    state,
    y1_range: tuple[float, float] | None = None,
    y2_range: tuple[float, float] | None = None,
    resolution: int = 201,
) -> WignerGrid:
    """Evaluate W on a uniform grid (default window covers all lobes).

    ValueError if the grid undersamples a fringe or exceeds MAX_RESOLUTION
    points per axis; both are checked before the grid is allocated.
    """
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [2, {MAX_RESOLUTION}] per axis")
    op = _operator(state)
    if y1_range is None or y2_range is None:
        half = default_window(op)
        y1_range = y1_range or (-half, half)
        y2_range = y2_range or (-half, half)
    for lo, hi in (y1_range, y2_range):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"phase-space range ({lo}, {hi}) must be finite and increasing")
    needed = _min_resolution(op, y1_range[1] - y1_range[0], y2_range[1] - y2_range[0])
    if needed > MAX_RESOLUTION:
        # a window narrower by (needed - 1) / (MAX_RESOLUTION - 2) brings the need within the cap
        factor = math.ceil(100 * (needed - 1) / (MAX_RESOLUTION - 2)) / 100
        raise ValueError(
            f"the interference fringes on this window need resolution {needed}, above the cap of "
            f"{MAX_RESOLUTION}; choose a window at least {factor:g} times narrower"
        )
    if resolution < needed:
        raise ValueError(
            f"resolution {resolution} undersamples the interference fringes on this window; "
            f"the smallest resolution that resolves them is {needed}"
        )
    y1 = np.linspace(y1_range[0], y1_range[1], resolution)
    y2 = np.linspace(y2_range[0], y2_range[1], resolution)
    values = _evaluate(op, y1, y2)
    peak = float(np.max(np.abs(values)))
    if not peak <= WIGNER_BOUND + BOUND_TOL:  # NaN fails it too
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
