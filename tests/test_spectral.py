"""Spectral value curves: a full period sampled at m of its phases and resampled by FFT.

A period is open, ``periodic_phase_grid(P, start)``, or closed,
``np.linspace(start, start + 2 pi, P + 1)``, whose end point takes the first
value.  Against the four-mode reference of ``helpers.reference_curve``, every
value lies within the a-priori interpolation bound plus the rounding allowance
1e-13 (sum|w|)^2 that the scalar-against-curve property uses, and at coarser
sample counts the measured error stays within the bound too.  Where no sample
count below P passes, and on every grid that is not one period to the bit, the
curve is the direct kernel bit for bit, clipped to the observable's range;
``sample_curve`` keeps the raw direct kernel on a period.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_curve
from qlidar import detection, metrology
from qlidar.detection import Scheme
from qlidar.interferometer import _input_pairs
from qlidar.states import StateKind, make_state, vacuum

KINDS = [StateKind.CS, StateKind.ECSS, StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3]
# P odd (2187 = 3^7, 1001 = 7 11 13), P = 3000, and the 4096- and 8192-point grids of the CLI and the bench
COUNTS = [4096, 8192, 3000, 2187, 1001]


def _reference_values(sa, sb, scheme, phis, loss_r):
    """The values of ``reference_curve``, one curve chunk at a time."""
    chunk = detection.CURVE_CHUNK
    return np.concatenate([reference_curve(sa, sb, scheme, phis[lo : lo + chunk], loss_r)[0] for lo in range(0, len(phis), chunk)])


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def periods(draw):
    """Inputs, scheme, loss, an open or closed one-period grid and its period length P: energies up to |alpha|^2 = 51 and |zeta|^2 = 52, any start.

    From 0.5 up, the |alpha|^-j weights of the j != 0 states keep the reference's
    value and slope sums clear of the residue check (mps3 at 0.1 can trip it).
    """
    sa = make_state(draw(st.sampled_from(KINDS)), math.sqrt(draw(st.floats(0.5, 51.0))))
    second = draw(st.sampled_from([None, StateKind.CS, StateKind.MPS1]))
    sb = vacuum() if second is None else make_state(second, math.sqrt(draw(st.floats(0.5, 52.0))))
    start = draw(st.one_of(st.just(-math.pi), st.floats(-2.0 * math.pi, 2.0 * math.pi)))
    loss_r = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    n_phi = draw(st.sampled_from(COUNTS))
    if draw(st.booleans()):
        phis = np.linspace(start, start + detection.TWO_PI, n_phi + 1)
    else:
        phis = metrology.periodic_phase_grid(n_phi, start)
    return sa, sb, draw(st.sampled_from([Scheme.PARITY, Scheme.Z])), phis, loss_r, n_phi


@settings(deadline=None, max_examples=25)
@given(periods())
def test_spectral_curve_within_its_bound(case):
    sa, sb, scheme, phis, loss_r, n_phi = case
    w, amps_in = _input_pairs(sa, sb)
    m = detection._spectral_count(w, amps_in, scheme, loss_r, n_phi)
    weight = float(np.sum(np.abs(w))) ** 2
    rounding = 1e-13 * weight
    got = detection.expectation_curve(sa, sb, scheme, phis, loss_r)
    direct = detection.expectation_curve(sa, sb, scheme, phis, loss_r, direct=True)
    want = _reference_values(sa, sb, scheme, phis, loss_r)
    if m == n_phi:
        # the default curve clips to the observable's range; the energies drawn keep every Z above the floor
        assert got.tobytes() == direct.clip(-1.0 if scheme is Scheme.PARITY else 0.0, 1.0).tobytes()
        return
    if len(phis) > n_phi:
        assert got[-1] == got[0]
    counts = [d for d in _divisors(n_phi) if 1 < d <= m]
    bounds = np.exp(np.minimum(detection._interpolation_bounds(w, amps_in, scheme, loss_r, np.array(counts)), 700.0))
    assert bounds[-1] <= 2.0**-52 * weight
    assert np.max(np.abs(got - want)) <= bounds[-1] + rounding
    # the bound bounds the measured error also where it is far above one rounding step
    for coarse, bound in zip(counts[:-1], bounds[:-1]):
        resampled = detection._fourier_resample(direct[: n_phi : n_phi // coarse], n_phi)
        assert np.max(np.abs(resampled - want[:n_phi])) <= bound + rounding, coarse


@pytest.mark.parametrize(
    "kind, alpha2, zeta2, n_phi",
    [
        (StateKind.MPS1, 2.0, 0.0, 4099),  # a prime count: no divisor m < P besides 1 (closed: 4100 phases)
        (StateKind.MPS2, 51.0, 52.0, 64),  # the fringes need more samples than P
    ],
)
@pytest.mark.parametrize("loss_r", [0.0, 0.4])
@pytest.mark.parametrize("scheme", [Scheme.PARITY, Scheme.Z])
def test_no_sample_count_below_p_falls_back_to_direct(kind, alpha2, zeta2, n_phi, loss_r, scheme):
    sa = make_state(kind, math.sqrt(alpha2))
    sb = vacuum() if zeta2 == 0.0 else make_state(StateKind.CS, math.sqrt(zeta2))
    w, amps_in = _input_pairs(sa, sb)
    assert detection._spectral_count(w, amps_in, scheme, loss_r, n_phi) == n_phi
    for phis in (metrology.periodic_phase_grid(n_phi, 0.3), np.linspace(0.3, 0.3 + detection.TWO_PI, n_phi + 1)):
        got = detection.expectation_curve(sa, sb, scheme, phis, loss_r)
        assert got.tobytes() == detection.expectation_curve(sa, sb, scheme, phis, loss_r, direct=True).tobytes()


@pytest.mark.parametrize("m, n_phi", [(8, 64), (9, 63), (2, 6), (1, 5)])
def test_resample_reproduces_every_trigonometric_polynomial_it_can_hold(m, n_phi):
    start = 0.4
    coarse, fine = (metrology.periodic_phase_grid(count, start) - start for count in (m, n_phi))
    shapes = [np.cos, np.sin] * (m // 2 + 1)
    for k, shape in enumerate(shapes):
        harmonic = k // 2
        if 2 * harmonic > m or (2 * harmonic == m and shape is np.sin):
            continue  # beyond the band; at the Nyquist harmonic of even m only the cosine is held
        resampled = detection._fourier_resample(shape(harmonic * coarse), n_phi)
        assert np.max(np.abs(resampled - shape(harmonic * fine))) < 1e-14, (harmonic, shape.__name__)


def test_only_a_period_to_the_bit_is_sampled_spectrally(monkeypatch):
    sa, scheme = make_state(StateKind.MPS3, math.sqrt(2.0)), Scheme.PARITY
    period = metrology.periodic_phase_grid(1024)
    closed = np.linspace(-math.pi, math.pi, 1024)  # a closed period of 1023 = 3 11 31 phases
    nudged, end_off, second_off = period.copy(), closed.copy(), closed.copy()
    nudged[500] = np.nextafter(nudged[500], 4.0)
    end_off[-1] = np.nextafter(end_off[-1], 4.0)
    second_off[1] = np.nextafter(second_off[1], 4.0)
    grids = [period, closed, nudged, end_off, second_off, period[:-1]]
    kernel_points = []
    kernel = detection._curve_values
    monkeypatch.setattr(detection, "_curve_values", lambda w, u, *rest: kernel_points.append(u.shape[-1]) or kernel(w, u, *rest))
    for phis in grids:
        del kernel_points[:]
        got = detection.expectation_curve(sa, vacuum(), scheme, phis)
        assert got.shape == phis.shape
        if phis is period or phis is closed:
            assert sum(kernel_points) < 1023
            assert phis is period or got[-1] == got[0]
        else:
            assert kernel_points == [len(phis)]
            assert got.tobytes() == detection.expectation_curve(sa, vacuum(), scheme, phis, direct=True).tobytes()


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("loss_r", [0.0, 0.3])
def test_sample_curve_keeps_the_direct_kernel_on_a_period(kind, loss_r):
    sa, sb = make_state(kind, math.sqrt(2.0)), make_state(StateKind.CS, math.sqrt(2.0))
    for scheme in (Scheme.PARITY, Scheme.Z):
        phis = metrology.periodic_phase_grid(detection.CURVE_CHUNK, start=0.0)
        curve = metrology.sample_curve(sa, sb, scheme, phis=phis, loss_r=loss_r)
        assert curve.values.tobytes() == reference_curve(sa, sb, scheme, phis, loss_r)[0].tobytes()


def test_periodic_grid_has_one_definition():
    assert metrology.periodic_phase_grid is detection.periodic_phase_grid
    assert metrology.TWO_PI is detection.TWO_PI
