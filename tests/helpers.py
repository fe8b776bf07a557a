"""Reference quantities that only the tests need.

Bookkeeping sums over the four-mode output, the even/odd split of the parity
signal, the dense triangular-basis form of the Fock splitter, the
cell-by-cell row writer that the CLI's column writer must reproduce, the
pointwise Wigner sum that the separable grid kernel must reproduce, the
loop forms of the splitter blocks, the Fock encoding and P(n) that the array
forms must reproduce, the pair sums over all four output modes that the
engine, which skips the vacuum loss environments at zero loss, must reproduce
bit for bit, and the one-search-at-a-time golden-section, crossing walk and
bisection refinements whose widths and peak positions the lockstep searches
must reproduce exactly.
"""

import json
import math

import numpy as np

from qlidar import detection
from qlidar import metrology as met
from qlidar import fock_oracle as fo
from qlidar.detection import Scheme
from qlidar.interferometer import FourModeOutput, _input_pairs, mode_transform, propagate
from qlidar.states import IMAG_RESIDUE_TOL, _overlap_exponent, _real_part


def _output_gram(out: FourModeOutput) -> np.ndarray:
    """Pair matrix prod_m <u_i[m]|u_j[m]> over all four output modes."""
    total = np.ones((len(out.weights), len(out.weights)), dtype=complex)
    for m in range(4):
        u = out.amplitudes[:, m]
        uu = np.abs(u) ** 2
        total *= np.exp(-0.5 * (uu[:, None] + uu[None, :]) + np.conj(u)[:, None] * u[None, :])
    return total


def output_gram_sum(out: FourModeOutput) -> float:
    """Squared norm of the output superposition (1 for normalized inputs)."""
    w = out.weights
    return float((np.conj(w) @ _output_gram(out) @ w).real)


def mode_mean_photon(out: FourModeOutput, mode: int) -> float:
    """Mean photon number in one of the four output modes."""
    w = out.weights
    u = out.amplitudes[:, mode]
    val = np.conj(w) @ (np.conj(u)[:, None] * u[None, :] * _output_gram(out)) @ w
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"mode occupation not real: {val!r}")
    return float(val.real)


def binary_probabilities(out: FourModeOutput) -> tuple[float, float]:
    """(P(+), P(-)) for even/odd photon counts at port a."""
    parity = detection.parity_expectation(out)
    p_plus = 0.5 * (1.0 + parity)
    p_minus = 0.5 * (1.0 - parity)
    return min(max(p_plus, 0.0), 1.0), min(max(p_minus, 0.0), 1.0)


def basis_index(n_a: int, n_b: int, cutoff: int) -> int:
    """Position of |n_a, n_b> in the flattened triangular basis."""
    if n_a < 0 or n_b < 0 or n_a + n_b > cutoff:
        raise ValueError("occupation outside the truncated basis")
    total = n_a + n_b
    return total * (total + 1) // 2 + n_a


def triangle_dimension(cutoff: int) -> int:
    return (cutoff + 1) * (cutoff + 2) // 2


def beam_splitter_unitary(cutoff: int) -> np.ndarray:
    """Dense 50:50 splitter over the triangular basis, block-diagonal in N."""
    dim = triangle_dimension(cutoff)
    u = np.zeros((dim, dim), dtype=complex)
    for total in range(cutoff + 1):
        start = total * (total + 1) // 2
        u[start : start + total + 1, start : start + total + 1] = fo._bs_block(total)
    return u


def reference_fmt(x) -> str:
    """One CLI output cell, formatted on its own."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def reference_rows_text(header: list[str], rows: list[list], fmt: str) -> str:
    """The CLI output document for rows of Python cells, built row by row."""
    if fmt == "json":
        return json.dumps({"columns": header, "rows": rows}, indent=2) + "\n"
    return "\n".join([",".join(header)] + [",".join(reference_fmt(v) for v in row) for row in rows]) + "\n"


def reference_wigner(op, lam) -> np.ndarray:
    """W at each point of the array lam = y1 + i y2, one complex exponential per point and pair."""
    lam = np.asarray(lam, dtype=complex)
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


def reference_bs_block(total: int) -> np.ndarray:
    """Complex splitter block on the N-photon subspace, filled entry by entry."""
    rows = [[math.comb(total, j) for j in range(total + 1)]]
    for _ in range(total):
        prev = rows[-1]
        mult = [0] * (total + 2)
        for j, c in enumerate(prev):
            mult[j] += c
            mult[j + 1] -= c
        quot = [0] * (total + 1)
        quot[0] = mult[0]
        for j in range(1, total + 1):
            quot[j] = mult[j] - quot[j - 1]
        assert mult[total + 1] - quot[total] == 0
        rows.append(quot)
    lg = [math.lgamma(k + 1) for k in range(total + 1)]
    phases = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
    block = np.zeros((total + 1, total + 1), dtype=complex)
    log2 = math.log(2.0)
    for n in range(total + 1):
        for j in range(total + 1):
            f = rows[n][j]
            if f == 0:
                continue
            scale = math.exp(-0.5 * total * log2 + 0.5 * (lg[j] + lg[total - j] - lg[n] - lg[total - n]))
            block[j, n] = phases[(n + j) % 4] * (float(f) * scale)
    return block


def reference_encode(state_a, state_b, cutoff: int) -> np.ndarray:
    """Triangle-masked psi accumulated as one outer product per pair of components."""
    psi = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for wa, a in zip(state_a.weights.tolist(), state_a.amplitudes.tolist()):
        ca = fo.coherent_amplitudes(a, cutoff)
        for wb, b in zip(state_b.weights.tolist(), state_b.amplitudes.tolist()):
            psi += (wa * wb) * np.outer(ca, fo.coherent_amplitudes(b, cutoff))
    ns = np.arange(cutoff + 1)
    psi[ns[:, None] + ns[None, :] > cutoff] = 0.0
    return psi


def reference_photon_probabilities(w, a, rest, cutoff: int) -> np.ndarray:
    """P(0..cutoff) at port a, one pair-sum contraction per photon number."""
    aa = np.abs(a) ** 2
    gauss = -0.5 * (aa[:, None] + aa[None, :])
    z = np.conj(a)[:, None] * a[None, :]
    nz = z != 0
    log_z = np.log(z[nz])
    probs = np.empty(cutoff + 1)
    for n in range(cutoff + 1):
        if n == 0:
            port = np.exp(gauss)
        else:
            port = np.zeros_like(z)
            port[nz] = np.exp(gauss[nz] + n * log_z - math.lgamma(n + 1))
        val = np.conj(w) @ (port * rest) @ w
        assert abs(val.imag) <= 1e-12 * max(1.0, abs(val.real)) and val.real >= -1e-10
        probs[n] = min(max(float(val.real), 0.0), 1.0)
    return probs


def reference_pair_data(out: FourModeOutput):
    """Weights, port-a amplitudes, and the product of the overlaps of port b and both loss environments."""
    w, amps = out.weights, out.amplitudes
    rest = np.ones((len(w), len(w)), dtype=complex)
    for m in (1, 2, 3):
        rest *= np.exp(_overlap_exponent(amps[:, m]))
    return w, amps[:, 0], rest


def reference_expectation(state_a, state_b, config, scheme: Scheme) -> float:
    """<Pi> or <Z> at one phase from the four-mode pair data."""
    w, a, rest = reference_pair_data(propagate(state_a, state_b, config))
    if scheme is Scheme.Z:
        return float(reference_photon_probabilities(w, a, rest, 0)[0])
    val = _real_part(np.conj(w) @ (np.exp(_overlap_exponent(a, -1.0)) * rest) @ w, "parity")
    return min(max(val, -1.0), 1.0)


def reference_curve(state_a, state_b, scheme: Scheme, phis, loss_r: float):
    """Values and slopes over at most one curve chunk of phases, summed over all four output modes."""
    w, amps_in = _input_pairs(state_a, state_b)
    phis = np.asarray(phis, dtype=float)
    assert len(phis) <= detection.CURVE_CHUNK
    matrix, derivative = mode_transform(phis, loss_r)
    aa, ab = amps_in[:, 0, None, None], amps_in[:, 1, None, None]
    u, du = aa * matrix[:, 0] + ab * matrix[:, 1], aa * derivative[:, 0] + ab * derivative[:, 1]
    coeffs = ({Scheme.PARITY: -1.0, Scheme.Z: 0.0}[scheme], 1.0, 1.0, 1.0)
    n_pairs, _, n_phi = u.shape
    exponent = np.zeros((n_pairs, n_pairs, n_phi), dtype=complex)
    dexp = np.zeros_like(exponent)
    for m in range(4):
        um, dum = u[:, m, :], du[:, m, :]
        exponent += _overlap_exponent(um, coeffs[m])
        duu = 2.0 * np.real(np.conj(um) * dum)
        dexp += -0.5 * (duu[:, None, :] + duu[None, :, :]) + coeffs[m] * (
            np.conj(dum)[:, None, :] * um[None, :, :] + np.conj(um)[:, None, :] * dum[None, :, :]
        )
    terms = (np.conj(w)[:, None] * w[None, :])[:, :, None] * np.exp(exponent)
    values, slopes = np.sum(terms, axis=(0, 1)), np.sum(terms * dexp, axis=(0, 1))
    return _real_part(values, "curve"), _real_part(slopes, "slope curve")


def reference_golden_extremum(f, lo: float, hi: float, tol: float = met.REFINE_TOL) -> float:
    """Golden-section maximizer of f on [lo, hi], one float call of f per step."""
    a, b = lo, hi
    c = b - met.GOLDEN * (b - a)
    d = a + met.GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - met.GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + met.GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def reference_bisect_crossing(f, lo: float, hi: float, flo: float, fhi: float, tol: float = met.REFINE_TOL) -> float:
    """Bisection root of f on [lo, hi], whose end values flo = f(lo), fhi = f(hi) differ in sign."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_crossing(phis, values, best_idx: int, sign: float, half: float, level, step: int) -> float:
    """Half-level crossing on one side of the peak: a per-sample walk to the bracket, then bisection."""
    inside = best_idx
    while 0 <= inside + step < len(values) and sign * (values[inside + step] - half) >= 0.0:
        inside += step
    outside = inside + step
    while True:
        if not (0 <= inside < len(values) and 0 <= outside < len(values)):
            raise met.NoPeak("half level is never crossed on both sides of the peak")
        g_in, g_out = level(phis[inside]), level(phis[outside])
        if g_in == 0.0 or g_out == 0.0 or (g_in < 0.0) != (g_out < 0.0):
            break
        if g_in < 0.0:
            inside -= step
        else:
            outside += step
    if step > 0:
        return reference_bisect_crossing(level, phis[inside], phis[outside], g_in, g_out)
    return reference_bisect_crossing(level, phis[outside], phis[inside], g_out, g_in)


def reference_fwhm(curve, baseline=None) -> float:
    """met.fwhm with each search run on its own, one float call of the evaluator at a time."""
    phis, values = curve.phis, curve.values
    best_idx, sign, baseline = met._principal_peak(values, baseline)
    if curve.evaluator is not None:
        f = curve.evaluator
        peak_phi = reference_golden_extremum(lambda x: sign * f(x), phis[best_idx - 1], phis[best_idx + 1])
        peak_val = f(peak_phi)
    else:
        f = lambda x: float(np.interp(x, phis, values))
        peak_phi, peak_val = float(phis[best_idx]), float(values[best_idx])
    half = 0.5 * (peak_val + baseline)
    level = lambda x: sign * (f(x) - half)
    left = reference_crossing(phis, values, best_idx, sign, half, level, -1)
    right = reference_crossing(phis, values, best_idx, sign, half, level, 1)
    return float(right - left)


def reference_peak_locations(curve, window, side="upper", midline=None, threshold=met.PEAK_NOISE_THRESHOLD):
    """met.peak_locations with one golden-section search per peak, run one after another."""
    lo, hi = float(window[0]), float(window[1])
    raw, mid = met._raw_peaks(curve, lo, hi, side, midline, threshold)
    positions = []
    for i in raw:
        phi0 = float(curve.phis[i])
        if curve.evaluator is not None:
            step = curve.phis[1] - curve.phis[0]
            if side == "upper":
                g = curve.evaluator
            elif side == "lower":
                g = lambda x: -curve.evaluator(x)
            else:
                g = lambda x: abs(curve.evaluator(x) - mid)
            phi0 = reference_golden_extremum(g, phi0 - step, phi0 + step)
        positions.append(phi0)
    return met._in_window(positions, lo, hi)
