"""Reference quantities that only the tests need.

Bookkeeping sums over the four-mode output, the even/odd split of the parity
signal, the complex splitter blocks and their dense triangular-basis form,
the per-arm Kraus loss channel on an explicit density matrix whose port-a
counts the Fock oracle's binomial thinning must reproduce, the square-layout
Fock pipeline (psi[n_a, n_b], one gathered matmul per shell, explicit phases,
a thinning kernel from log-factorials) whose results the shell-layout oracle
must reproduce, the exact-binomial thinning kernel, the cell-by-cell
row writer that the CLI's column writer must reproduce, the
pointwise Wigner sum that the separable grid kernel must reproduce, the
loop forms of the splitter blocks, the Fock encoding and P(n) that the array
forms must reproduce, the pair sums over all four output modes whose values the
engine, which skips the vacuum loss environments at zero loss, must reproduce
bit for bit and whose slopes it must reproduce within a rounding bound, the
entry-by-entry transfer matrix and the (K, M, P) amplitude-stack chunk kernel
whose bits the engine's zero-loss matrix and in-place chunk kernel must keep, and the
one-search-at-a-time golden-section, crossing walk and bisection refinements
whose widths and peak positions the lockstep searches must reproduce exactly,
and the exact mod-4 series of the vacuum probability of
a four-component state, which cancels nothing where the pair sums cancel most.
"""

import json
import math
from functools import lru_cache

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


def triangle_occupations(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_a, n_b) at each position of the flattened triangular basis."""
    n_a, n_b = np.array([(n, total - n) for total in range(cutoff + 1) for n in range(total + 1)]).T
    return n_a, n_b


def bs_block(total: int) -> np.ndarray:
    """Unitary of the 50:50 splitter on the N-photon subspace, <j, N-j|U|n, N-n> at [j, n]."""
    phase = fold_phases(total)
    return phase[:, None] * fo._kravchuk_block(total) * phase[None, :]


def beam_splitter_unitary(cutoff: int) -> np.ndarray:
    """Dense 50:50 splitter over the triangular basis, block-diagonal in N."""
    dim = triangle_dimension(cutoff)
    u = np.zeros((dim, dim), dtype=complex)
    for total in range(cutoff + 1):
        start = total * (total + 1) // 2
        u[start : start + total + 1, start : start + total + 1] = bs_block(total)
    return u


def reference_loss_channel(rho: np.ndarray, loss_r: float) -> np.ndarray:
    """Pure loss with transmissivity t^2 = 1 - loss_r^2 on both arms of rho[n_a, n_b, m_a, m_b].

    Kraus operator K_k removes k photons from one arm, with amplitude sqrt(C(n+k, k)) t^n r^k
    on the output number n.
    """
    d = len(rho)
    t = math.sqrt(1.0 - loss_r**2)
    for _ in range(2):  # arm a, then arm b once the arms are swapped
        out = np.zeros_like(rho)
        for k in range(d):
            fac = np.sqrt([float(math.comb(n + k, k)) for n in range(d - k)]) * t ** np.arange(d - k) * loss_r**k
            out[: d - k, :, : d - k, :] += rho[k:, :, k:, :] * (fac[:, None, None, None] * fac[None, None, :, None])
        rho = out.transpose(1, 0, 3, 2)
    return rho


def reference_simulate_density(state_a, state_b, config, cutoff: int):
    """The oracle's result with Kraus loss on an explicit density matrix in place of binomial thinning.

    Loss acts on both arms between the phase and the second splitter, which is applied as U rho U^dag.
    """
    psi, tail = reference_square_encode(state_a, state_b, cutoff)
    psi = reference_phase(reference_beam_splitter(psi), config.phi)
    rho = reference_loss_channel(np.einsum("ab,cd->abcd", psi, np.conj(psi)), config.loss_r)
    n_a, n_b = triangle_occupations(cutoff)
    u = beam_splitter_unitary(cutoff)
    final = u @ rho[n_a[:, None], n_b[:, None], n_a[None, :], n_b[None, :]] @ u.conj().T
    return fo._result(np.bincount(n_a, weights=np.diagonal(final).real, minlength=cutoff + 1), tail)


def reference_coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """One alpha's number-basis coefficients e^{-|alpha|^2/2} alpha^l / sqrt(l!), with alpha = 0 as its own case."""
    alpha = complex(alpha)
    out = np.zeros(cutoff + 1, dtype=complex)
    if alpha == 0:
        out[0] = 1.0
        return out
    ls = np.arange(cutoff + 1)
    logmag = -0.5 * abs(alpha) ** 2 + ls * math.log(abs(alpha)) - 0.5 * fo._lgamma_table(cutoff)
    return np.exp(logmag + 1j * ls * np.angle(alpha))


def reference_square_encode(state_a, state_b, cutoff: int):
    """psi[n_a, n_b] of the input product on the triangle n_a + n_b <= cutoff, and its norm deficit."""

    def expansion(state):
        return sum(w * reference_coherent_amplitudes(a, cutoff) for w, a in zip(state.weights.tolist(), state.amplitudes.tolist()))

    psi = np.outer(expansion(state_a), expansion(state_b))
    ns = np.arange(cutoff + 1)
    psi[ns[:, None] + ns[None, :] > cutoff] = 0.0
    return psi, max(0.0, 1.0 - float(np.sum(np.abs(psi) ** 2)))


reference_kravchuk_block = lru_cache(maxsize=None)(fo._kravchuk_block)


@lru_cache(maxsize=None)
def _reference_shell_order(cutoff: int):
    """Flat (n_a, n_b) index of the triangle in shell-major order, and i^(n_a) at each entry."""
    totals, n_a = np.tril_indices(cutoff + 1)  # row-major: shell by shell, n_a rising within each
    return n_a * (cutoff + 1) + (totals - n_a), fold_phases(cutoff)[n_a]


def reference_beam_splitter(psi: np.ndarray) -> np.ndarray:
    """The splitter on psi[n_a, n_b]: gather the triangle shell by shell, one real block matmul per shell, scatter back."""
    cutoff = len(psi) - 1
    index, phase = _reference_shell_order(cutoff)
    shells = psi.reshape(-1).take(index) * phase
    pairs = shells.view(float).reshape(len(index), 2)  # (re, im) of each entry, shells contiguous
    for total in range(cutoff + 1):
        part = slice(total * (total + 1) // 2, (total + 1) * (total + 2) // 2)
        pairs[part] = reference_kravchuk_block(total) @ pairs[part]
    out = np.zeros(psi.size, dtype=complex)
    out[index] = shells * phase
    return out.reshape(psi.shape)


def reference_phase(psi: np.ndarray, phi: float) -> np.ndarray:
    return psi * np.exp(1j * phi * np.arange(len(psi)))[:, None]


def reference_thin(probs: np.ndarray, loss_t: float, loss_r: float) -> np.ndarray:
    """Binomial thinning with the kernel built from log-factorials: one exp and two float powers per entry."""
    if loss_r == 0.0:
        return probs
    ns = np.arange(len(probs))
    dropped = ns[None, :] - ns[:, None]  # m - n, row n, column m
    kept = np.maximum(dropped, 0)
    lg = fo._lgamma_table(len(probs) - 1)
    binom = np.exp(lg[ns][None, :] - lg[ns][:, None] - lg[kept])
    kernel = np.where(dropped >= 0, binom * (loss_t**2) ** ns[:, None] * (loss_r**2) ** kept, 0.0)
    return kernel @ probs


def reference_binomial_kernel(cutoff: int, loss_t: float, loss_r: float) -> np.ndarray:
    """The thinning kernel C(m, n) t^(2n) r^(2(m-n)), row n, column m, each C(m, n) rounded once from an integer."""
    ns = np.arange(cutoff + 1)
    binom = np.array([[float(math.comb(m, n)) for m in ns] for n in ns])
    kept = np.maximum(ns[None, :] - ns[:, None], 0)
    return np.triu(binom * (loss_t**2) ** ns[:, None] * (loss_r**2) ** kept)


def reference_simulate(state_a, state_b, config, cutoff: int | None = None):
    """The oracle's pipeline on the square layout psi[n_a, n_b], with every splitter and phase factor applied."""
    cutoff = fo.default_cutoff(state_a, state_b) if cutoff is None else cutoff
    psi, tail = reference_square_encode(state_a, state_b, cutoff)
    psi = reference_beam_splitter(reference_phase(reference_beam_splitter(psi), config.phi))
    return fo._result(reference_thin(np.sum(np.abs(psi) ** 2, axis=1), config.loss_t, config.loss_r), tail)


def shell_layout(psi: np.ndarray) -> np.ndarray:
    """psi[n_a, n_b] on the triangle as the oracle's shells S[N, n_a] = psi[n_a, N - n_a], zero above the diagonal."""
    totals, n_a = np.tril_indices(len(psi))
    shells = np.zeros(psi.shape, dtype=complex)
    shells[totals, n_a] = psi[n_a, totals - n_a]
    return shells


def fold_phases(cutoff: int) -> np.ndarray:
    """i^(n_a) for n_a = 0..cutoff, the diagonal phase that the oracle folds into its shells."""
    return np.array([1.0, 1j, -1.0, -1j])[np.arange(cutoff + 1) % 4]


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
        ca = reference_coherent_amplitudes(a, cutoff)
        for wb, b in zip(state_b.weights.tolist(), state_b.amplitudes.tolist()):
            psi += (wa * wb) * np.outer(ca, reference_coherent_amplitudes(b, cutoff))
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
    """Values and slopes over at most one curve chunk of phases, summed over all four output modes.

    The slope exponent is the analytic derivative of every mode's overlap
    exponent, the form the engine reduces to port a's alone.  Its sums carry
    more rounding than the engine's, so their imaginary parts are checked
    against :func:`reference_slope_bound`, not the engine's residue tolerance.
    """
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
    # the exact slope is real, so its imaginary part is rounding within the bound that the real part keeps too
    assert np.max(np.abs(slopes.imag)) <= reference_slope_bound(state_a, state_b)
    return _real_part(values, "curve"), slopes.real


def reference_transfer_matrix(phi, loss_r: float):
    """The transfer matrix and its phi derivative built entry by entry at every loss, environment rows included."""
    t = math.sqrt(1.0 - loss_r**2)
    half = np.exp(0.5j * phi)
    full = np.exp(1j * phi)
    theta = 1j * t * half * np.sin(0.5 * phi)
    sigma = 1j * t * half * np.cos(0.5 * phi)
    rbar = 1j * loss_r / math.sqrt(2.0)
    matrix = np.empty((4, 2) + np.shape(phi), dtype=complex)
    matrix[0, 0], matrix[0, 1] = theta, sigma
    matrix[1, 0], matrix[1, 1] = sigma, -theta
    matrix[2, 0], matrix[2, 1] = rbar * full, 1j * rbar * full
    matrix[3, 0], matrix[3, 1] = 1j * rbar, rbar
    dtheta = 0.5j * t * full
    dsigma = -0.5 * t * full
    derivative = np.zeros_like(matrix)
    derivative[0, 0], derivative[0, 1] = dtheta, dsigma
    derivative[1, 0], derivative[1, 1] = dsigma, -dtheta
    derivative[2, 0], derivative[2, 1] = 1j * rbar * full, -rbar * full
    return matrix, derivative


def reference_phase_resolved_amplitudes(amps_in: np.ndarray, phis: np.ndarray, loss_r: float):
    """Output amplitudes u (K, M, P) of the modes that the engine's pair sums keep, and port a's derivative du (K, P).

    Mode 0 of u is port a, then port b, then both environments if loss_r > 0.
    """
    rows = [0, 1] if loss_r == 0.0 else [0, 1, 2, 3]
    matrix, derivative = reference_transfer_matrix(phis, loss_r)
    aa, ab = amps_in[:, 0, None, None], amps_in[:, 1, None, None]
    u = aa * matrix[rows, 0] + ab * matrix[rows, 1]
    return u, aa[:, 0] * derivative[0, 0] + ab[:, 0] * derivative[0, 1]


def reference_chunk(w, amps_in, phis, loss_r: float, scheme: Scheme, slope_bound: float):
    """Values and slopes at the phases of one curve chunk from the (K, M, P) amplitude stack, mode by mode.

    The engine's chunk kernel must reproduce both bit for bit: it sums the
    same mode exponents in place, without the stack.
    """
    u, du = reference_phase_resolved_amplitudes(amps_in, phis, loss_r)
    coeffs = ({Scheme.PARITY: -1.0, Scheme.Z: 0.0}[scheme], 1.0, 1.0, 1.0)
    exponent = _overlap_exponent(u[:, 0, :], coeffs[0])
    for m in range(1, u.shape[1]):
        exponent += _overlap_exponent(u[:, m, :], coeffs[m])
    pair_w = (np.conj(w)[:, None] * w[None, :])[:, :, None]
    terms = pair_w * np.exp(exponent)
    values = _real_part(np.sum(terms, axis=(0, 1)), "curve")
    x = np.conj(du)[:, None, :] * u[None, :, 0, :]
    x += np.conj(x.transpose(1, 0, 2))
    x *= terms
    slopes = (coeffs[0] - 1.0) * np.sum(x, axis=(0, 1))
    rounding = np.abs(slopes.imag) <= np.maximum(IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(slopes.real)), slope_bound)
    return values, _real_part(np.where(rounding, slopes.real, slopes), "slope curve")


def reference_slope_bound(state_a, state_b) -> float:
    """A bound on |engine slope - reference_curve slope| at any phase and loss, from the pair-term magnitudes.

    W = sum_ij |w_i w_j|, and S is the largest |u_k|^2 = |a_k|^2 + |b_k|^2 of a
    pair's four output amplitudes (the transfer matrix is an isometry).  Every
    term t_ij d_ij of a slope sum has |t_ij| <= |w_i w_j|, since each overlap and
    matrix element has modulus at most 1.  Its exponent derivative d_ij sums
    products of an amplitude and a derivative amplitude whose magnitudes add up
    to at most 4 S in either kernel: the phase derivative of the transfer matrix
    has singular values 1 and 0, so |du_k| <= |u_k| over the four modes.  Each
    kernel rounds transfer matrix, amplitudes, exponent derivative and term at
    most 24 times in sequence and then sums K^2 terms, so it lies within
    gamma_n 4 S W of the exact slope, n = K^2 + 24 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sections 3.1 and 4.2); the two
    kernels lie within twice that of each other.
    """
    w, amps_in = _input_pairs(state_a, state_b)
    n = len(w) ** 2 + 24
    gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
    return 2.0 * gamma * 4.0 * float(np.sum(np.abs(w))) ** 2 * float(np.max(np.sum(np.abs(amps_in) ** 2, axis=1)))


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


def reference_principal_peak(values, baseline):
    """met._principal_peak as per-sample loops: the first extremum farthest from its baseline, upright on ties."""
    n = len(values)
    maxima = [i for i in range(1, n - 1) if values[i - 1] < values[i] > values[i + 1]]
    minima = [i for i in range(1, n - 1) if values[i - 1] > values[i] < values[i + 1]]
    if not maxima and not minima:
        raise met.NoPeak("curve is monotone over its domain")
    vmin, vmax = float(np.min(values)), float(np.max(values))
    base_up = vmin if baseline is None else float(baseline)
    base_down = vmax if baseline is None else float(baseline)
    up_dev, up_idx = -math.inf, None
    for i in maxima:
        if values[i] - base_up > up_dev:
            up_dev, up_idx = values[i] - base_up, i
    down_dev, down_idx = -math.inf, None
    for i in minima:
        if base_down - values[i] > down_dev:
            down_dev, down_idx = base_down - values[i], i
    inverted = down_dev > up_dev + 1e-12 * max(1.0, vmax - vmin)
    best_idx = down_idx if inverted else up_idx
    if best_idx is None or (not inverted and up_dev <= 0.0) or (inverted and down_dev <= 0.0):
        raise met.NoPeak("no extremum stands out from the baseline")
    return (best_idx, -1.0, base_down) if inverted else (best_idx, 1.0, base_up)


def reference_in_window(positions, lo: float, hi: float) -> list[float]:
    """The positions mapped into [lo, lo + 2 pi) that lie inside the window (all, if it spans a period), sorted."""
    result = []
    for phi0 in positions:
        mapped = lo + ((float(phi0) - lo) % met.TWO_PI)
        if mapped <= hi or (hi - lo >= met.TWO_PI - 1e-12):
            result.append(mapped)
    return sorted(result)


def reference_fwhm(curve, baseline=None) -> float:
    """met.fwhm with each search run on its own, one float call of the evaluator at a time."""
    phis, values = curve.phis, curve.values
    best_idx, sign, baseline = reference_principal_peak(values, baseline)
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
    return reference_in_window(positions, lo, hi)


def reference_mod4_series(j: int, x: float) -> float:
    """e_j(x), the sum of x^n / n! over n = j mod 4, for x >= 0: every term is nonnegative, so nothing cancels."""
    term = x**j / math.factorial(j)
    total, n = 0.0, j
    while term > 1e-17 * total or n <= x:
        total += term
        term *= x**4 / ((n + 1) * (n + 2) * (n + 3) * (n + 4))
        n += 4
    return total


def reference_mps_z(j: int, alpha2: float, phi: float, loss_r: float = 0.0) -> float:
    """Exact <Z> of MPS_j with vacuum in port b: e_j((1 - p) |alpha|^2) / e_j(|alpha|^2).

    p = |M_00|^2 is the port-a power transmission.  The state's Fock amplitudes
    sit on n = j mod 4, each of its n photons reaches port a with probability p,
    and terms of different n are orthogonal in the vacuum projection.
    """
    p = abs(mode_transform(phi, loss_r)[0][0, 0]) ** 2
    return reference_mod4_series(j, (1.0 - p) * alpha2) / reference_mod4_series(j, alpha2)
