"""Job lists of the three benchmark workloads, with a correctness check per job.

A job is one call sequence a researcher's script would make: ``run`` does
the program work (timed, and traced in traced passes) and returns its
output; ``check`` compares that output with an independent reference and
returns ``None`` when it holds, else a one-line reason.  Every program call
goes through a module attribute (``states.make_state``, not a local import),
so the span recorder sees it.

The seed chooses the job order of every pass, the samples at which outputs
are checked, and the (phase, loss) drawn for each verification point and for
the reduced-state Wigner grid; it never changes the fixed grids below, which
are the CLI defaults and acceptance criteria.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
from qlidar import cli, closedform, detection, fock_oracle, interferometer, metrology, states, wigner
from qlidar.detection import Scheme
from qlidar.interferometer import MziConfig
from qlidar.states import StateKind

WORKLOADS = ("sweeps", "refine", "verify")

SIX = (StateKind.CS, StateKind.ECSS, StateKind.MPS0, StateKind.MPS1, StateKind.MPS2, StateKind.MPS3)
NONCLASSICAL = SIX[1:]
SCHEMES = (Scheme.PARITY, Scheme.Z)

# Accuracy contract of the project (ROADMAP): engine vs oracle, closed forms,
# relative slope error, Wigner normalization.
ORACLE_TOL = 1e-8
CLOSED_FORM_TOL = 1e-10
SLOPE_REL_TOL = 1e-6
WIGNER_INTEGRAL_TOL = 1e-3
# Each FWHM crossing is bisected to a bracket below REFINE_TOL, so two
# refinements of one width may differ by up to twice that.
WIDTH_TOL = 2.0 * metrology.REFINE_TOL

ALPHA2 = 2.0  # CLI default |alpha|^2
ZETA2 = 2.0  # coherent second input of the sweeps
CURVE_LOSSES = (0.0, 0.5)  # loss_r of the lossless and lossy signal curves
WIGNER_ALPHA = 1.0 + 1.0j  # CLI default wigner amplitude
CHECKED_PHASES = 6  # seed-chosen samples compared per curve

MID_WINDOW = (math.pi - 0.33, math.pi + 0.28)
EXTRA_WINDOWS = ((math.pi / 2 - 0.3, math.pi / 2 + 0.3), (3 * math.pi / 2 - 0.3, 3 * math.pi / 2 + 0.3))

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs", "fwhm.json")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def second_input(zeta2: float):
    if zeta2 == 0.0:
        return states.vacuum()
    return states.make_state(StateKind.CS, math.sqrt(zeta2))


def closed_form_signal(kind: StateKind, alpha2: float, zeta2: float, scheme: Scheme, config: MziConfig) -> float:
    ctx = closedform.closed_form_context(kind, alpha2, config, zeta2)
    if zeta2 == 0.0:
        return closedform.parity_vacuum(ctx) if scheme is Scheme.PARITY else closedform.z_vacuum(ctx)
    return closedform.parity_coherent(ctx) if scheme is Scheme.PARITY else closedform.z_coherent(ctx)


def _gap(name: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{name}: |{got!r} - {want!r}| > {tol:g}"


def _first(*reasons) -> str | None:
    return next((r for r in reasons if r), None)


# --------------------------------------------------------------------- sweeps


def _curve_job(rng, kind, scheme, zeta2, period) -> Job:
    """One figure panel: the signal over one period, lossless and lossy."""
    picks = sorted(rng.sample(range(len(period)), CHECKED_PHASES))

    def run():
        state_a = states.make_state(kind, math.sqrt(ALPHA2))
        state_b = second_input(zeta2)
        return [detection.expectation_curve(state_a, state_b, scheme, period, r) for r in CURVE_LOSSES]

    def check(curves):
        if [c.shape for c in curves] != [period.shape] * len(CURVE_LOSSES):
            return f"curve shapes {[c.shape for c in curves]}"
        return _first(*(
            _gap(f"phi={period[i]!r} r={loss_r:g}", float(values[i]),
                 closed_form_signal(kind, ALPHA2, zeta2, scheme, MziConfig(phi=float(period[i]), loss_r=loss_r)),
                 CLOSED_FORM_TOL)
            for loss_r, values in zip(CURVE_LOSSES, curves)
            for i in picks
        ))

    return Job(f"curves/{kind.value}/{scheme.value}/zeta2={zeta2:g}", run, check)


def _sensitivity_job(rng, kind, grid) -> Job:
    picks = sorted(rng.sample(range(len(grid)), CHECKED_PHASES))

    def run():
        state_a = states.make_state(kind, math.sqrt(ALPHA2))
        return metrology.sensitivity_curve(state_a, second_input(ZETA2), Scheme.PARITY, grid)

    def check(points):
        if len(points) != len(grid):
            return f"{len(points)} sensitivity points"
        reasons = []
        for i in picks:
            ctx = closedform.closed_form_context(kind, ALPHA2, MziConfig(phi=float(grid[i])), ZETA2)
            value = closedform.parity_coherent(ctx)
            slope = closedform.parity_derivative_coherent(ctx)
            reasons.append(_gap("snl", points[i].snl, 1.0 / math.sqrt(closedform.mean_photon(ctx) + ZETA2),
                                CLOSED_FORM_TOL))
            variance = 1.0 - value * value
            if abs(slope) > 1e-6 and variance > 1e-6:
                want = math.sqrt(variance) / abs(slope)
                reasons.append(_gap(f"delta_phi at {grid[i]!r}", points[i].delta_phi, want, SLOPE_REL_TOL * want))
        best = min(p.ratio for p in points)
        # criterion 8: super-sensitivity for the superpositions only
        if (best < 1.0) != (kind is not StateKind.CS):
            reasons.append(f"minimum ratio {best!r}")
        return _first(*reasons)

    return Job(f"sensitivity/{kind.value}", run, check)


def _wigner_check(grid, reference: Callable[[complex], float] | None, rng_points) -> str | None:
    reason = _gap("integral", grid.integral, 1.0, WIGNER_INTEGRAL_TOL)
    if reason or reference is None:
        return reason
    return _first(*(
        _gap(f"W[{i},{j}]", float(grid.values[i, j]),
             reference(complex(grid.y1_axis[i], grid.y2_axis[j])), CLOSED_FORM_TOL)
        for i, j in rng_points
    ))


def _wigner_job(rng, kind) -> Job:
    picks = [(rng.randrange(201), rng.randrange(201)) for _ in range(CHECKED_PHASES)]

    def run():
        return wigner.wigner_grid(states.make_state(kind, WIGNER_ALPHA), resolution=201)

    def check(grid):
        return _wigner_check(grid, lambda lam: closedform.wigner_closed_form(kind, WIGNER_ALPHA, lam), picks)

    return Job(f"wigner/{kind.value}", run, check)


def _reduced_wigner_job(rng) -> Job:
    phi = rng.choice((0.3, 1.1, 2.7))
    loss_r = rng.choice((0.0, 0.2, 0.5))
    config = MziConfig(phi=phi, loss_r=loss_r)

    def run():
        state_a = states.make_state(StateKind.MPS1, math.sqrt(ALPHA2))
        out = interferometer.propagate(state_a, second_input(ZETA2), config)
        reduced = detection.reduced_port_a(out)
        return reduced, wigner.wigner_grid(reduced, resolution=201)

    def check(result):
        reduced, grid = result
        parity = closed_form_signal(StateKind.MPS1, ALPHA2, ZETA2, Scheme.PARITY, config)
        # (pi/2) W(0) of the reduced port-a state is the parity expectation
        return _first(
            _wigner_check(grid, None, []),
            _gap("(pi/2) W(0)", 0.5 * math.pi * wigner.wigner_point(reduced, 0.0), parity, CLOSED_FORM_TOL),
        )

    return Job(f"wigner/reduced-port-a/phi={phi:g}/r={loss_r:g}", run, check)


def _read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(x) for x in row] for row in reader]


def _cli_signal_job(rng, tmpdir: str, counters: dict) -> Job:
    steps = 4096
    path = os.path.join(tmpdir, "signal.csv")
    argv = ["signal", "--state-a", ",".join(k.value for k in SIX), "--phi-steps", str(steps), "--out", path]
    picks = sorted(rng.sample(range(steps), CHECKED_PHASES))

    def run():
        return cli.main(argv)

    def check(code):
        if code != 0:
            return f"exit code {code}"
        counters["cli.bytes_written"] += os.path.getsize(path)
        header, rows = _read_csv(path)
        if header != ["phi"] + [f"value_{k.value}" for k in SIX] or len(rows) != steps:
            return f"signal csv has header {header} and {len(rows)} rows"
        return _first(*(
            _gap(f"{kind.value} at {rows[i][0]!r}", rows[i][col + 1],
                 closed_form_signal(kind, ALPHA2, 0.0, Scheme.PARITY, MziConfig(phi=rows[i][0])), CLOSED_FORM_TOL)
            for i in picks
            for col, kind in enumerate(SIX)
        ))

    return Job("cli/signal", run, check)


def _cli_wigner_job(rng, tmpdir: str, counters: dict) -> Job:
    resolution = 201
    path = os.path.join(tmpdir, "wigner.csv")
    argv = ["wigner", "--state-a", "mps1", "--resolution", str(resolution), "--out", path]
    picks = sorted(rng.sample(range(resolution * resolution), CHECKED_PHASES))

    def run():
        return cli.main(argv)

    def check(code):
        if code != 0:
            return f"exit code {code}"
        counters["cli.bytes_written"] += os.path.getsize(path)
        header, rows = _read_csv(path)
        if header != ["y1", "y2", "w"] or len(rows) != resolution * resolution:
            return f"wigner csv has header {header} and {len(rows)} rows"
        cell = (rows[resolution][0] - rows[0][0]) * (rows[1][1] - rows[0][1])
        integral = math.fsum(row[2] for row in rows) * cell
        return _first(
            _gap("integral", integral, 1.0, WIGNER_INTEGRAL_TOL),
            *(
                _gap(f"w at row {i}", rows[i][2],
                     closedform.wigner_closed_form(StateKind.MPS1, WIGNER_ALPHA, complex(rows[i][0], rows[i][1])),
                     CLOSED_FORM_TOL)
                for i in picks
            ),
        )

    return Job("cli/wigner", run, check)


def sweeps_jobs(rng: random.Random, tmpdir: str, counters: dict) -> list[Job]:
    period = metrology.periodic_phase_grid(4096)
    crit8 = np.linspace(0.02, math.pi - 0.02, 2000)
    jobs = [
        _curve_job(rng, kind, scheme, zeta2, period)
        for kind in SIX
        for scheme in SCHEMES
        for zeta2 in (0.0, ZETA2)
    ]
    jobs += [_sensitivity_job(rng, kind, crit8) for kind in SIX]
    jobs += [_wigner_job(rng, kind) for kind in SIX]
    jobs.append(_reduced_wigner_job(rng))
    jobs.append(_cli_signal_job(rng, tmpdir, counters))
    jobs.append(_cli_wigner_job(rng, tmpdir, counters))
    return jobs


# --------------------------------------------------------------------- refine


def fwhm_grid() -> list[float]:
    """The CLI default |alpha|^2 grid of `qlidar fwhm`."""
    return [float(x) for x in np.linspace(0.5, 8.0, 8)]


def fwhm_key(scheme: Scheme, kind: StateKind, index: int) -> str:
    return f"{scheme.value}/{kind.value}/{index}"


def _fwhm_job(kind, index, alpha2, refs) -> Job:
    """Principal fringe width of one state at one energy, for both schemes."""
    keys = [fwhm_key(scheme, kind, index) for scheme in SCHEMES]

    def run():
        state_a = states.make_state(kind, math.sqrt(alpha2))
        return [metrology.fwhm(metrology.sample_curve(state_a, states.vacuum(), scheme)) for scheme in SCHEMES]

    def check(widths):
        return _first(*(_gap(f"fwhm {key}", width, refs[key], WIDTH_TOL) for key, width in zip(keys, widths)))

    return Job(f"fwhm/{kind.value}/{index}/alpha2={alpha2:.4g}", run, check)


def _foldness_low_job(kind) -> Job:
    want = 1 if kind is StateKind.CS else 2

    def run():
        curve = metrology.sample_curve(states.make_state(kind, math.sqrt(ALPHA2)), states.vacuum(), Scheme.PARITY)
        return len(metrology.peak_locations(curve, (-math.pi, math.pi), side="folded", midline=0.0))

    def check(count):
        return None if count == want else f"folded peak count {count}, expected {want}"

    return Job(f"foldness-low/{kind.value}", run, check)


def _foldness_high_job(kind, phis, window, side, threshold, want) -> Job:
    """Criterion 5: peaks of the high-energy parity fringe inside one window."""

    def run():
        state_a = states.make_state(kind, math.sqrt(51.0))
        curve = metrology.sample_curve(state_a, second_input(52.0), Scheme.PARITY, phis=phis)
        return len(metrology.peak_locations(curve, window, side=side, midline=0.0, threshold=threshold))

    def check(count):
        return None if count == want else f"peak count {count}, expected {want}"

    return Job(f"foldness-high/{kind.value}/{side}/{window[0]:.3f}..{window[1]:.3f}", run, check)


def _foldness_high_jobs(kind, phis) -> list[Job]:
    mid_side = "lower" if kind in (StateKind.MPS1, StateKind.MPS3) else "upper"
    extra = 0 if kind is StateKind.ECSS else 1
    jobs = [_foldness_high_job(kind, phis, MID_WINDOW, mid_side, metrology.PEAK_NOISE_THRESHOLD, 10)]
    jobs += [_foldness_high_job(kind, phis, win, "upper", 1e-6, extra) for win in EXTRA_WINDOWS]
    return jobs


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)["widths"]


def refine_jobs(rng: random.Random, tmpdir: str, counters: dict) -> list[Job]:
    refs = load_refs()
    jobs = [_fwhm_job(kind, i, alpha2, refs) for kind in SIX for i, alpha2 in enumerate(fwhm_grid())]
    jobs += [_foldness_low_job(kind) for kind in SIX]
    phis = metrology.periodic_phase_grid(8192, start=0.0)
    for kind in NONCLASSICAL:
        jobs += _foldness_high_jobs(kind, phis)
    return jobs


# --------------------------------------------------------------------- verify


def verify_points(rng: random.Random) -> list[tuple]:
    """One (state, alpha2, zeta2, phi, loss_r) per state and energy cell of the oracle grid.

    Within each (alpha2, zeta2) cell the six states get each loss value of
    the grid twice, in seed order, so every pass holds the same lossless
    third and the same oracle cost; the phase is drawn per point.
    """
    cells: dict = {}
    for name, alpha2, zeta2, phi, loss_r in cli.oracle_grid():
        entry = cells.setdefault((alpha2, zeta2), {"names": [], "phis": [], "losses": []})
        for key, value in (("names", name), ("phis", phi), ("losses", loss_r)):
            if value not in entry[key]:
                entry[key].append(value)
    points = []
    for (alpha2, zeta2), entry in cells.items():
        names = entry["names"]
        losses = [entry["losses"][i % len(entry["losses"])] for i in range(len(names))]
        rng.shuffle(losses)
        for name, loss_r in zip(names, losses):
            points.append((name, alpha2, zeta2, rng.choice(entry["phis"]), loss_r))
    return points


def _verify_job(name, alpha2, zeta2, phi, loss_r) -> Job:
    kind = StateKind.parse(name)
    config = MziConfig(phi=phi, loss_r=loss_r)

    def run():
        state_a = states.make_state(kind, math.sqrt(alpha2))
        state_b = second_input(zeta2)
        out = interferometer.propagate(state_a, state_b, config)
        parity = detection.parity_expectation(out)
        zero = detection.z_expectation(out)
        oracle = fock_oracle.simulate(state_a, state_b, config)
        dist = detection.port_distribution(out, cutoff=len(oracle.probs) - 1)
        cf_parity = closed_form_signal(kind, alpha2, zeta2, Scheme.PARITY, config)
        cf_zero = closed_form_signal(kind, alpha2, zeta2, Scheme.Z, config)
        return parity, zero, dist.probs, oracle, cf_parity, cf_zero

    def check(result):
        parity, zero, probs, oracle, cf_parity, cf_zero = result
        return _first(
            _gap("parity vs oracle", parity, oracle.parity, ORACLE_TOL),
            _gap("zero vs oracle", zero, oracle.zero, ORACLE_TOL),
            _gap("P(n) vs oracle", float(np.max(np.abs(probs - oracle.probs))), 0.0, ORACLE_TOL),
            _gap("parity vs closed form", parity, cf_parity, CLOSED_FORM_TOL),
            _gap("zero vs closed form", zero, cf_zero, CLOSED_FORM_TOL),
        )

    return Job(f"verify/{name}/alpha2={alpha2:g}/zeta2={zeta2:g}/phi={phi:g}/r={loss_r:g}", run, check)


def verify_jobs(rng: random.Random, tmpdir: str, counters: dict) -> list[Job]:
    return [_verify_job(*point) for point in verify_points(rng)]


BUILDERS = {"sweeps": sweeps_jobs, "refine": refine_jobs, "verify": verify_jobs}


def build(workload: str, seed: int, tmpdir: str, counters: dict) -> list[Job]:
    """The workload's jobs, with the seed's checked phases and drawn points."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), tmpdir, counters)


def pass_orders(workload: str, seed: int, n_jobs: int):
    """Endless seeded sequence of job orders, one permutation per pass.

    A fresh order each pass spreads the effect of what ran just before a job
    (allocator and cache state) over the run instead of fixing it per seed.
    """
    rng = random.Random(f"{workload}:{seed}:order")
    while True:
        order = list(range(n_jobs))
        rng.shuffle(order)
        yield order
