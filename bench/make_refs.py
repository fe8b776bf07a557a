"""Regenerate ``bench/refs/fwhm.json``, the stored fringe widths of the refine workload.

    PYTHONPATH=src python3 bench/make_refs.py

Each width is ``metrology.fwhm`` on the default one-period curve.  Where
``fwhm`` raises (at present parity, mps3, |alpha|^2 = 5.857: a sample sits on
the half level and the curve samples and the scalar evaluator disagree in
sign at 1e-16), the width comes from ``bracketed_fwhm`` below: the same peak
choice, baseline and half level, but each crossing is bracketed on
evaluator values, widening by one sample while both ends have one sign.
The benchmark records such a job as failed until ``fwhm`` returns a width
within the refinement tolerance of the stored one.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
from qlidar import metrology, states

import workloads

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a, b, tol):
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _root(g, lo, hi, tol):
    glo = g(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if (gm < 0.0) == (glo < 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bracketed_fwhm(curve) -> float:
    """FWHM with the default baseline, crossings bracketed on evaluator values."""
    phis, values, f = curve.phis, curve.values, curve.evaluator
    tol = metrology.REFINE_TOL
    inner = range(1, len(values) - 1)
    maxima = [i for i in inner if values[i - 1] < values[i] > values[i + 1]]
    minima = [i for i in inner if values[i - 1] > values[i] < values[i + 1]]
    vmin, vmax = float(np.min(values)), float(np.max(values))
    up_dev, up_idx = max(((values[i] - vmin, i) for i in maxima), default=(-math.inf, None))
    down_dev, down_idx = max(((vmax - values[i], i) for i in minima), default=(-math.inf, None))
    inverted = down_dev > up_dev + 1e-12 * max(1.0, vmax - vmin)
    best, sign, baseline = (down_idx, -1.0, vmax) if inverted else (up_idx, 1.0, vmin)
    peak_phi = _golden_max(lambda x: sign * f(x), phis[best - 1], phis[best + 1], tol)
    half = 0.5 * (f(peak_phi) + baseline)
    level = lambda x: sign * (f(x) - half)

    def crossing(step):
        inside = best
        while sign * (values[inside + step] - half) >= 0.0:
            inside += step
        outside = inside + step
        # widen toward whichever end the evaluator puts on the wrong side
        while True:
            g_in, g_out = level(phis[inside]), level(phis[outside])
            if (g_in < 0.0) != (g_out < 0.0):
                break
            if g_in < 0.0:
                inside -= step
            else:
                outside += step
        lo, hi = sorted((phis[inside], phis[outside]))
        return _root(level, lo, hi, tol)

    return float(crossing(1) - crossing(-1))


def main() -> int:
    widths, fallbacks = {}, []
    for scheme in workloads.SCHEMES:
        for kind in workloads.SIX:
            for i, alpha2 in enumerate(workloads.fwhm_grid()):
                curve = metrology.sample_curve(states.make_state(kind, math.sqrt(alpha2)), states.vacuum(), scheme)
                key = workloads.fwhm_key(scheme, kind, i)
                try:
                    widths[key] = metrology.fwhm(curve)
                except ValueError:
                    widths[key] = bracketed_fwhm(curve)
                    fallbacks.append(key)
    doc = {
        "about": "metrology.fwhm widths on the default 4096-sample period, vacuum second input, "
                 "over the CLI default alpha2 grid linspace(0.5, 8, 8); key scheme/state/grid index",
        "alpha2_grid": workloads.fwhm_grid(),
        "bracketed": fallbacks,
        "widths": widths,
    }
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(widths)} widths to {workloads.REFS_PATH}; bracketed: {fallbacks}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
