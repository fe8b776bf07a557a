"""Command-line driver emitting plot-ready sweep data as CSV or JSON.

Subcommands reproduce the library's figure data (signal and sensitivity
curves, fringe-width sweeps, phase-space grids, loss sweeps) and run the
engine-versus-oracle regression grid.  Specs are taken from flags or a plain
key=value config file, flags winning; identical specs produce byte-identical
output files.

Exit codes: 0 success, 1 invalid spec, 2 oracle disagreement, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import detection, fock_oracle, metrology, wigner
from .detection import Scheme
from .interferometer import MziConfig, _check_phase, propagate
from .states import StateKind, SuperposedState, make_state, vacuum

EXIT_OK = 0
EXIT_INVALID_SPEC = 1
EXIT_ORACLE_MISMATCH = 2
EXIT_IO = 3

ORACLE_TOLERANCE = 1e-8

SIX_STATES = ("cs", "ecss", "mps0", "mps1", "mps2", "mps3")


class InvalidSpec(ValueError):
    """A sweep specification failed validation; message names the field."""


def _fmt(x) -> str:
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


def _write_rows(path: str | None, header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps({"columns": header, "rows": rows}, indent=2) + "\n"
    else:
        raise InvalidSpec(f"format must be csv or json, got {fmt!r}")
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _parse_state(kind_name: str, amplitude: complex | None = None, energy: float = 0.0) -> SuperposedState:
    """Named input state at a coherent amplitude, or at sqrt(energy) if none is given."""
    name = kind_name.strip().lower()
    if name == "vacuum":
        return vacuum()
    kind = StateKind.parse(name)
    if kind is StateKind.CUSTOM:
        raise InvalidSpec("custom states are not constructible from flags")
    if amplitude is None:
        if energy < 0:
            raise InvalidSpec("state energy must be nonnegative")
        amplitude = math.sqrt(energy)
    return make_state(kind, amplitude)


def _phi_grid(spec) -> np.ndarray:
    if spec.phi_steps < 2:
        raise InvalidSpec("phi-steps must be at least 2")
    _check_phase(np.array([spec.phi_min, spec.phi_max]))
    if not spec.phi_max > spec.phi_min:
        raise InvalidSpec("phi-max must exceed phi-min")
    return np.linspace(spec.phi_min, spec.phi_max, spec.phi_steps)


def _check_loss(loss_r: float) -> float:
    if not 0.0 <= loss_r < 1.0:
        raise InvalidSpec("loss-r must lie in [0, 1)")
    return loss_r


def cmd_signal(spec) -> int:
    names = [s.strip().lower() for s in spec.state_a.split(",") if s.strip()]
    if not names:
        raise InvalidSpec("state-a must name at least one state")
    state_b = _parse_state(spec.state_b, energy=spec.zeta2)
    scheme = Scheme.parse(spec.scheme)
    phis = _phi_grid(spec)
    loss_r = _check_loss(spec.loss_r)
    columns = []
    for name in names:
        state_a = _parse_state(name, energy=spec.alpha2)
        columns.append(detection.expectation_curve(state_a, state_b, scheme, phis, loss_r))
    if len(names) == 1:
        header = ["phi", "value"]
    else:
        header = ["phi"] + [f"value_{name}" for name in names]
    rows = [[float(p)] + [float(col[i]) for col in columns] for i, p in enumerate(phis)]
    _write_rows(spec.out, header, rows, spec.format)
    return EXIT_OK


def cmd_sensitivity(spec) -> int:
    state_a = _parse_state(spec.state_a, energy=spec.alpha2)
    state_b = _parse_state(spec.state_b, energy=spec.zeta2)
    scheme = Scheme.parse(spec.scheme)
    phis = _phi_grid(spec)
    loss_r = _check_loss(spec.loss_r)
    points = metrology.sensitivity_curve(state_a, state_b, scheme, phis, loss_r)
    rows = [[p.phi, p.delta_phi, p.snl, p.ratio] for p in points]
    _write_rows(spec.out, ["phi", "delta_phi", "snl", "ratio"], rows, spec.format)
    return EXIT_OK


def cmd_fwhm(spec) -> int:
    if spec.alpha2_steps < 1:
        raise InvalidSpec("alpha2-steps must be at least 1")
    if spec.alpha2_min <= 0 or spec.alpha2_max < spec.alpha2_min:
        raise InvalidSpec("alpha2 grid must be positive and increasing")
    if spec.sweep not in ("alpha2", "zeta2"):
        raise InvalidSpec("sweep must be alpha2 or zeta2")
    scheme = Scheme.parse(spec.scheme)
    loss_r = _check_loss(spec.loss_r)
    grid = np.linspace(spec.alpha2_min, spec.alpha2_max, spec.alpha2_steps)
    rows = []
    for x in grid:
        row = [float(x)]
        for name in SIX_STATES:
            if spec.sweep == "alpha2":
                state_a = _parse_state(name, energy=float(x))
                state_b = vacuum()
            else:
                state_a = _parse_state(name, energy=spec.alpha2)
                state_b = _parse_state("cs", energy=float(x))
            curve = metrology.sample_curve(state_a, state_b, scheme, loss_r=loss_r)
            row.append(metrology.fwhm(curve))
        rows.append(row)
    header = ["x"] + [f"fwhm_{name}" for name in SIX_STATES]
    _write_rows(spec.out, header, rows, spec.format)
    return EXIT_OK


def cmd_wigner(spec) -> int:
    state = _parse_state(spec.state_a, complex(spec.alpha_re, spec.alpha_im))
    if spec.resolution < 2:
        raise InvalidSpec("resolution must be at least 2")
    half = spec.window if spec.window is not None else wigner.default_window(state)
    if not 0 < half < math.inf:
        raise InvalidSpec("window must be positive and finite")
    grid = wigner.wigner_grid(state, (-half, half), (-half, half), spec.resolution)
    rows = []
    for i, y1 in enumerate(grid.y1_axis):
        for j, y2 in enumerate(grid.y2_axis):
            rows.append([float(y1), float(y2), float(grid.values[i, j])])
    _write_rows(spec.out, ["y1", "y2", "w"], rows, spec.format)
    return EXIT_OK


def cmd_loss(spec) -> int:
    if spec.r_steps < 1:
        raise InvalidSpec("r-steps must be at least 1")
    if not 0.0 <= spec.r_min <= spec.r_max < 1.0:
        raise InvalidSpec("loss grid must satisfy 0 <= r-min <= r-max < 1")
    state_a = _parse_state(spec.state_a, energy=spec.alpha2)
    state_b = _parse_state(spec.state_b, energy=spec.zeta2)
    scheme = Scheme.parse(spec.scheme)
    r_grid = np.linspace(spec.r_min, spec.r_max, spec.r_steps)
    rows = [list(item) for item in metrology.loss_sweep(state_a, state_b, spec.phi, scheme, r_grid, spec.metric)]
    _write_rows(spec.out, ["loss_r", spec.metric], rows, spec.format)
    return EXIT_OK


def oracle_grid(quick: bool = False):
    """The regression grid: every state kind against vacuum and coherent inputs."""
    if quick:
        states_ = ("cs", "mps1")
        alpha2s = (2.0,)
        zeta2s = (0.0, 2.0)
        phis = (0.3, 2.7)
        losses = (0.0, 0.5)
    else:
        states_ = SIX_STATES
        alpha2s = (0.5, 2.0, 8.0)
        zeta2s = (0.0, 2.0, 25.0)
        phis = (0.3, 1.1, 2.7)
        losses = (0.0, 0.2, 0.5)
    for name in states_:
        for a2 in alpha2s:
            for z2 in zeta2s:
                for phi in phis:
                    for r in losses:
                        yield name, a2, z2, phi, r


def cmd_oracle_check(spec) -> int:
    rows = []
    worst = (0.0, None)
    for name, a2, z2, phi, r in oracle_grid(spec.quick):
        state_a = _parse_state(name, energy=a2)
        state_b = vacuum() if z2 == 0.0 else _parse_state("cs", energy=z2)
        config = MziConfig(phi=phi, loss_r=r)
        out = propagate(state_a, state_b, config)
        result = fock_oracle.simulate(state_a, state_b, config)
        d_parity = abs(detection.parity_expectation(out) - result.parity)
        d_zero = abs(detection.z_expectation(out) - result.zero)
        n_check = len(result.probs) - 1
        dist = detection.port_distribution(out, cutoff=n_check)
        d_pn = float(np.max(np.abs(dist.probs - result.probs)))
        rows.append([name, a2, z2, phi, r, d_parity, d_zero, d_pn])
        local = max(d_parity, d_zero, d_pn)
        if local > worst[0]:
            worst = (local, (name, a2, z2, phi, r))
    if spec.out:
        header = ["state", "alpha2", "zeta2", "phi", "loss_r", "d_parity", "d_zero", "d_pn"]
        _write_rows(spec.out, header, rows, spec.format)
    print(f"checked {len(rows)} grid points; worst |engine - oracle| = {_fmt(worst[0])} at {worst[1]}")
    if worst[0] > ORACLE_TOLERANCE:
        print(f"FAIL: disagreement exceeds {ORACLE_TOLERANCE:g}")
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidSpec(f"{path}:{lineno}: expected key=value")
                key, val = line.split("=", 1)
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise IOError(f"cannot read config {path}: {exc}") from exc
    return values


_COMMON_DEFAULTS = {
    "state_a": "cs",
    "alpha2": 2.0,
    "state_b": "vacuum",
    "zeta2": 0.0,
    "scheme": "parity",
    "phi_min": -math.pi,
    "phi_max": math.pi,
    "phi_steps": 201,
    "loss_r": 0.0,
    "out": None,
    "format": "csv",
}

_COMMAND_DEFAULTS = {
    "signal": {},
    "sensitivity": {},
    "fwhm": {"alpha2_min": 0.5, "alpha2_max": 8.0, "alpha2_steps": 8, "sweep": "alpha2"},
    "wigner": {"alpha_re": 1.0, "alpha_im": 1.0, "window": None, "resolution": 201},
    "loss": {"phi": 0.02, "metric": "ratio", "r_min": 0.0, "r_max": 0.5, "r_steps": 6},
    "oracle-check": {"quick": False},
}

_FLOAT_KEYS = {
    "alpha2", "zeta2", "phi_min", "phi_max", "loss_r", "alpha2_min", "alpha2_max",
    "alpha_re", "alpha_im", "window", "phi", "r_min", "r_max",
}
_INT_KEYS = {"phi_steps", "alpha2_steps", "resolution", "r_steps"}
_BOOL_KEYS = {"quick"}


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _INT_KEYS:
        return int(value)
    if key in _BOOL_KEYS:
        return value.lower() in ("1", "true", "yes", "on")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qlidar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value spec file; flags override it")
        p.add_argument("--state-a", dest="state_a", help="input state kind (cs, ecss, mps0..mps3, vacuum)")
        p.add_argument("--alpha2", type=float, help="|alpha|^2 of the first input")
        p.add_argument("--state-b", dest="state_b", help="second input kind (default vacuum)")
        p.add_argument("--zeta2", type=float, help="|zeta|^2 of the second input")
        p.add_argument("--scheme", help="detection scheme: parity or z")
        p.add_argument("--phi-min", dest="phi_min", type=float)
        p.add_argument("--phi-max", dest="phi_max", type=float)
        p.add_argument("--phi-steps", dest="phi_steps", type=int)
        p.add_argument("--loss-r", dest="loss_r", type=float, help="loss reflectivity in [0, 1)")
        p.add_argument("--out", help="output path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")

    p = sub.add_parser("signal", help="observable vs phase (state-a may be a comma list)")
    add_common(p)

    p = sub.add_parser("sensitivity", help="delta-phi, shot-noise floor and their ratio vs phase")
    add_common(p)

    p = sub.add_parser("fwhm", help="fringe width of all six states vs |alpha|^2")
    add_common(p)
    p.add_argument("--alpha2-min", dest="alpha2_min", type=float)
    p.add_argument("--alpha2-max", dest="alpha2_max", type=float)
    p.add_argument("--alpha2-steps", dest="alpha2_steps", type=int)
    p.add_argument("--sweep", choices=("alpha2", "zeta2"), help="variable carried in the x column")

    p = sub.add_parser("wigner", help="phase-space grid of one input state")
    add_common(p)
    p.add_argument("--alpha-re", dest="alpha_re", type=float)
    p.add_argument("--alpha-im", dest="alpha_im", type=float)
    p.add_argument("--window", type=float, help="half-width of the square grid")
    p.add_argument("--resolution", type=int)

    p = sub.add_parser("loss", help="figure of merit vs loss reflectivity")
    add_common(p)
    p.add_argument("--phi", type=float, help="fixed phase for the ratio metric")
    p.add_argument("--metric", choices=("ratio", "fwhm"))
    p.add_argument("--r-min", dest="r_min", type=float)
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--r-steps", dest="r_steps", type=int)

    p = sub.add_parser("oracle-check", help="engine vs Fock-oracle regression grid")
    add_common(p)
    p.add_argument("--quick", action="store_const", const=True, help="small subgrid")

    return parser


def _resolve_spec(args: argparse.Namespace) -> argparse.Namespace:
    defaults = dict(_COMMON_DEFAULTS)
    defaults.update(_COMMAND_DEFAULTS[args.command])
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in file_values:
        if key not in defaults:
            raise InvalidSpec(f"unknown config key {key!r}")
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            continue
        if key in file_values:
            setattr(args, key, _coerce(key, file_values[key]))
        else:
            setattr(args, key, default)
    return args


_HANDLERS = {
    "signal": cmd_signal,
    "sensitivity": cmd_sensitivity,
    "fwhm": cmd_fwhm,
    "wigner": cmd_wigner,
    "loss": cmd_loss,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _resolve_spec(args)
        return _HANDLERS[args.command](spec)
    except InvalidSpec as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    except (ValueError, KeyError) as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
