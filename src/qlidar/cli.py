"""Command-line driver emitting plot-ready sweep data as CSV or JSON.

Subcommands reproduce the library's figure data (signal and sensitivity
curves, fringe-width sweeps, phase-space grids, loss sweeps) and run the
engine-versus-oracle regression grid.  Each subcommand takes only the flags
it reads.  A key=value config file (--config) is read as --key=value flags
placed before the command line's own, so flags win; identical specs produce
byte-identical output files.

Exit codes: 0 success, 1 invalid spec or usage error, 2 oracle disagreement,
3 I/O failure, 4 numerical limit (a probability, residue or bound check failed,
no fringe peak or half-level crossing was found, a state's Gram sum is
degenerate, or the oracle's cutoff drops too much probability).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import detection, fock_oracle, metrology, wigner
from .detection import Scheme
from .interferometer import MziConfig, _check_loss, _check_phase, propagate
from .states import StateKind, SuperposedState, make_state, vacuum

EXIT_OK = 0
EXIT_INVALID_SPEC = 1
EXIT_ORACLE_MISMATCH = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

ORACLE_TOLERANCE = 1e-8
MAX_ROWS = wigner.MAX_RESOLUTION**2  # grid steps of any sweep: no more rows than the largest wigner grid

SIX_STATES = ("cs", "ecss", "mps0", "mps1", "mps2", "mps3")


class InvalidSpec(ValueError):
    """A sweep specification failed validation; message names the field."""


# 17 significant digits round-trip every float; inf, -inf and nan (of either sign) spell themselves
_fmt = "{:.17g}".format


def _csv_cells(column) -> list[str]:
    if not isinstance(column, np.ndarray):
        return [x if isinstance(x, str) else _fmt(x) for x in column]
    # each distinct bit pattern is formatted once; bits, not values, keep -0 apart from 0
    bits, index = np.unique(column.view(np.uint64), return_inverse=True)
    text = np.array(list(map(_fmt, bits.view(np.float64).tolist())), dtype=object)
    return text[index].tolist()


def _json_cells(column) -> list:
    # JSON has no inf or nan, so such a cell carries its CSV spelling as a string
    cells = column.tolist() if isinstance(column, np.ndarray) else column
    return [x if isinstance(x, str) or math.isfinite(x) else _fmt(x) for x in cells]


def _write_rows(path: str | None, header: list[str], columns: list, fmt: str) -> None:
    """Write equal-length columns (float64 arrays, or sequences of str and float) as CSV or JSON rows."""
    if fmt == "json":
        rows = list(zip(*map(_json_cells, columns)))
        text = json.dumps({"columns": header, "rows": rows}, indent=2, allow_nan=False) + "\n"
    else:
        text = "\n".join([",".join(header)] + list(map(",".join, zip(*map(_csv_cells, columns))))) + "\n"
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


def _check_steps(flag: str, steps: int, least: int) -> None:
    if not least <= steps <= MAX_ROWS:
        raise InvalidSpec(f"{flag} must lie in [{least}, {MAX_ROWS}]")


def _phi_grid(spec) -> np.ndarray:
    _check_steps("phi-steps", spec.phi_steps, 2)
    _check_phase(np.array([spec.phi_min, spec.phi_max]))
    if not spec.phi_max > spec.phi_min:
        raise InvalidSpec("phi-max must exceed phi-min")
    return np.linspace(spec.phi_min, spec.phi_max, spec.phi_steps)


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
    _write_rows(spec.out, header, [phis] + columns, spec.format)
    return EXIT_OK


def cmd_sensitivity(spec) -> int:
    state_a = _parse_state(spec.state_a, energy=spec.alpha2)
    state_b = _parse_state(spec.state_b, energy=spec.zeta2)
    scheme = Scheme.parse(spec.scheme)
    phis = _phi_grid(spec)
    loss_r = _check_loss(spec.loss_r)
    points = metrology.sensitivity_curve(state_a, state_b, scheme, phis, loss_r)
    rows = [[p.phi, p.delta_phi, p.snl, p.ratio] for p in points]
    _write_rows(spec.out, ["phi", "delta_phi", "snl", "ratio"], list(zip(*rows)), spec.format)
    return EXIT_OK


def cmd_fwhm(spec) -> int:
    _check_steps("alpha2-steps", spec.alpha2_steps, 1)
    if spec.alpha2_min <= 0 or spec.alpha2_max < spec.alpha2_min:
        raise InvalidSpec("alpha2 grid must be positive and increasing")
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
    _write_rows(spec.out, header, list(zip(*rows)), spec.format)
    return EXIT_OK


def cmd_wigner(spec) -> int:
    state = _parse_state(spec.state_a, complex(spec.alpha_re, spec.alpha_im))
    half = spec.window if spec.window is not None else wigner.default_window(state)
    if not 0 < half < math.inf:
        raise InvalidSpec("window must be positive and finite")
    grid = wigner.wigner_grid(state, (-half, half), (-half, half), spec.resolution)
    r1, r2 = grid.values.shape
    columns = [np.repeat(grid.y1_axis, r2), np.tile(grid.y2_axis, r1), grid.values.ravel()]
    _write_rows(spec.out, ["y1", "y2", "w"], columns, spec.format)
    return EXIT_OK


def cmd_loss(spec) -> int:
    _check_steps("r-steps", spec.r_steps, 1)
    if not spec.r_min <= spec.r_max:  # metrology.loss_sweep checks the range of every value
        raise InvalidSpec("loss grid must satisfy r-min <= r-max")
    state_a = _parse_state(spec.state_a, energy=spec.alpha2)
    state_b = _parse_state(spec.state_b, energy=spec.zeta2)
    scheme = Scheme.parse(spec.scheme)
    r_grid = np.linspace(spec.r_min, spec.r_max, spec.r_steps)
    rows = metrology.loss_sweep(state_a, state_b, spec.phi, scheme, r_grid, spec.metric)
    _write_rows(spec.out, ["loss_r", spec.metric], list(zip(*rows)), spec.format)
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
        _write_rows(spec.out, header, list(zip(*rows)), spec.format)
    print(f"checked {len(rows)} grid points; worst |engine - oracle| = {_fmt(worst[0])} at {worst[1]}")
    if worst[0] > ORACLE_TOLERANCE:
        print(f"FAIL: disagreement exceeds {ORACLE_TOLERANCE:g}")
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def _switch(text: str) -> bool:
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


# Every option once, keyed by flag; a subcommand adds the flags it lists in _COMMANDS.
_OPTIONS = {
    "--state-a": dict(default="cs", help="input state kind (cs, ecss, mps0..mps3, vacuum)"),
    "--alpha2": dict(type=float, default=2.0, help="|alpha|^2 of the first input"),
    "--state-b": dict(default="vacuum", help="second input kind"),
    "--zeta2": dict(type=float, default=0.0, help="|zeta|^2 of the second input"),
    "--scheme": dict(default="parity", help="detection scheme: parity or z"),
    "--phi-min": dict(type=float, default=-math.pi, help="first phase of the grid"),
    "--phi-max": dict(type=float, default=math.pi, help="last phase of the grid"),
    "--phi-steps": dict(type=int, default=201, help="phases in the grid"),
    "--loss-r": dict(type=float, default=0.0, help="loss reflectivity in [0, 1)"),
    "--alpha2-min": dict(type=float, default=0.5, help="first x value (|alpha|^2, or |zeta|^2 with --sweep zeta2)"),
    "--alpha2-max": dict(type=float, default=8.0, help="last x value"),
    "--alpha2-steps": dict(type=int, default=8, help="x values"),
    "--sweep": dict(choices=("alpha2", "zeta2"), default="alpha2", help="variable carried in the x column"),
    "--alpha-re": dict(type=float, default=1.0, help="real part of the coherent amplitude"),
    "--alpha-im": dict(type=float, default=1.0, help="imaginary part of the coherent amplitude"),
    "--window": dict(type=float, default=None, help="half-width of the square grid; None covers every lobe"),
    "--resolution": dict(type=int, default=201, help="grid points per axis"),
    "--phi": dict(type=float, default=0.02, help="fixed phase for the ratio metric"),
    "--metric": dict(choices=("ratio", "fwhm"), default="ratio", help="figure of merit"),
    "--r-min": dict(type=float, default=0.0, help="first loss reflectivity"),
    "--r-max": dict(type=float, default=0.5, help="last loss reflectivity"),
    "--r-steps": dict(type=int, default=6, help="loss reflectivities"),
    "--quick": dict(type=_switch, nargs="?", const=True, default=False, help="small subgrid"),
    "--out": dict(default=None, help="output path; None writes to stdout"),
    "--format": dict(choices=("csv", "json"), default="csv", help="output format"),
}

_PAIR = ("--state-a", "--alpha2", "--state-b", "--zeta2", "--scheme")
_CURVE = _PAIR + ("--phi-min", "--phi-max", "--phi-steps", "--loss-r")
_OUTPUT = ("--out", "--format")

_COMMANDS = {
    "signal": (cmd_signal, "observable vs phase (state-a may be a comma list)", _CURVE + _OUTPUT),
    "sensitivity": (cmd_sensitivity, "delta-phi, shot-noise floor and their ratio vs phase", _CURVE + _OUTPUT),
    "fwhm": (
        cmd_fwhm,
        "fringe width of all six states vs |alpha|^2",
        ("--alpha2", "--scheme", "--loss-r", "--alpha2-min", "--alpha2-max", "--alpha2-steps", "--sweep") + _OUTPUT,
    ),
    "wigner": (
        cmd_wigner,
        "phase-space grid of one input state",
        ("--state-a", "--alpha-re", "--alpha-im", "--window", "--resolution") + _OUTPUT,
    ),
    "loss": (
        cmd_loss,
        "figure of merit vs loss reflectivity",
        _PAIR + ("--phi", "--metric", "--r-min", "--r-max", "--r-steps") + _OUTPUT,
    ),
    "oracle-check": (cmd_oracle_check, "engine vs Fock-oracle regression grid", ("--quick",) + _OUTPUT),
}


# flags a subcommand reads in one mode only: command -> (flag, mode option, the mode that reads it)
_MODE_FLAGS = {"fwhm": ("--alpha2", "sweep", "zeta2"), "loss": ("--phi", "metric", "ratio")}


def _check_mode_flags(spec, argv: list[str]) -> None:
    if spec.command not in _MODE_FLAGS:
        return
    flag, option, mode = _MODE_FLAGS[spec.command]
    given = getattr(spec, option)
    # an option-like token is never taken as another flag's value, so a token naming the flag sets it
    if given != mode and any(arg == flag or arg.startswith(flag + "=") for arg in argv):
        raise InvalidSpec(f"{flag} is read only with --{option} {mode}, not with --{option} {given}")


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 like any invalid spec; exit 2 means oracle disagreement
    def error(self, message):
        raise InvalidSpec(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qlidar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, flags) in _COMMANDS.items():
        p = sub.add_parser(
            name, help=summary, allow_abbrev=False, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.add_argument("--config", help="key=value spec file; keys are flag names, flags override it")
        mode_flag, option, mode = _MODE_FLAGS.get(name, (None, None, None))
        for flag in flags:
            options = _OPTIONS[flag]
            if flag == mode_flag:
                options = dict(options, help=f"{options['help']}; read only with --{option} {mode}")
            p.add_argument(flag, **options)
    return parser


def _config_flags(path: str) -> list[str]:
    """The key=value lines of a spec file as --key=value flags; '#' starts a comment."""
    flags = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidSpec(f"{path}:{lineno}: expected key=value")
                key, val = line.split("=", 1)
                key = key.strip().replace("_", "-")
                if key == "config":
                    raise InvalidSpec(f"{path}:{lineno}: a config file cannot name another")
                flags.append(f"--{key}={val.strip()}")
    except OSError as exc:
        raise IOError(f"cannot read config {path}: {exc}") from exc
    return flags


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        spec = parser.parse_args(argv)
        if spec.config:
            # file entries go before the command line's flags, so the flags win
            argv = argv[:1] + _config_flags(spec.config) + argv[1:]
            spec = parser.parse_args(argv)
        _check_mode_flags(spec, argv)
        return _COMMANDS[spec.command][0](spec)
    # before the ValueError clause: NoPeak, DegenerateState and CutoffTooSmall are both
    except ArithmeticError as exc:
        print(f"numerical limit: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
