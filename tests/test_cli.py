import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from qlidar import cli, detection, fock_oracle, metrology, states, wigner


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSignal:
    def test_basic_csv(self, tmp_path):
        out = tmp_path / "signal.csv"
        code = run_cli(
            [
                "signal", "--state-a", "cs", "--alpha2", "2", "--scheme", "parity",
                "--phi-min", "0", "--phi-max", str(math.pi), "--phi-steps", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["phi", "value"]
        assert len(rows) == 3
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-15)

    def test_multi_state_header(self, tmp_path):
        out = tmp_path / "multi.csv"
        code = run_cli(
            [
                "signal", "--state-a", "cs,mps0", "--alpha2", "2",
                "--phi-steps", "5", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["phi", "value_cs", "value_mps0"]
        assert len(rows) == 5

    @pytest.mark.parametrize(
        "args,row,want",
        [
            # the raw kernel gives -1.0000000000000004 at pi, where parity_expectation gives -1
            (["--state-a", "mps1", "--alpha2", "2", "--phi-min", "3.0", "--phi-max", "3.1415926535897931"], 1, "-1"),
            # the raw kernel gives -1.1641532182693481e-10, where z_expectation clamps to 0
            (["--state-a", "mps3", "--alpha2", "0.01", "--scheme", "z",
              "--phi-min", "3.1185829417715083", "--phi-max", "3.2"], 0, "0"),
        ],
        ids=["parity", "z"],
    )
    def test_values_within_the_observable_range(self, args, row, want, tmp_path):
        out = tmp_path / "signal.csv"
        assert run_cli(["signal", *args, "--phi-steps", "2", "--out", str(out)]) == 0
        assert read_csv(out)[1][row][1] == want

    def test_json_matches_csv(self, tmp_path):
        args = ["signal", "--state-a", "ecss", "--alpha2", "1.5", "--phi-steps", "7"]
        csv_path, json_path = tmp_path / "a.csv", tmp_path / "a.json"
        assert run_cli(args + ["--out", str(csv_path), "--format", "csv"]) == 0
        assert run_cli(args + ["--out", str(json_path), "--format", "json"]) == 0
        _, rows = read_csv(csv_path)
        payload = json.loads(json_path.read_text())
        assert payload["columns"] == ["phi", "value"]
        for row_csv, row_json in zip(rows, payload["rows"]):
            assert [float(v) for v in row_csv] == row_json

    def test_fig2_style_foldness(self, tmp_path):
        from qlidar import metrology as met

        out = tmp_path / "mps0.csv"
        code = run_cli(
            [
                "signal", "--state-a", "mps0", "--alpha2", "2", "--scheme", "parity",
                "--phi-min", str(-math.pi), "--phi-max", str(math.pi - 2 * math.pi / 4096),
                "--phi-steps", "4096", "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        phis = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        curve = met.SignalCurve(phis=phis, values=vals)
        assert len(met.peak_locations(curve, (-math.pi, math.pi), side="folded", midline=0.0)) == 2


class TestSensitivity:
    def test_rows_and_floor(self, tmp_path):
        out = tmp_path / "sens.csv"
        code = run_cli(
            [
                "sensitivity", "--state-a", "cs", "--alpha2", "2", "--scheme", "parity",
                "--phi-min", "0.02", "--phi-max", "1.0", "--phi-steps", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["phi", "delta_phi", "snl", "ratio"]
        first = rows[0]
        assert float(first[0]) == pytest.approx(0.02)
        assert float(first[3]) == pytest.approx(1.0, abs=0.02)
        assert float(first[2]) == pytest.approx(1 / math.sqrt(2.0), abs=1e-12)

    def test_stationary_point_serializes_inf(self, tmp_path):
        out = tmp_path / "sens0.csv"
        code = run_cli(
            [
                "sensitivity", "--state-a", "ecss", "--alpha2", "2",
                "--phi-min", "0", "--phi-max", "1", "--phi-steps", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0][1] == "inf"
        assert rows[0][3] == "inf"

    def test_stationary_point_json_is_strict(self, tmp_path):
        out = tmp_path / "sens0.json"
        code = run_cli(
            [
                "sensitivity", "--state-a", "ecss", "--alpha2", "2",
                "--phi-min", "0", "--phi-max", "1", "--phi-steps", "2",
                "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text(), parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))
        assert payload["rows"][0][1] == "inf"
        assert payload["rows"][0][3] == "inf"
        assert all(isinstance(v, float) for v in payload["rows"][1])

    def test_supersensitive_pair(self, tmp_path):
        out = tmp_path / "mps1.csv"
        code = run_cli(
            [
                "sensitivity", "--state-a", "mps1", "--alpha2", "2",
                "--state-b", "cs", "--zeta2", "2", "--scheme", "parity",
                "--phi-min", "0.05", "--phi-max", "3.0", "--phi-steps", "400",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        ratios = [float(r[3]) for r in rows if r[3] != "inf"]
        assert min(ratios) < 1.0

    @pytest.mark.parametrize(
        "args,zero_rows",
        [
            # a coherent state at phi = 4.4e-16: no state beats the shot-noise floor at an extremum (criterion 8)
            (["--state-a", "cs", "--alpha2", "51"], [100]),
            (["--state-a", "mps0", "--alpha2", "2", "--state-b", "cs", "--zeta2", "25"], [0, 200]),
            # Z of mps3 near pi is 0 up to +-2.3e-10 of rounding noise
            (
                ["--state-a", "mps3", "--alpha2", "0.01", "--scheme", "z"]
                + ["--phi-min", "3.10", "--phi-max", "3.2", "--phi-steps", "11"],
                [0, 1, 2, 3, 6, 8, 9],
            ),
        ],
        ids=["cs", "mps0-cs", "mps3-z"],
    )
    def test_zero_variance_is_stationary(self, args, zero_rows, tmp_path):
        # the variance clamps to 0 where the slope is rounding noise just above the floor; such a row once read
        # delta_phi = ratio = 0 and is a stationary point
        out = tmp_path / "sens.csv"
        assert run_cli(["sensitivity"] + args + ["--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(rows[i][1] == rows[i][3] == "inf" for i in zero_rows)
        assert all(float(row[1]) > 0.0 and float(row[3]) > 0.0 for row in rows)

    @pytest.mark.parametrize(
        "args,row,cells",
        [
            # a slope of 3.9e-12 lies within its rounding bound B = 1.08e-9, so it is zero to rounding
            (
                ["--state-a", "mps3", "--alpha2", "0.01", "--scheme", "z", "--phi-min", "3.10", "--phi-max", "3.2"],
                5,
                ["3.1500000000000004", "inf"],
            ),
            # a slope of -2.1e-15 lies beyond its B = 1.8e-16: a large but finite delta_phi
            (
                ["--state-a", "mps0", "--alpha2", "0.01", "--phi-min", "1.5", "--phi-max", "1.6"],
                6,
                ["1.5600000000000001", "13765680485.904221"],
            ),
        ],
        ids=["mps3-z-within", "mps0-beyond"],
    )
    def test_slope_rounding_bound_decides_stationary_points(self, args, row, cells, tmp_path):
        out = tmp_path / "sens.csv"
        assert run_cli(["sensitivity"] + args + ["--phi-steps", "11", "--out", str(out)]) == 0
        assert read_csv(out)[1][row][:2] == cells

    @pytest.mark.parametrize("steps", [17, 201])
    def test_slope_rounding_residue_is_no_numerical_limit(self, steps, tmp_path):
        # mps3 at alpha2 = 0.1 against a zeta2 = 25 coherent state: its slope sums keep an imaginary residue of
        # about 1.05e-12, the rounding of their K^2 terms, which once exited 4
        from qlidar import closedform as cf
        from qlidar.detection import Scheme
        from qlidar.interferometer import MziConfig
        from qlidar.states import StateKind, make_state

        out = tmp_path / "sens.csv"
        args = ["--state-a", "mps3", "--alpha2", "0.1", "--state-b", "cs", "--zeta2", "25", "--loss-r", "0.0625"]
        assert run_cli(["sensitivity"] + args + ["--phi-steps", str(steps), "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == steps
        phis = np.linspace(-math.pi, math.pi, steps)
        state_a, state_b = make_state(StateKind.MPS3, math.sqrt(0.1)), make_state(StateKind.CS, 5.0)
        slopes = detection.expectation_derivative_curve(state_a, state_b, Scheme.PARITY, phis, 0.0625)
        contexts = [cf.closed_form_context(StateKind.MPS3, 0.1, MziConfig(phi=phi, loss_r=0.0625), 25.0) for phi in phis]
        assert np.abs(slopes - [cf.parity_derivative_coherent(ctx) for ctx in contexts]).max() < 1e-10

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_match_rows_of_points(self, fmt, tmp_path):
        from helpers import reference_fmt, reference_rows_text

        from qlidar.detection import Scheme
        from qlidar.states import StateKind, make_state

        out = tmp_path / f"sens.{fmt}"
        args = ["sensitivity", "--state-a", "mps1", "--alpha2", "2", "--state-b", "cs", "--zeta2", "2"]
        assert run_cli(args + ["--loss-r", "0.2", "--format", fmt, "--out", str(out)]) == 0
        state_a, state_b = make_state(StateKind.MPS1, math.sqrt(2.0)), make_state(StateKind.CS, math.sqrt(2.0))
        phis = np.linspace(-math.pi, math.pi, 201)
        points = metrology.sensitivity_curve(state_a, state_b, Scheme.PARITY, phis, 0.2)
        rows = [[p.phi, p.delta_phi, p.snl, p.ratio] for p in points]
        assert any(math.isinf(row[1]) for row in rows)
        if fmt == "json":
            rows = [[x if math.isfinite(x) else reference_fmt(x) for x in row] for row in rows]
        assert out.read_text() == reference_rows_text(["phi", "delta_phi", "snl", "ratio"], rows, fmt)


class TestFwhm:
    def test_high_energy_agreement(self, tmp_path):
        out = tmp_path / "fwhm.csv"
        code = run_cli(
            [
                "fwhm", "--scheme", "z", "--alpha2-min", "8", "--alpha2-max", "8",
                "--alpha2-steps", "1", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "fwhm_cs", "fwhm_ecss", "fwhm_mps0", "fwhm_mps1", "fwhm_mps2", "fwhm_mps3"]
        widths = [float(v) for v in rows[0][1:]]
        assert (max(widths) - min(widths)) / min(widths) < 0.05

    def test_parity_defaults(self, tmp_path):
        # mps3 at |alpha|^2 = 5.857 meets its half level at a flat inflection,
        # where samples and evaluator may disagree in sign in the last bit
        out = tmp_path / "fwhm_parity.csv"
        assert run_cli(["fwhm", "--scheme", "parity", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 8
        assert float(rows[5][header.index("fwhm_mps3")]) == pytest.approx(math.pi, abs=1e-4)

    def test_zeta2_sweep(self, tmp_path):
        out = tmp_path / "fwhm_z2.csv"
        code = run_cli(
            [
                "fwhm", "--sweep", "zeta2", "--alpha2", "2", "--scheme", "z",
                "--alpha2-min", "2", "--alpha2-max", "8", "--alpha2-steps", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2
        assert all(0.0 < float(v) < 2 * math.pi for row in rows for v in row[1:])
        # more photons in the second port narrows the laser-light fringe
        assert float(rows[1][1]) < float(rows[0][1])


class TestWigner:
    def test_coherent_nonnegative(self, tmp_path):
        out = tmp_path / "wig.csv"
        code = run_cli(
            [
                "wigner", "--state-a", "cs", "--alpha-re", "1", "--alpha-im", "1",
                "--window", "4", "--resolution", "41", "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 41 * 41
        assert min(float(r[2]) for r in rows) >= -1e-9

    def test_undersampled_grid_rejected(self, tmp_path, capsys):
        # components 20 apart on the default window of +-15: fringe period 0.157 against a 0.15 step
        out = tmp_path / "wig.csv"
        args = ["wigner", "--state-a", "mps1", "--alpha-re", "10", "--alpha-im", "0"]
        assert run_cli(args + ["--out", str(out)]) == cli.EXIT_INVALID_SPEC
        err = capsys.readouterr().err
        assert err.startswith("invalid spec: resolution 201 undersamples") and "resolution that resolves them is 383" in err
        assert not out.exists()
        assert run_cli(args + ["--resolution", "801", "--out", str(out)]) == 0
        cells = np.loadtxt(out, delimiter=",", skiprows=1)
        y1, y2 = np.unique(cells[:, 0]), np.unique(cells[:, 1])
        assert len(y1) == len(y2) == 801
        assert np.sum(cells[:, 2]) * (y1[1] - y1[0]) * (y2[1] - y2[0]) == pytest.approx(1.0, abs=1e-3)


    def test_resolution_above_cap_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(wigner, "_evaluate", _no_computation)
        out = tmp_path / "wig.csv"
        assert run_cli(["wigner", "--resolution", "26740", "--out", str(out)]) == cli.EXIT_INVALID_SPEC
        assert capsys.readouterr().err == f"invalid spec: resolution must lie in [2, {wigner.MAX_RESOLUTION}] per axis\n"
        assert not out.exists()

    def test_fringes_beyond_cap_ask_for_narrower_window(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(wigner, "_evaluate", _no_computation)
        out = tmp_path / "wig.csv"
        args = ["wigner", "--state-a", "mps1", "--alpha-re", "100", "--alpha-im", "0", "--out", str(out)]
        assert run_cli(args) == cli.EXIT_INVALID_SPEC
        err = capsys.readouterr().err
        assert err.startswith("invalid spec: the interference fringes on this window need resolution 26740")
        assert "window at least 26.77 times narrower" in err
        assert not out.exists()


class TestLoss:
    def test_zero_loss_row_matches_lossless(self, tmp_path):
        out = tmp_path / "loss.csv"
        code = run_cli(
            [
                "loss", "--state-a", "cs", "--alpha2", "2", "--scheme", "parity",
                "--phi", "0.02", "--metric", "ratio", "--r-min", "0", "--r-max", "0.4",
                "--r-steps", "3", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["loss_r", "ratio"]
        from qlidar import metrology as met
        from qlidar.detection import Scheme
        from qlidar.states import StateKind, make_state, vacuum

        (lossless,) = met.sensitivity_curve(make_state(StateKind.CS, math.sqrt(2.0)), vacuum(), Scheme.PARITY, [0.02])
        assert float(rows[0][1]) == pytest.approx(lossless.ratio, abs=1e-12)


class TestOracleCheck:
    def test_quick_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code = run_cli(["oracle-check", "--quick", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["state", "alpha2", "zeta2", "phi", "loss_r", "d_parity", "d_zero", "d_pn"]
        assert len(rows) == 16
        assert max(float(r[5]) for r in rows) < 1e-8

    def test_disagreement_exits_2_after_writing_every_row(self, tmp_path, capsys, monkeypatch):
        simulate = fock_oracle.simulate

        def shifted(*args, **kwargs):
            result = simulate(*args, **kwargs)
            return dataclasses.replace(result, parity=result.parity + 1e-6)

        monkeypatch.setattr(fock_oracle, "simulate", shifted)
        out = tmp_path / "oracle.csv"
        assert run_cli(["oracle-check", "--quick", "--out", str(out)]) == cli.EXIT_ORACLE_MISMATCH
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL: disagreement exceeds 1e-08"
        header, rows = read_csv(out)
        assert header == ["state", "alpha2", "zeta2", "phi", "loss_r", "d_parity", "d_zero", "d_pn"]
        assert [(r[0], *map(float, r[1:5])) for r in rows] == list(cli.oracle_grid(quick=True))
        assert all(len(r) == 8 and float(r[5]) == pytest.approx(1e-6, abs=1e-8) for r in rows)

    # the nested loops that built the grid before it became a product of axes
    @staticmethod
    def _nested_grid(quick):
        if quick:
            axes = (("cs", "mps1"), (2.0,), (0.0, 2.0), (0.3, 2.7), (0.0, 0.5))
        else:
            axes = (cli.SIX_STATES, (0.5, 2.0, 8.0), (0.0, 2.0, 25.0), (0.3, 1.1, 2.7), (0.0, 0.2, 0.5))
        names, alpha2s, zeta2s, phis, losses = axes
        return [
            (name, a2, z2, phi, r)
            for name in names for a2 in alpha2s for z2 in zeta2s for phi in phis for r in losses
        ]

    @pytest.mark.parametrize("quick", [False, True])
    def test_grid_order(self, quick):
        grid = list(cli.oracle_grid(quick))
        assert grid == self._nested_grid(quick)
        assert len(grid) == (16 if quick else 486)

    def test_one_state_build_per_state_and_cell(self, monkeypatch):
        built = []
        make_state = states.make_state

        def counted(kind, amplitude):
            built.append((kind, amplitude))
            return make_state(kind, amplitude)

        monkeypatch.setattr(states, "make_state", counted)  # vacuum() builds through it
        monkeypatch.setattr(cli, "make_state", counted)
        assert run_cli(["oracle-check", "--quick"]) == 0
        cells = {point[:3] for point in cli.oracle_grid(quick=True)}
        assert len(built) == 2 * len(cells) == 8


class TestSpecHandling:
    def test_invalid_scheme_exit_code(self, capsys):
        assert run_cli(["signal", "--state-a", "cs", "--scheme", "intensity"]) == cli.EXIT_INVALID_SPEC

    def test_invalid_state_exit_code(self, capsys):
        assert run_cli(["signal", "--state-a", "mps9"]) == cli.EXIT_INVALID_SPEC

    def test_bad_phi_grid(self, capsys):
        assert run_cli(["signal", "--state-a", "cs", "--phi-steps", "1"]) == cli.EXIT_INVALID_SPEC

    @pytest.mark.parametrize(
        "command,flag,least",
        [("signal", "--phi-steps", 2), ("sensitivity", "--phi-steps", 2), ("fwhm", "--alpha2-steps", 1), ("loss", "--r-steps", 1)],
    )
    def test_step_counts_bounded_before_allocation(self, command, flag, least, tmp_path, capsys, monkeypatch):
        def no_grid(*a, **k):
            raise AssertionError("grid allocated before the size check")

        monkeypatch.setattr(np, "linspace", no_grid)
        out = tmp_path / "x.csv"
        assert run_cli([command, flag, str(10**12), "--out", str(out)]) == cli.EXIT_INVALID_SPEC
        assert capsys.readouterr().err == f"invalid spec: {flag[2:]} must lie in [{least}, {cli.MAX_ROWS}]\n"
        assert not out.exists()

    def test_step_bound_is_the_largest_wigner_grid(self):
        assert cli.MAX_ROWS == wigner.MAX_RESOLUTION**2
        cli._check_steps("phi-steps", cli.MAX_ROWS, 2)
        with pytest.raises(cli.InvalidSpec):
            cli._check_steps("phi-steps", cli.MAX_ROWS + 1, 2)

    @pytest.mark.parametrize(
        "args",
        [
            ["wigner", "--window", "nan"],
            ["wigner", "--window", "inf"],
            ["signal", "--phi-max", "inf"],
            ["signal", "--phi-min=-inf"],
            ["sensitivity", "--phi-max", "inf"],
            ["sensitivity", "--phi-min=-inf"],
        ],
    )
    def test_nonfinite_spec_rejected(self, args, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(args + ["--out", str(out)]) == cli.EXIT_INVALID_SPEC
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,target,error",
        [
            (["signal", "--phi-steps", "3"], "expectation_curve", detection.NegativeProbability("P(0) = -1.000e-03")),
            (["wigner", "--resolution", "21"], "_evaluate", ArithmeticError("Wigner values have imaginary residue 1e-3")),
        ],
    )
    def test_numerical_failure_exit_code(self, args, target, error, tmp_path, capsys, monkeypatch):
        def fail(*a, **k):
            raise error

        monkeypatch.setattr(wigner if target == "_evaluate" else detection, target, fail)
        out = tmp_path / "x.csv"
        assert run_cli(args + ["--out", str(out)]) == cli.EXIT_NUMERICAL == 4
        assert capsys.readouterr().err == f"numerical limit: {error}\n"
        assert not out.exists()

    def test_overflowing_state_is_a_numerical_limit(self, tmp_path, capsys):
        # the Gram sum of mps1 at alpha = 1e160 overflows to NaN; no row of NaN values is written
        args = ["wigner", "--state-a", "mps1", "--alpha-re", "1e160", "--alpha-im", "0", "--window", "1"]
        out = tmp_path / "x.csv"
        assert run_cli(args + ["--resolution", "3", "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical limit: Gram sum is not finite: (nan+nanj)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["signal", "--loss-r", "1", "--phi-steps", "3"],
            ["sensitivity", "--loss-r", "1", "--phi-steps", "3"],
            ["fwhm", "--scheme", "z", "--alpha2-min", "2", "--alpha2-max", "2", "--alpha2-steps", "1", "--loss-r", "1"],
            ["loss", "--r-max", "1", "--r-steps", "3"],
        ],
    )
    def test_total_loss_is_invalid_spec(self, args, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(args + ["--out", str(out)]) == cli.EXIT_INVALID_SPEC
        assert capsys.readouterr().err == "invalid spec: loss_r must lie in [0, 1), got 1.0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,code,message",
        [
            # the weights of mps3 at |alpha|^2 = 1e-9 cancel below the Gram floor: a valid spec at a numerical limit
            (["signal", "--state-a", "mps3", "--alpha2", "1e-9", "--phi-steps", "3"], 4, "numerical limit: Gram sum "),
            (["signal", "--state-a", "mps3", "--alpha2", "1e-9", "--phi-steps", "1"], 1, "invalid spec: phi-steps"),
            (["sensitivity", "--state-a", "vacuum", "--phi-steps", "3"], 1, "invalid spec: total input photon number"),
            (["signal", "--alpha2", "-1"], 1, "invalid spec: state energy must be nonnegative\n"),
            (["signal", "--phi-min", "1", "--phi-max", "1"], 1, "invalid spec: phi-max must exceed phi-min\n"),
            (["signal", "--state-a", ","], 1, "invalid spec: state-a must name at least one state\n"),
            # an explicit superposition is a library object, not a state kind
            (["signal", "--state-a", "custom"], 1, "invalid spec: unknown state kind 'custom' (expected one of:"),
            (["fwhm", "--alpha2-min", "0"], 1, "invalid spec: alpha2 grid must be positive and increasing\n"),
            (["loss", "--r-min", "0.4", "--r-max", "0.2"], 1, "invalid spec: loss grid must satisfy r-min <= r-max\n"),
        ],
    )
    def test_limit_or_spec_exit_code(self, args, code, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(args + ["--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("alpha2", ["1e40", "1e16"])
    def test_pair_exponents_without_phase_are_a_numerical_limit(self, alpha2, tmp_path, capsys):
        # S = |alpha|^2 >= 2^52 rounds each pair exponent's imaginary part by a radian or more: these specs
        # printed parity 0 where it is -1 (phi = pi at 1e40) and at phi = 3.0 (1e16), and exited 0
        args = ["signal", "--state-a", "mps1", "--alpha2", alpha2, "--phi-min", "3.0", "--phi-max", "3.1415926535897931"]
        out = tmp_path / "x.csv"
        assert run_cli(args + ["--phi-steps", "2", "--out", str(out)]) == cli.EXIT_NUMERICAL
        want = f"numerical limit: pair exponents lose their phase: S = max_k |a_k|^2 + |b_k|^2 = {float(alpha2):.3e} reaches 2^52\n"
        assert capsys.readouterr().err == want
        assert not out.exists()

    @pytest.mark.parametrize("command", ["signal", "sensitivity"])
    def test_overflowing_coherent_state_is_a_numerical_limit(self, command, capsys):
        # |alpha|^2 + |alpha|^2 overflows in the 1x1 Gram sum of cs, which fails at construction without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli([command, "--state-a", "cs", "--alpha2", "1e308", "--phi-steps", "3"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        assert captured.err.startswith("numerical limit:")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args,module,target,error",
        [
            (
                ["fwhm", "--scheme", "z", "--alpha2-min", "2", "--alpha2-max", "2", "--alpha2-steps", "1"],
                metrology,
                "fwhm",
                metrology.NoPeak("half level is never crossed on both sides of the peak"),
            ),
            (["oracle-check", "--quick"], fock_oracle, "simulate", fock_oracle.CutoffTooSmall("norm deficit 1e-9")),
        ],
    )
    def test_limit_failure_exit_code(self, args, module, target, error, tmp_path, capsys, monkeypatch):
        def fail(*a, **k):
            raise error

        assert isinstance(error, ValueError)  # library callers still catch these as ValueError
        monkeypatch.setattr(module, target, fail)
        out = tmp_path / "x.csv"
        assert run_cli(args + ["--out", str(out)]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical limit: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--config"])
    def test_io_error_exit_code(self, flag, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = run_cli(["signal", "--state-a", "cs", "--phi-steps", "3", flag, str(missing)])
        assert code == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("io error: cannot ")

    def test_closed_stdout_pipe_exits_0_quietly(self):
        # rows are written a block at a time, so a reader that leaves after one line breaks a later write
        argv = [sys.executable, "-m", "qlidar.cli", "signal", "--phi-steps", "200000"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
        assert proc.stdout.readline() == b"phi,value\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == cli.EXIT_OK
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_closed_out_pipe_is_an_io_error(self, tmp_path):
        fifo = tmp_path / "rows.csv"
        os.mkfifo(fifo)
        argv = [sys.executable, "-m", "qlidar.cli", "signal", "--phi-steps", "200000", "--out", str(fifo)]
        proc = subprocess.Popen(argv, stderr=subprocess.PIPE, env=_child_env())
        lines = []

        def read_first_line():
            with open(fifo, "rb") as reader:  # returns once the child opens the pipe to write
                lines.append(reader.readline())

        # in a thread, so that a child that never opens the pipe fails the test instead of hanging it
        reader = threading.Thread(target=read_first_line, daemon=True)
        reader.start()
        reader.join(timeout=120)
        assert lines == [b"phi,value\n"]
        assert proc.wait(timeout=120) == cli.EXIT_IO
        assert proc.stderr.read().decode().startswith(f"io error: cannot write {fifo}: ")
        proc.stderr.close()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("state_a = ecss\nalpha2 = 1.0\nphi-steps = 4  # comment\n")
        out1 = tmp_path / "from_file.csv"
        assert run_cli(["signal", "--config", str(cfg), "--out", str(out1)]) == 0
        _, rows = read_csv(out1)
        assert len(rows) == 4
        out2 = tmp_path / "overridden.csv"
        assert run_cli(["signal", "--config", str(cfg), "--phi-steps", "6", "--out", str(out2)]) == 0
        _, rows = read_csv(out2)
        assert len(rows) == 6

    @pytest.mark.parametrize(
        "text,message",
        [
            ("wavelength = 3\n", "unrecognized arguments: --wavelength=3"),
            ("# spec\nstate-a ecss\n", ":2: expected key=value"),
        ],
    )
    def test_bad_config_line(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run_cli(["signal", "--config", str(cfg)]) == cli.EXIT_INVALID_SPEC
        assert capsys.readouterr().err.endswith(f"{message}\n")


# flags that each subcommand does not read, with values other subcommands accept
UNREAD = {
    "fwhm": ["--state-a", "--state-b", "--zeta2", "--phi-min", "--phi-max", "--phi-steps"],
    "wigner": ["--alpha2", "--state-b", "--zeta2", "--scheme", "--phi-min", "--phi-max", "--phi-steps", "--loss-r"],
    "loss": ["--phi-min", "--phi-max", "--phi-steps", "--loss-r"],
    "oracle-check": [
        "--state-a", "--alpha2", "--state-b", "--zeta2", "--scheme", "--phi-min", "--phi-max", "--phi-steps", "--loss-r",
    ],
}
SAMPLE_VALUE = {
    "--state-a": "mps1", "--alpha2": "9", "--state-b": "cs", "--zeta2": "1", "--scheme": "z",
    "--phi-min": "0", "--phi-max": "1", "--phi-steps": "4096", "--loss-r": "0.3",
}
CHEAP_SPEC = {
    "fwhm": ["--scheme", "z", "--alpha2-min", "2", "--alpha2-max", "2", "--alpha2-steps", "1"],
    "wigner": ["--window", "3", "--resolution", "5"],
    "loss": ["--r-steps", "1"],
    "oracle-check": ["--quick"],
}


def _no_computation(*args, **kwargs):
    raise AssertionError("the spec was accepted")


class TestUsageErrors:
    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("command,flag", [(c, f) for c, flags in UNREAD.items() for f in flags])
    def test_unread_flag_rejected(self, command, flag, form, tmp_path, capsys):
        out = tmp_path / "x.csv"
        if form == "flag":
            extra = [flag, SAMPLE_VALUE[flag]]
        else:
            cfg = tmp_path / "spec.cfg"
            cfg.write_text(f"{flag[2:].replace('-', '_')} = {SAMPLE_VALUE[flag]}\n")
            extra = ["--config", str(cfg)]
        assert run_cli([command] + CHEAP_SPEC[command] + extra + ["--out", str(out)]) == cli.EXIT_INVALID_SPEC
        assert "invalid spec:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize(
        "args,flag,value,mode",
        [
            (["fwhm"] + CHEAP_SPEC["fwhm"], "--alpha2", "9", "--sweep alpha2"),
            (["fwhm", "--sweep", "alpha2"] + CHEAP_SPEC["fwhm"], "--alpha2", "2", "--sweep alpha2"),
            (["loss", "--metric", "fwhm", "--r-steps", "1"], "--phi", "1.0", "--metric fwhm"),
        ],
    )
    def test_mode_ignored_flag_rejected(self, args, flag, value, mode, form, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parse_state", _no_computation)
        out = tmp_path / "x.csv"
        if form == "flag":
            extra = [f"{flag}={value}"]
        else:
            cfg = tmp_path / "spec.cfg"
            cfg.write_text(f"{flag[2:]} = {value}\n")
            extra = ["--config", str(cfg)]
        assert run_cli(args + extra + ["--out", str(out)]) == cli.EXIT_INVALID_SPEC
        err = capsys.readouterr().err
        assert err.startswith("invalid spec:") and flag in err and mode in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,config",
        [
            (["signal", "--format", "xml"], None),
            (["signal", "--phi-steps", "abc"], None),
            (["signal", "--wavelength", "3"], None),
            (["signal"], "phi_steps = abc"),
            (["signal"], "format = xml"),
            (["oracle-check"], "quick = maybe"),
            (["oracle-check"], "config = other.cfg"),
        ],
    )
    def test_rejected_before_computation(self, args, config, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parse_state", _no_computation)
        out = tmp_path / "x.csv"
        if config is not None:
            cfg = tmp_path / "spec.cfg"
            cfg.write_text(config + "\n")
            args = args + ["--config", str(cfg)]
        assert run_cli(args + ["--out", str(out)]) == cli.EXIT_INVALID_SPEC
        assert "invalid spec:" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_equals_flags(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(
            "state_a = mps1\nalpha2 = 2\nstate-b = cs\nzeta2 = 2\nphi_min = 0.05\nphi_max = 3.0\n"
            "phi_steps = 16\nformat = json\n"
        )
        flags = [
            "sensitivity", "--state-a", "mps1", "--alpha2", "2", "--state-b", "cs", "--zeta2", "2",
            "--phi-min", "0.05", "--phi-max", "3.0", "--phi-steps", "16", "--format", "json",
        ]
        a, b = tmp_path / "from_file.json", tmp_path / "from_flags.json"
        assert run_cli(["sensitivity", "--config", str(cfg), "--out", str(a)]) == 0
        assert run_cli(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("value,rows", [("yes", 2), ("on", 2), ("1", 2), ("false", 1), ("0", 1)])
    def test_config_switch(self, value, rows, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "oracle_grid", lambda quick: [("cs", 2.0, 0.0, 0.3, 0.0)] * (2 if quick else 1))
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(f"quick = {value}\n")
        out = tmp_path / "oracle.csv"
        assert run_cli(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == rows


class TestHelp:
    @pytest.mark.parametrize(
        "command,entry",
        [
            ("fwhm", "--alpha2 ALPHA2 |alpha|^2 of the first input; read only with --sweep zeta2 (default: 2.0)"),
            ("loss", "--phi PHI fixed phase for the ratio metric; read only with --metric ratio (default: 0.02)"),
            ("signal", "--alpha2 ALPHA2 |alpha|^2 of the first input (default: 2.0)"),
        ],
    )
    def test_mode_flag_help_names_its_mode(self, command, entry, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--help"])
        assert exc.value.code == 0
        assert entry in " ".join(capsys.readouterr().out.split())


def _readme_cli_section() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("## CLI")
    return text[start : text.index("\n## ", start)]


class TestReadme:
    def test_examples_parse(self):
        block = _readme_cli_section().split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line) for line in block.splitlines() if line.startswith("qlidar ")]
        assert len(commands) >= len(cli._COMMANDS)
        parser = cli._build_parser()
        for tokens in commands:
            parser.parse_args(tokens[1:])

    def test_flag_table_matches_parser(self):
        rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", _readme_cli_section(), re.M)
        listed = {name: set(re.findall(r"--[\w-]+", flags)) for name, flags in rows}
        assert listed == {name: {"--config", *flags} for name, (_, _, flags) in cli._COMMANDS.items()}


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestRoundTrip:
    """Every CSV cell parses back to the library's float, bit for bit."""

    def test_wigner_rows_are_y1_major(self, tmp_path):
        from qlidar import wigner
        from qlidar.states import StateKind, make_state

        out = tmp_path / "wig.csv"
        args = ["wigner", "--state-a", "mps1", "--alpha-re", "1", "--alpha-im", "0.5", "--window", "3"]
        assert run_cli(args + ["--resolution", "21", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        cells = np.array([[float(v) for v in row] for row in rows])
        grid = wigner.wigner_grid(make_state(StateKind.MPS1, complex(1, 0.5)), (-3, 3), (-3, 3), 21)
        assert np.array_equal(_bits(cells[:, 0].reshape(21, 21)), _bits(np.repeat(grid.y1_axis[:, None], 21, 1)))
        assert np.array_equal(_bits(cells[:, 1].reshape(21, 21)), _bits(np.tile(grid.y2_axis, (21, 1))))
        assert np.array_equal(_bits(cells[:, 2].reshape(21, 21)), _bits(grid.values))
        assert not np.array_equal(grid.values, grid.values.T)

    def test_signal_columns(self, tmp_path):
        from qlidar import detection
        from qlidar.detection import Scheme
        from qlidar.states import StateKind, make_state, vacuum

        out = tmp_path / "sig.csv"
        args = ["signal", "--state-a", "cs,ecss,mps1", "--alpha2", "3", "--scheme", "z", "--loss-r", "0.2"]
        assert run_cli(args + ["--phi-steps", "33", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        cells = np.array([[float(v) for v in row] for row in rows])
        phis = np.linspace(-math.pi, math.pi, 33)
        assert np.array_equal(_bits(cells[:, 0]), _bits(phis))
        for col, kind in enumerate((StateKind.CS, StateKind.ECSS, StateKind.MPS1), 1):
            assert header[col] == f"value_{kind.value}"
            curve = detection.expectation_curve(make_state(kind, math.sqrt(3.0)), vacuum(), Scheme.Z, phis, 0.2)
            assert np.array_equal(_bits(cells[:, col]), _bits(curve))

    def test_sensitivity_inf_rows(self, tmp_path):
        from qlidar import metrology
        from qlidar.detection import Scheme
        from qlidar.states import StateKind, make_state, vacuum

        out = tmp_path / "sens.csv"
        args = ["sensitivity", "--state-a", "ecss", "--alpha2", "2", "--phi-min", "0", "--phi-max", str(math.pi)]
        assert run_cli(args + ["--phi-steps", "5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        cells = np.array([[float(v) for v in row] for row in rows])
        points = metrology.sensitivity_curve(
            make_state(StateKind.ECSS, math.sqrt(2.0)), vacuum(), Scheme.PARITY, np.linspace(0, math.pi, 5)
        )
        expected = np.array([[p.phi, p.delta_phi, p.snl, p.ratio] for p in points])
        assert np.array_equal(_bits(cells), _bits(expected))
        assert np.isinf(cells[:, 1]).any() and np.isfinite(cells[:, 1]).any()


class TestDeterminism:
    CASES = [
        ["signal", "--state-a", "mps2", "--alpha2", "2", "--phi-steps", "64"],
        ["sensitivity", "--state-a", "ecss", "--alpha2", "2", "--phi-min", "0.1", "--phi-max", "2", "--phi-steps", "32"],
        ["fwhm", "--scheme", "z", "--alpha2-min", "2", "--alpha2-max", "4", "--alpha2-steps", "2"],
        ["wigner", "--state-a", "mps1", "--window", "3", "--resolution", "21"],
        ["loss", "--state-a", "cs", "--alpha2", "2", "--phi", "0.02", "--r-steps", "4"],
        ["oracle-check", "--quick"],
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_byte_identical_reruns(self, tmp_path, case):
        a, b = tmp_path / "run_a.out", tmp_path / "run_b.out"
        assert run_cli(case + ["--out", str(a)]) == 0
        assert run_cli(case + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_wigner_independent_of_blas_threads(self):
        # the grid kernel makes no BLAS call, so a threaded BLAS cannot reorder its sums
        outputs = []
        for threads in ("1", "2"):
            env = _child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            argv = [sys.executable, "-m", "qlidar.cli", "wigner", "--state-a", "mps1", "--resolution", "61"]
            outputs.append(subprocess.run(argv, capture_output=True, env=env, check=True).stdout)
        assert outputs[0] == outputs[1] and outputs[0].startswith(b"y1,y2,w\n")


def _child_env(**extra) -> dict:
    # the child finds the package where this process imported it, installed or not
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), **extra)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qlidar.cli", "signal", "--state-a", "cs", "--phi-steps", "3"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("phi,value")
