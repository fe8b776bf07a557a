import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlidar import cli


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
        from qlidar.detection import Scheme

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
        curve = met.SignalCurve(phis=phis, values=vals, scheme=Scheme.PARITY)
        assert met.peak_count(curve, (-math.pi, math.pi), side="folded", midline=0.0) == 2


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
        from qlidar.interferometer import MziConfig
        from qlidar.states import StateKind, make_state, vacuum

        lossless = met.phase_sensitivity(
            make_state(StateKind.CS, math.sqrt(2.0)), vacuum(), MziConfig.lossless(0.02), Scheme.PARITY
        )
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


class TestSpecHandling:
    def test_invalid_scheme_exit_code(self, capsys):
        assert run_cli(["signal", "--state-a", "cs", "--scheme", "intensity"]) == cli.EXIT_INVALID_SPEC

    def test_invalid_state_exit_code(self, capsys):
        assert run_cli(["signal", "--state-a", "mps9"]) == cli.EXIT_INVALID_SPEC

    def test_bad_phi_grid(self, capsys):
        assert run_cli(["signal", "--state-a", "cs", "--phi-steps", "1"]) == cli.EXIT_INVALID_SPEC

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

    def test_io_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = run_cli(["signal", "--state-a", "cs", "--phi-steps", "3", "--out", str(missing)])
        assert code == cli.EXIT_IO

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

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wavelength = 3\n")
        assert run_cli(["signal", "--config", str(cfg)]) == cli.EXIT_INVALID_SPEC


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


def test_console_entry_point():
    # the child finds the package where this process imported it, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "qlidar.cli", "signal", "--state-a", "cs", "--phi-steps", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("phi,value")
