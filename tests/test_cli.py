import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shehu.cli import load_config, main
from shehu.errors import ConfigError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransform:
    def test_triple_product_exponential(self, capsys):
        code, out, _ = run(
            capsys, "transform", "--dims", "3", "--func", "exp-xyt",
            "--ratios", "1,1,1",
        )
        assert code == 0
        value = float(out.strip().split(",")[-1])
        assert abs(value - 0.125) < 1e-8

    def test_single_constant(self, capsys):
        code, out, _ = run(
            capsys, "transform", "--dims", "1", "--axis", "t",
            "--func", "const", "--ratios", "2",
        )
        assert code == 0
        assert abs(float(out.strip().split(",")[-1]) - 0.5) < 1e-9

    def test_unknown_function(self, capsys):
        code, _, err = run(
            capsys, "transform", "--dims", "1", "--func", "nosuch",
            "--ratios", "2",
        )
        assert code == 2
        assert "unknown function" in err

    def test_dims_mismatch(self, capsys):
        code, _, err = run(
            capsys, "transform", "--dims", "3", "--func", "const",
            "--ratios", "1,1",
        )
        assert code == 2

    def test_missing_args(self, capsys):
        assert run(capsys, "transform", "--dims", "1", "--func", "const")[0] == 2

    def test_determinism(self, capsys):
        args = ("transform", "--dims", "2", "--func", "sine-product",
                "--ratios", "1.5,0.8")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestInvert:
    def test_linear_pair(self, capsys):
        code, out, _ = run(capsys, "invert", "--pair", "one-over-s-squared",
                           "--points", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[1]) - 1.0) <= 1e-8

    def test_ml_pair(self, capsys):
        code, out, _ = run(capsys, "invert", "--pair", "ml-gamma-0.5",
                           "--points", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[1]) - 0.4275835761558073) <= 1e-6

    def test_insufficient_nodes_flagged(self, capsys):
        code, out, err = run(
            capsys, "invert", "--pair", "one-over-s-plus-1",
            "--points", "1", "--nodes", "4",
        )
        assert code == 1
        assert "exceeds threshold" in err

    def test_unknown_pair(self, capsys):
        assert run(capsys, "invert", "--pair", "bogus", "--points", "1")[0] == 2

    def test_nonfinite_point_refused(self, capsys):
        code, out, err = run(capsys, "invert", "--pair", "one-over-s-plus-1",
                             "--points", "inf")
        assert code == 2
        assert out == ""
        assert "finite and positive" in err


class TestSolve:
    def test_heat_residual_mode(self, capsys):
        code, out, _ = run(capsys, "solve", "heat", "--gamma", "0.7",
                           "--mode", "residual")
        assert code == 0
        worst = float(out.strip().splitlines()[-1].split("=")[1])
        assert worst <= 1e-10

    def test_telegraph_residual_mode(self, capsys):
        code, out, _ = run(
            capsys, "solve", "telegraph", "--gamma", "0.9",
            "--alpha", "0.5", "--beta", "1", "--mode", "residual",
        )
        assert code == 0

    def test_gamma_validation(self, capsys):
        code, _, err = run(capsys, "solve", "heat", "--gamma", "1.5")
        assert code == 2
        assert "gamma" in err

    def test_series_mode(self, capsys):
        code, out, _ = run(
            capsys, "solve", "heat", "--gamma", "0.6", "--mode", "series",
            "--truncation", "4",
        )
        assert code == 0
        lines = dict(l.split("=") for l in out.strip().splitlines())
        assert int(lines["guarded_count"]) > 0

    def test_reconstruct_mode(self, capsys, tmp_path):
        out_path = tmp_path / "field.csv"
        code, _, _ = run(
            capsys, "solve", "heat", "--gamma", "1.0", "--mode", "reconstruct",
            "--grid-n", "2", "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "x,y,t,f"
        assert len(lines) == 1 + 8


class TestVerify:
    def test_known_suite_passes(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code, _, _ = run(
            capsys, "verify", "--suite", "ml-kernel", "--tol", "1e-6",
            "--seed", "7", "--report", str(report),
        )
        assert code == 0
        lines = report.read_text().strip().splitlines()
        rows = [json.loads(l) for l in lines if not l.startswith("#")]
        assert all(r["pass"] for r in rows)

    def test_unattainable_tolerance(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "roundtrip",
                         "--tol", "1e-30")
        assert code == 1

    def test_unknown_suite(self, capsys):
        assert run(capsys, "verify", "--suite", "bogus")[0] == 2

    def test_report_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            run(capsys, "verify", "--suite", "roundtrip", "--tol", "1e-6",
                "--seed", "11", "--report", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestConfig:
    def test_load_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\nnodes = 16\n# comment\n")
        values = load_config(str(cfg))
        assert values == {"seed": 11, "nodes": 16}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 3\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_max_subdivisions_is_unknown(self, tmp_path):
        """The forward rule has no subdivision budget to configure."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_subdivisions = 200\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes = many\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_cli_uses_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\n")
        code, out, _ = run(
            capsys, "--config", str(cfg), "verify", "--suite", "roundtrip",
            "--tol", "1e-6",
        )
        assert code == 0

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "--config", "/nonexistent/x.cfg",
                           "verify", "--suite", "roundtrip")
        assert code == 2


_RUNTIME_IMPORTS = """
import json, sys
from shehu.cli import main
codes = [
    main(["solve", "heat", "--gamma", "0.7", "--mode", "reconstruct", "--grid-n", "2",
          "--nodes", "8", "--output", sys.argv[1]]),
    main(["transform", "--dims", "1", "--axis", "t", "--func", "exp-xyt", "--ratios", "2"]),
    main(["verify", "--suite", "ml-kernel", "--seed", "7"]),
]
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_commands_run_without_scipy_or_mpmath(tmp_path):
    """The runtime needs numpy only: SciPy is a test reference, mpmath loads on first use."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _RUNTIME_IMPORTS, str(tmp_path / "field.csv")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "loaded": []}
