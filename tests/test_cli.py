import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from shehu import fpde
from shehu.cli import _inv_config, _quad_config, build_parser, load_config, main
from shehu.errors import ConfigError, DivergenceError
from shehu.forward import (
    QuadratureConfig,
    RatioPoint,
    analytic_transform,
    shehu_1d,
    shehu_3d,
)
from shehu.funclib import get_field
from shehu.inverse import InversionConfig


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
        assert "invalid choice: 'nosuch'" in err

    def test_dims_mismatch(self, capsys):
        code, out, err = run(
            capsys, "transform", "--dims", "3", "--func", "const",
            "--ratios", "1,1",
        )
        assert (code, out) == (2, "")
        assert err == "error: ratio point '1,1' has 2 entries, need 3\n"

    @pytest.mark.parametrize("argv, message", [
        (("--ratios", "nan"), "ratio nan on axis 't' must be finite"),
        (("--ratios=-inf",), "ratio -inf on axis 't' must be finite"),
        (("--dims", "2", "--ratios", "1,inf"), "ratio inf on axis 'y' must be finite"),
        (("--ratios", "2", "--rel-tol", "nan"), "rel_tol must be finite and positive, got nan"),
        (("--ratios", "2", "--abs-tol", "inf"), "abs_tol must be finite and positive, got inf"),
    ], ids=["nan", "-inf", "2d-inf", "rel-tol-nan", "abs-tol-inf"])
    def test_nonfinite_ratio_or_tolerance_refused(self, capsys, argv, message):
        code, out, err = run(capsys, "transform", "--func", "const", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_args(self, capsys):
        assert run(capsys, "transform", "--dims", "1", "--func", "const")[0] == 2

    @pytest.mark.parametrize("argv, ratio, kind, params", [
        (("--func", "power"), 2.0, "power", {"nu": 0.5}),
        (("--func", "ml-kernel"), 1.5, "ml_kernel", {"gamma": 0.5, "beta": 1.0, "c": -1.0}),
    ])
    def test_parametrised_fields(self, capsys, argv, ratio, kind, params):
        """--func power and ml-kernel at their default parameters."""
        code, out, _ = run(capsys, "transform", *argv, "--ratios", str(ratio))
        assert code == 0
        got = float(out.strip().split(",")[-1])
        assert got == pytest.approx(analytic_transform(kind, ratio, **params), rel=1e-9)

    def test_numerical_failure_exits_1(self, capsys):
        """A ShehuError is reported on stderr with exit 1, stdout left empty."""
        with pytest.raises(DivergenceError) as exc:
            shehu_1d(get_field("const").exp_order(), "t", RatioPoint(t=(-1.0, 1.0)))
        code, out, err = run(capsys, "transform", "--func", "const", "--ratios", "-1")
        assert (code, out, err) == (1, "", f"error: {exc.value}\n")

    def test_default_configs_are_the_library_defaults(self, capsys):
        code, out, _ = run(capsys, "transform", "--dims", "3", "--func", "exp-xyt",
                           "--ratios", "1.3,0.9,1.1")
        expect = shehu_3d(get_field("exp-xyt").exp_order(),
                          RatioPoint.from_ratios(1.3, 0.9, 1.1))
        assert code == 0
        assert float(out.split(",")[-1]) == expect

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
        """The fewest nodes accepted, 8, miss e^-1 far beyond the threshold."""
        code, out, err = run(
            capsys, "invert", "--pair", "one-over-s-plus-1",
            "--points", "1", "--nodes", "8",
        )
        assert code == 1
        assert "exceeds threshold" in err

    @pytest.mark.parametrize("argv", [
        ("invert", "--pair", "one-over-s-plus-1", "--points", "1"),
        ("solve", "heat", "--mode", "reconstruct", "--grid-n", "2"),
    ])
    @pytest.mark.parametrize("flag, config", [(("--nodes", "4"), ""),
                                              ((), "nodes = 24.5\n")])
    def test_nodes_are_passed_on_unchanged(self, tmp_path, capsys, argv, flag, config):
        """Neither raised to 8 nor truncated: a bad node count is refused."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, out, err = run(capsys, "--config", str(cfg), *argv, *flag)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "nodes" in err

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

    @pytest.mark.parametrize("argv, message", [
        (("heat", "--relation", "strict"), "no residual mode 'strict' for HeatSpec"),
        (("telegraph", "--alpha", "0"), "alpha and beta must be positive"),
        (("heat", "--mode", "series", "--truncation", "0"), "truncation must be"),
        (("heat", "--mode", "series", "--truncation", "-3"), "truncation must be"),
    ])
    def test_invalid_problem_refused(self, capsys, argv, message):
        code, out, err = run(capsys, "solve", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv, message", [
        (("--relation", "strict", "--mode", "reconstruct", "--grid-n", "1"),
         "--relation applies only to --mode residual"),
        (("--relation", "strict", "--mode", "series"),
         "--relation applies only to --mode residual"),
        (("--truncation", "3", "--mode", "residual"),
         "--truncation applies only to --mode series"),
        (("--residual-tol", "1e-3", "--mode", "series"),
         "--residual-tol applies only to --mode residual"),
    ])
    def test_flag_outside_its_mode_refused(self, capsys, argv, message):
        code, out, err = run(capsys, "solve", "heat", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("gamma, worst", [("0.9", 30.5), ("0.4", 272.9)])
    def test_strict_relation_is_reported_not_judged(self, capsys, gamma, worst):
        """The strict relation does not vanish, so it prints and exits 0;
        a tolerance beside it is refused."""
        argv = ("solve", "telegraph", "--gamma", gamma, "--alpha", "1.3",
                "--beta", "1.8", "--seed", "7", "--relation", "strict")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,q,s,residual" and len(lines) == 22
        assert round(float(lines[-1].split("=")[1]), 1) == worst
        code, out, err = run(capsys, *argv, "--residual-tol", "1e3")
        assert code == 2
        assert out == ""
        assert "--residual-tol does not apply to --relation strict" in err

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

    @pytest.mark.parametrize("flags, message", [
        (("--grid-n", "0"), "axis x is empty"),
        (("--grid-n", "2", "--grid-extent", "-1"), "axis x must be finite and positive"),
    ])
    def test_reconstruct_grid_refused(self, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(fpde, "invert_3d", lambda *args: pytest.fail("inverted"))
        code, out, err = run(capsys, "solve", "heat", "--mode", "reconstruct", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: grid {message}")
        assert err.count("\n") == 1


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

    @pytest.mark.parametrize("argv", [
        ("solve", "heat", "--mode", "reconstruct", "--grid-n", "2"),
        ("invert", "--pair", "one-over-s-plus-1", "--points", "1"),
    ])
    def test_nonfinite_contour_scale_refused(self, tmp_path, capsys, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("contour_scale = nan\n")
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: contour_scale must be finite and positive")

    def test_nonfinite_tolerance_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tail_cut_tol = nan\n")
        code, out, err = run(capsys, "--config", str(cfg), "transform", "--func", "const",
                             "--ratios", "2")
        assert (code, out) == (2, "")
        assert err == "error: tail_cut_tol must be finite and positive, got nan\n"

    def test_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed 11\n")
        code, out, err = run(capsys, "--config", str(cfg), "verify", "--suite", "roundtrip")
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:1: expected 'key = value'\n"

    @pytest.mark.parametrize("argv", [
        ("transform", "--func", "const", "--ratios", "1"),
        ("invert", "--pair", "one-over-s", "--points", "1"),
        ("solve", "heat", "--mode", "reconstruct"),
    ])
    def test_no_flag_or_key_leaves_library_defaults(self, argv):
        args = build_parser().parse_args(argv)
        args.config_values = {}
        assert _quad_config(args) == QuadratureConfig()
        assert _inv_config(args) == InversionConfig()

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
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] in ("scipy", "mpmath", "logging")
                or m.startswith("concurrent.futures"))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_commands_run_without_scipy_or_mpmath(tmp_path):
    """The runtime needs numpy only: SciPy is a test reference, mpmath loads on first use.

    ``concurrent.futures`` and the ``logging`` it imports stay unloaded too:
    they would add about 9 ms to every command's start-up.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _RUNTIME_IMPORTS, str(tmp_path / "field.csv")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "loaded": []}


@pytest.mark.parametrize("argv, code", [
    (("invert", "--pair", "one-over-s-plus-1", "--points", "1"), 0),
    (("invert", "--pair", "bogus", "--points", "1"), 2),
])
def test_module_entry_point_exits_with_main(capsys, argv, code):
    """``python -m shehu.cli`` exits with ``main``'s code and prints its stdout bytes."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "shehu.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, timeout=300)
    assert run(capsys, *argv)[:2] == (code, proc.stdout.decode())
    assert proc.returncode == code


def test_reconstruct_output_does_not_depend_on_blas_threads():
    """The inversion sums call no BLAS routine, so BLAS's thread count
    cannot reorder them: stdout is byte-identical with one and two."""
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "shehu.cli", "solve", "heat", "--mode", "reconstruct",
             "--grid-n", "4"],
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads),
            capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def _readme_cli_commands() -> list[list[str]]:
    """The ``shehu ...`` lines of the code block under README's ``## CLI``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("shehu ")]


def test_readme_cli_commands_run_and_repeat(capsys, tmp_path):
    """Each README CLI command exits 0 and prints the same bytes twice;
    an ``--output`` file is written under ``tmp_path`` and compared too."""
    commands = _readme_cli_commands()
    assert len(commands) >= 5
    for argv in commands:
        output = None
        if "--output" in argv:
            i = argv.index("--output") + 1
            output = argv[i] = str(tmp_path / argv[i])
        runs = []
        for _ in range(2):
            code, out, err = run(capsys, *argv)
            runs.append((code, out, Path(output).read_bytes() if output else b""))
        assert runs[0][0] == 0, (argv, err)
        assert runs[0][1] or runs[0][2], argv
        assert runs[0] == runs[1], argv
