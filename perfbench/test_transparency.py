"""Tracing must not change any number the workloads compute.

At a fixed seed, one pass of each workload runs untraced and then traced;
every request value, every `verify` report line and every reconstructed
grid must be bit-identical, and uninstalling the tracer must restore the
original functions.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from run import digest, layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

from shehu import cli, fd_oracle, forward, funclib, opcalc  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_is_bit_identical(name, tmp_path):
    build = workloads.WORKLOADS[name]
    plain = build(7, tmp_path)
    tracer = Tracer()
    tracer.install([workloads])
    try:
        traced = build(7, tmp_path)
    finally:
        tracer.uninstall()
    assert digest(traced) == digest(plain)
    assert sum(tracer.calls.values()) > 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    metrics = layer_metrics(tracer, [(plain, traced)])
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert all(metrics[m["name"]][1] == m["unit"] for m in declared)


def test_uninstall_restores_every_binding():
    before = (forward.shehu_1d, opcalc.shehu_1d, cli.main, forward.quad,
              fd_oracle.cg, funclib.mittag_leffler)
    tracer = Tracer()
    tracer.install([workloads])
    assert opcalc.shehu_1d is not before[1]
    assert opcalc.shehu_1d is forward.shehu_1d
    tracer.uninstall()
    after = (forward.shehu_1d, opcalc.shehu_1d, cli.main, forward.quad,
             fd_oracle.cg, funclib.mittag_leffler)
    assert all(a is b for a, b in zip(before, after))
