"""Each benchmark workload sets up and runs one pass with no failed and no
wrong operation, so a change to a name, signature or output the benchmark
uses (``cli._stripe_safe_noise``, positional ``GateInstance``,
``.representative``, ...) fails here and not only in the benchmark."""

import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture()
def perfbench(monkeypatch):
    # the workloads read the pinned fixtures relative to the repository root
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT))
    import perfbench
    return perfbench


@pytest.mark.parametrize("workload", ["dt_decode", "quantum_decode", "verify_oracles"])
def test_workload_runs_one_clean_pass(perfbench, workload, tmp_path):
    from perfbench.harness import Context
    wl = importlib.import_module(f"perfbench.{workload}")
    ctx = Context(seed=1, workdir=str(tmp_path))
    state = wl.setup(ctx)
    wl.run_pass(state, ctx, 0)
    tally = ctx.tally
    assert tally.attempted > 0
    assert tally.correct and tally.failed == 0, dict(tally.failures)
