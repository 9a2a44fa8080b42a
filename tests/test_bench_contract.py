"""The benchmark's tracer (bench/spans.py) wraps misobeam attributes by name
and reads design calls by parameter name; these names must keep resolving.
Its checks (bench/checks.py) read one design call per trial and method in a
cdf run, and one per grid point and method in a sweep, so designs that an
experiment solves as a batch must still reach the design functions, which
answer them from memory."""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

from misobeam import cli, conic, design, model, montecarlo

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = {"cli": cli, "conic": conic, "design": design, "model": model,
           "montecarlo": montecarlo}


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve names through it
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench("spans")


def test_every_traced_attribute_resolves():
    spans = load_spans()
    for module, attr in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"misobeam.{module}"), attr)), \
            f"misobeam.{module}.{attr}"


def test_tracer_captures_design_calls_by_parameter_name():
    # the dispatch must reach design_* through the module attributes the
    # tracer swaps, and each call must bind the names DesignCall.key reads
    spans = load_spans()
    config = montecarlo.ExperimentConfig(n_u=1, n_t=1, gamma_db=0.0, sigma=1.0,
                                         delta=0.01, n_channel_trials=1,
                                         n_error_samples=1)
    channels = model.generate_channels(1, 1, 0)
    tracer = spans.Tracer(MODULES)
    _, _, recorded = tracer.run(0, False, lambda: [
        montecarlo.run_design(m, config, channels) for m in montecarlo.METHODS])
    calls = spans.design_calls(recorded, design)
    assert [c.method for c in calls] == ["nominal", "robust"]
    assert set(calls[0].inputs) >= {"channels", "qos"}
    assert set(calls[1].inputs) >= {"channels", "qos", "unc", "perturbation_sigma"}
    for call in calls:
        call.key()
        assert call.result.status == conic.SolveStatus.OPTIMAL
        np.testing.assert_array_equal(call.inputs["channels"].rows, channels.rows)


def test_delta_sweep_reports_every_design_call(solves):
    # the nominal design repeats at every grid point; the tracer must still
    # see one design_* call per point and method, in order, while the
    # nominal design and the robust grid are one batch, so the traced
    # conic.solve never runs
    spans, checks = load_spans(), load_bench("checks")
    grid = [0.005, 0.01, 0.02, 0.04, 0.08, 0.16]
    config = montecarlo.ExperimentConfig(n_u=3, n_t=3, gamma_db=5.0, sigma=1.0,
                                         delta=0.015, n_channel_trials=1,
                                         n_error_samples=1, seed=31)
    tracer = spans.Tracer(MODULES)
    _, table, recorded = tracer.run(0, True, lambda: montecarlo.power_vs_delta_sweep(
        config, grid))
    calls = spans.design_calls(recorded, design)
    assert [c.method for c in calls] == ["nominal", "robust"] * len(grid)
    assert [float(c.inputs["unc"].delta[0]) for c in calls[1::2]] == grid
    assert sum(s.name == "conic.solve" for s in recorded) == 0
    assert [len(batch) for batch in solves] == [1 + len(grid)]
    assert len({id(c.result) for c in calls[::2]}) == 1
    assert checks.check_sweep(table, config, grid, calls) == []


def test_cdf_reports_every_design_call(solves, tmp_path):
    # the cdf-n3 workload runs the cdf command under the untraced tracer;
    # the tracer must see both design calls of every trial, in trial order,
    # while every design of the run is in one batch
    spans, checks = load_spans(), load_bench("checks")
    trials, seed = 2, 5
    config = montecarlo.ExperimentConfig(n_u=3, n_t=3, gamma_db=5.0, sigma=1.0,
                                         delta=0.015, n_channel_trials=trials,
                                         n_error_samples=50, seed=seed)
    path, out = tmp_path / "cdf.cfg", tmp_path / "out"
    path.write_text("n_t = 3\nn_u = 3\ngamma_db = 5.0\nsigma = 1.0\ndelta = 0.015\n"
                    f"trials = {trials}\nerror_samples = 50\n")
    tracer = spans.Tracer(MODULES)
    with contextlib.redirect_stdout(io.StringIO()):
        _, _, recorded = tracer.run(0, False, lambda: cli.main(
            ["cdf", str(path), "--seed", str(seed), "--out", str(out)],
            standalone_mode=False))
    calls = spans.design_calls(recorded, design)
    assert [c.method for c in calls] == ["nominal", "robust"] * trials
    for trial in range(trials):
        channels = model.generate_channels(3, 3, montecarlo.trial_rng(seed, trial))
        for call in calls[2 * trial:2 * trial + 2]:
            np.testing.assert_array_equal(call.inputs["channels"].rows, channels.rows)
    assert checks.check_cdf(out, config, calls) == []
    assert [e for c in calls for e in checks.check_design(c)] == []
    assert [len(batch) for batch in solves] == [2 * trials]
