"""The benchmark's tracer (bench/spans.py) wraps misobeam attributes by name
and reads design calls by parameter name; these names must keep resolving."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from misobeam import cli, conic, design, model, montecarlo

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = {"cli": cli, "conic": conic, "design": design, "model": model,
           "montecarlo": montecarlo}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses resolve names through it
    spec.loader.exec_module(spans)
    return spans


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
