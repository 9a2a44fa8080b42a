"""Tests of the benchmark's own logic.

Run from the repository root:  PYTHONPATH=src python -m pytest bench
"""

from dataclasses import replace

import pytest
from misobeam import design, model

import checks
from measure import tail
from spans import Span, Tracer, design_calls, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("montecarlo.sinr_cdf_experiment", 1.0, 9.0, 0, 0),
        Span("design.design_robust", 2.0, 6.0, 1, 0),
        Span("conic.solve", 2.5, 5.5, 2, 0),
        Span("model.sample_error", 7.0, 8.0, 1, 0),
    ]
    assert self_times(spans) == [2.0, 3.0, 1.0, 3.0, 1.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_tracer_nests_spans_and_restores_attributes():
    from misobeam import cli, conic, montecarlo

    tracer = Tracer(dict(cli=cli, conic=conic, design=design, model=model,
                         montecarlo=montecarlo))
    original = design.build_nominal
    channels = model.generate_channels(2, 2, 3)
    qos = model.QosSpec.from_db([0.0] * 2, [1.0] * 2)
    seconds, result, spans = tracer.run(
        4, True, lambda: design.design_nominal(channels, qos))
    assert design.build_nominal is original
    assert [(s.name, s.parent, s.op) for s in spans] == [
        ("design.design_nominal", -1, 4), ("design.build_nominal", 0, 4),
        ("conic.solve", 0, 4), ("design.extract_precoder", 0, 4)]
    assert spans[2].call[2] is result.solution
    assert seconds >= spans[0].duration >= sum(s.duration for s in spans[1:])


@pytest.mark.parametrize("n, percentile, beyond", [
    (11, 9, 10), (20, 50, 10), (30, 66, 10), (75, 86, 10), (1000, 99, 10), (1010, 99, 10)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    values = list(range(n, 0, -1))  # unsorted on purpose
    p, value = tail(values)
    assert p == percentile
    assert sum(v > value for v in values) == beyond


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(list(range(10)))


def _design_call(method="robust"):
    channels = model.generate_channels(3, 3, 7)
    qos = model.QosSpec.from_db([5.0] * 3, [1.0] * 3)
    unc = design.UncertaintySpec(delta=[0.015] * 3)
    if method == "robust":
        fn = lambda: design.design_robust(channels, qos, unc)  # noqa: E731
    else:
        fn = lambda: design.design_nominal(channels, qos)  # noqa: E731
    _, _, spans = Tracer({"design": design}).run(0, False, fn)
    (call,) = design_calls(spans, design)
    assert call.method == method
    return call


def test_design_checks_accept_solver_output():
    call = _design_call()
    assert call.inputs["perturbation_sigma"] == "paper"
    assert checks.check_design(call) == []
    assert checks.check_design(_design_call("nominal")) == []
    assert checks.check_robust_design(call, seed=1, samples=50) == []


@pytest.mark.parametrize("method", ["nominal", "robust"])
def test_design_check_rejects_precoder_scaled_by_0_9(method):
    call = _design_call(method)
    res = call.result
    scaled = model.Precoder(0.9 * res.precoder.matrix)
    bad = replace(call, result=replace(res, precoder=scaled,
                                       power=model.transmit_power(scaled)))
    errors = checks.check_design(bad)
    assert any("objective^2" in e for e in errors)
    # the nominal design is tight, so its SINR drops below target; the
    # robust one keeps a margin at the estimates and only its power gives it away
    assert any("SINR" in e for e in errors) == (method == "nominal")


def test_duplicate_key_ignores_delta_for_nominal_only():
    call = _design_call()
    other = replace(call, inputs=dict(call.inputs, unc=design.UncertaintySpec(delta=[0.02] * 3)))
    assert call.key() != other.key()
    nominal = replace(call, method="nominal")
    assert nominal.key() == replace(other, method="nominal").key()
