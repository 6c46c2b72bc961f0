"""The seeded input generator, the benchmark contract and its metric rules."""

import json
import math
from pathlib import Path

import pytest

import run
import workloads
from workloads import DEFAULT_SEED, WORKLOADS, make_inputs

SEEDS = range(60)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_deterministic_and_vary_with_the_seed(workload):
    assert make_inputs(workload, 7) == make_inputs(workload, 7)
    assert json.loads(json.dumps(make_inputs(workload, 7))) == make_inputs(workload, 7)
    assert make_inputs(workload, 7) != make_inputs(workload, 8)


def test_default_seed_reproduces_the_baseline_commands():
    assert workloads.check_argv(make_inputs("check-c40", DEFAULT_SEED)) == [
        "check", "--mu", "0.5", "--nu", "0.5"]
    coherent, squeezed = workloads.mc_argvs(make_inputs("mc-overcompleteness", DEFAULT_SEED))
    assert coherent == ["overcompleteness", "--mu", "0.5", "--nu", "0.5", "--seed", "42"]
    assert squeezed == coherent + ["--r", "0.2", "--phi", "0.5"]
    calls = make_inputs("crosscheck-c30", DEFAULT_SEED)["calls"]
    assert [call["theta"] for call in calls] == [0.2, 0.5, 0.8]


def _in_region(theta, state, region):
    radius, r_num = region
    assert 0.2 <= theta <= 0.8
    for key in ("alpha", "beta"):
        assert math.hypot(*state[key]) <= radius <= 0.7
    if "r" in state:
        assert 0.0 < state["r"] <= r_num / (1.0 + theta) <= 0.38 / (1.0 + theta)
        assert -math.pi <= state["phi"] <= math.pi


def test_engine_inputs_stay_inside_the_supported_region():
    for seed in SEEDS:
        check = make_inputs("check-c40", seed)
        assert check["mu"] == check["nu"]
        if seed != DEFAULT_SEED:
            _in_region(check["mu"], check, workloads.CHECK_REGION)
        cross = make_inputs("crosscheck-c30", seed)
        assert cross["cutoff"] == 30 and len(cross["calls"]) == 3
        for call in cross["calls"]:
            cases = call["cases"]
            assert sum("r" in case for case in cases) == len(cases) // 2
            for case in cases:
                _in_region(call["theta"], case, workloads.CROSSCHECK_REGION)


def test_amplitude_literals_parse_back_exactly():
    from ncsq.cli import _build_parser

    inputs = make_inputs("check-c40", 3)
    ns = _build_parser().parse_args(workloads.check_argv(inputs))
    assert ns.alpha == complex(*inputs["alpha"]) and ns.beta == complex(*inputs["beta"])
    assert (ns.mu, ns.r, ns.phi) == (inputs["mu"], inputs["r"], inputs["phi"])


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_layer_metric_rules():
    rep = {"dense_bytes": 64, "totals": {
        "verifier.crosscheck_suite": {"calls": 3, "total_s": 6.0, "units": 12},
        "fock.make_state": {"calls": 4, "self_s": 0.5, "total_s": 0.7},
    }}
    values = run.layer_metrics(rep)
    assert values["verifier.crosscheck_suite.case_s"] == 0.5
    assert values["fock.make_state.calls"] == 4 and values["fock.make_state.self_s"] == 0.5
    assert values["fock.dense_bytes"] == 64
    assert values["verifier.overcompleteness_mc.probe_s"] == 0.0
    assert set(values) == {name for name, _ in run.PER_LAYER} - {"trace.overhead_frac"}
