"""Tests of the benchmark itself: seeded inputs, exact metrics, tracing.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from time import perf_counter

import pytest

import inputs
import probe
import run
import tracing
from codedpir import (
    FieldMatrix,
    FieldSpec,
    OptimizerConfig,
    derived_code,
    e_matrix_violations,
    min_distance,
    optimize_cpop,
)
from codedpir.workbench import format_e_matrix, parse_code_file, parse_e_matrix_text
from workloads import FIXTURES


def all_inputs(seed):
    return (
        inputs.table_order(seed),
        inputs.wide_parity_rows(seed),
        inputs.wide_scan_seed(seed),
        inputs.retrieval_inputs("wide-field", seed, "gf65536_random", 1 << 16, 6, 12),
        inputs.retrieval_inputs("wide-field", seed, "c5like", 16, 6, 12),
        inputs.retrieval_inputs("retrieve-array", seed, "c7_array", 2, 60, 121),
    )


def test_same_seed_gives_identical_inputs():
    assert all_inputs(3) == all_inputs(3)


def test_another_seed_changes_every_generated_input():
    # the table order is a permutation of six names, so it alone may repeat
    for a, b in zip(all_inputs(3)[1:], all_inputs(4)[1:]):
        assert a != b


def test_wide_code_is_an_18_12_mds_code_with_no_zero_entry():
    rows = inputs.wide_parity_rows(11)
    assert len(rows) == 6 and all(len(r) == 12 for r in rows)
    assert all(0 < v < 1 << 16 for r in rows for v in r)
    field = FieldSpec(inputs.WIDE_FIELD_WIDTH)
    assert field.modulus == inputs.WIDE_MODULUS
    h = FieldMatrix(field, [list(r) + [int(i == j) for j in range(6)] for i, r in enumerate(rows)])
    assert min_distance(h) == 7  # n - k + 1


def exact_metrics(record):
    counts = {
        k: m["value"] for k, m in record["per_layer"].items() if m["unit"] in ("count", "bit")
    }
    return (
        record["exact"]["beta_gap"]["value"],
        record["exact"]["fail_ratio"]["value"],
        record["end_to_end"]["theta_ratio"]["value"],
        counts,
    )


@pytest.fixture(scope="module")
def wide_records():
    return [run.run_workload("wide-field", 5, 0, trace=True) for _ in range(2)]


def test_same_seed_reproduces_exact_metrics(wide_records):
    first, second = wide_records
    assert first["correct"] and second["correct"]
    assert exact_metrics(first) == exact_metrics(second)
    assert first["per_layer"]["protocol.downloaded_bits"]["value"] == 3 * (
        first["per_layer"]["protocol.retrieved_bits"]["value"]
    )


def test_records_carry_every_metric_benchmark_json_names(wide_records):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    record = wide_records[0]
    assert [m["name"] for m in spec["end_to_end"]] == list(record["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == list(record["per_layer"])
    for m in spec["end_to_end"]:
        assert record["end_to_end"][m["name"]]["unit"] == m["unit"]
    for m in spec["per_layer"]:
        assert record["per_layer"][m["name"]]["unit"] == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_call_cost_divides_by_the_reference_loop_timed_during_it():
    from workloads import Pass

    speed = probe.SpeedProbe()
    # a loop took 1 ms until t=10 and 2 ms after, as if the host got busy
    speed.samples = [(t / 10, 0.001 if t < 100 else 0.002) for t in range(1, 200)]
    assert speed.cost(1.0, 3.0) == pytest.approx(2000)
    assert speed.cost(12.0, 16.0) == pytest.approx(2000)  # twice as long, twice the loop
    # a call shorter than the probe's period uses the samples nearest it
    assert speed.loop_seconds(15.01, 15.02) == pytest.approx(0.002)
    a, b, c = Pass(), Pass(), Pass()
    a.calls = {"x queries": ("retrieval_s", 1.0, 2.0), "x respond": ("retrieval_s", 2.0, 4.0)}
    b.calls = {"x queries": ("retrieval_s", 12.0, 14.0), "x respond": ("retrieval_s", 14.0, 18.0)}
    c.calls = {"x queries": ("retrieval_s", 4.0, 5.5), "x respond": ("retrieval_s", 5.5, 7.5)}
    costs = run.call_costs([a, b, c], speed)
    assert costs[0] == pytest.approx({"x queries": 1000, "x respond": 2000})
    assert run.pass_cost(costs) == pytest.approx(1000 + 2000)  # medians per call


def test_probe_thread_samples_while_open_and_stops():
    with probe.SpeedProbe() as speed:
        deadline = perf_counter() + 5
        while len(speed.samples) < 3 and perf_counter() < deadline:
            probe.reference_loop()
    assert not speed._thread.is_alive()
    assert len(speed.samples) >= 3 and all(d > 0 for _, d in speed.samples)


def test_committed_c7_matrix_is_valid_and_regenerates():
    cf = parse_code_file(FIXTURES / "c7_array.pchk")
    text = inputs.C7_MATRIX.read_text(encoding="ascii")
    e = parse_e_matrix_text(text)
    assert e.beta == 60
    assert e_matrix_violations(e, derived_code(cf.code)) == []
    # what data/regen_c7_array_beta60.sh runs: `codedpir optimize --seed 7`
    config = OptimizerConfig(seed=7, d_min=cf.d_min_hint, d_tilde_min=cf.d_tilde_min_hint)
    assert format_e_matrix(optimize_cpop(cf.code, config).e_opt) == text


def test_tracer_wraps_restores_and_reports_missing_names():
    module = types.ModuleType("fake_layer")
    module.work = lambda x: x + 1
    sys.modules["fake_layer"] = module
    try:
        original = module.work
        tr = tracing.Tracer("t")
        tr.wrap("fake_layer.work", "layer.work", lambda t, r: t.count("layer.out", r))
        tr.wrap("fake_layer.gone", "layer.gone")
        with tr.span("outer"):
            assert module.work(1) == 2
        tr.unwrap_all()
        assert module.work is original
        assert tr.ncalls("layer.work") == 1 and tr.counts["layer.out"] == 2
        assert tr.absent == {"fake_layer.gone"} and tr.wrapped == {"layer.work"}
        spans = tr.export()["spans"]
        assert [s[0] for s in spans] == ["outer", "layer.work"]
        assert spans[1][3] == 0  # parent is the outer span
    finally:
        del sys.modules["fake_layer"]


def test_hot_functions_keep_only_count_and_time(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_LIMIT", 3)
    tr = tracing.Tracer("t")
    with tr.span("outer"):
        for i in range(5):
            with tr.span("hot"):
                if i < 2:
                    with tr.span("inner"):
                        pass
    exported = tr.export()
    assert exported["calls"]["hot"]["calls"] == 5
    names = [s[0] for s in exported["spans"]]
    # the hot name's spans are gone and its children hang off its caller
    assert names == ["outer", "inner", "inner"]
    assert all(s[3] == 0 for s in exported["spans"][1:])
