"""Tests of the benchmark's own logic.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
from inducedmaps import maps, search  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [
        (19, 100.0, 0),
        (20, 50.0, 10),
        (99, 50.0, 49),
        (100, 90.0, 10),
        (999, 90.0, 99),
        (1000, 99.0, 10),
        (10000, 99.9, 10),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    samples = list(range(n, 0, -1))
    p, value, got_beyond = harness.tail_percentile(samples)
    assert (p, got_beyond) == (percentile, beyond)
    assert sum(s > value for s in samples) == beyond


def test_ref_units_divide_by_the_local_median_kernel_time():
    kernels = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    got = harness.in_ref_units([10.0, None, 10.0, 10.0, 10.0, 10.0], kernels, window=3)
    assert got == [10.0, None, 10.0, 5.0, 5.0, 5.0]


def test_qubit_minimum_matches_the_bell_cnot_value():
    from inducedmaps import presets, states

    m = maps.induce(states.decompose_blocks(presets.bell_density(), 2, 2), presets.cnot())
    assert workloads.qubit_min_eig(m) == pytest.approx((1 - 5**0.5) / 4, abs=1e-9)


def _rows(spans):
    return np.array([(sid, parent, 1, name, t0, t1) for sid, parent, name, t0, t1 in spans], dtype=np.int64)


def test_self_time_subtracts_direct_children_only():
    # op [0,100] > a [10,60] > b [20,30], b [40,50]; op > c [70,90]
    names = ["op", "a", "b", "c"]
    t = SpanTable(
        _rows([
            (2, 1, 1, 10, 60),
            (3, 2, 2, 20, 30),
            (4, 2, 2, 40, 50),
            (5, 1, 3, 70, 90),
            (1, 0, 0, 0, 100),
        ]),
        names,
    )
    self_by_sid = dict(zip(t.sid.tolist(), t.self_time.tolist()))
    assert self_by_sid == {1: 30, 2: 30, 3: 10, 4: 10, 5: 20}
    a_or_b = t.mask(lambda n: n in ("a", "b"))
    assert t.dur[t.outermost(a_or_b)].sum() == 50


def test_tracer_records_nested_spans_with_parents():
    tracer = Tracer()

    def inner():
        return sum(range(1000))

    inner_t = tracer.wrap("x.inner", inner)

    def outer():
        return inner_t() + inner_t()

    outer_t = tracer.wrap("x.outer", outer)
    tracer.active = True
    with tracer.op():
        outer_t()
    with tracer.paused():
        outer_t()
    t = SpanTable(tracer.table(), tracer.names)
    names = [t.names[i] for i in t.name]
    assert names == ["op", "x.outer", "x.inner", "x.inner"]
    assert t.parent.tolist() == [-1, 0, 1, 1]
    assert (t.op == t.sid[0]).all()
    assert t.self_time.sum() == t.dur[0]
    assert (t.self_time >= 0).all()


def test_tracer_rebinds_every_module_that_imports_a_name():
    original = maps.induce
    tracer = Tracer()
    tracer.install()
    try:
        assert maps.induce is search.induce
        assert maps.induce is not original
        assert maps.induce.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert maps.induce is original and search.induce is original


def test_fabricated_wrong_verdict_is_counted_as_a_failure():
    wl = workloads.Scan(0)
    i = 1  # a coherent-block source: its maps are CP
    real = wl.op(i)
    assert wl.check(i, real).violations == []
    fake = search.CandidateReport(
        unitary=real[0].unitary,
        choi_min_eig=real[0].choi_min_eig,
        shift_norm=real[0].shift_norm,
        positivity=maps.PositivityProbe(maps.VIOLATED, -0.1, np.eye(4) / 4),
        classification=search.CLASS_NON_POSITIVE,
    )
    loop = harness.closed_loop(lambda j: (fake, real[1]), lambda j, out: wl.check(i, out), 0.05)
    assert loop.attempted >= 1
    assert len(loop.failures) == loop.attempted
    assert loop.ok == []


def test_certify_flags_a_non_cp_verdict_on_an_aligned_source():
    wl = workloads.Certify(0)
    assert wl.pool[0].kind == "aligned-2x2"
    res = wl.op(0)
    assert wl.check(0, res).violations == []
    m, _, kraus = res.maps[0]
    res.maps[0] = (m, maps.CpVerdict(maps.NOT_CP, -0.1, 0.0), kraus)
    res.gate = "passed"
    problems = wl.check(0, res).violations
    assert any("aligned" in p for p in problems)
    assert any("hunt gate" in p for p in problems)


def test_cli_check_flags_wrong_exit_code_and_keys():
    wl = workloads.CliOneshot(0)
    try:
        code, out = wl.op_in_process(0)
        assert wl.check(0, (code, out)).violations == []
        assert wl.check(0, (2, out)).violations
        report = json.loads(out)
        del report["status"]
        assert wl.check(0, (code, json.dumps(report))).violations
    finally:
        wl.close()


def test_benchmark_file_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in harness.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in harness.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
