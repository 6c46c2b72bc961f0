"""Self-time arithmetic of the tracer and removal of its wrappers."""

from concurrent.futures import ThreadPoolExecutor

import numpy
import pytest

import spans
from spans import Tracer, tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _step(tracer, clock, at, action, *args):
    clock.now = at
    return action(*args)


def test_nested_self_times_on_one_thread():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    a = _step(tracer, clock, 0.0, tracer.enter, "a")
    b = _step(tracer, clock, 1.0, tracer.enter, "b")
    c = _step(tracer, clock, 2.0, tracer.enter, "c")
    _step(tracer, clock, 3.0, tracer.exit, c)
    _step(tracer, clock, 4.0, tracer.exit, b)
    d = _step(tracer, clock, 5.0, tracer.enter, "b")
    _step(tracer, clock, 6.0, tracer.exit, d)
    _step(tracer, clock, 10.0, tracer.exit, a)

    tot = tracer.totals
    assert tot["a"].total_s == 10.0 and tot["a"].self_s == 6.0
    assert tot["b"].calls == 2 and tot["b"].total_s == 4.0 and tot["b"].self_s == 3.0
    assert tot["c"].self_s == 1.0
    by_id = {s.id: s for s in tracer.spans}
    assert [by_id[s.parent].name if s.parent is not None else None
            for s in tracer.spans] == ["b", "a", "a", None]


def test_pool_thread_children_cover_their_union():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    w1, w2 = ThreadPoolExecutor(max_workers=1), ThreadPoolExecutor(max_workers=1)
    with w1, w2:
        def on(worker, at, action, *args):
            return worker.submit(_step, tracer, clock, at, action, *args).result(timeout=5)

        root = _step(tracer, clock, 0.0, tracer.enter, "sweep")
        row1 = on(w1, 1.0, tracer.enter, "row")
        inner = on(w1, 2.0, tracer.enter, "leaf")
        row2 = on(w2, 3.0, tracer.enter, "row")
        on(w1, 4.0, tracer.exit, inner)
        on(w1, 5.0, tracer.exit, row1)
        on(w2, 8.0, tracer.exit, row2)
        _step(tracer, clock, 10.0, tracer.exit, root)

    tot = tracer.totals
    # rows cover [1, 5] and [3, 8]: their union is 7 of the sweep's 10
    assert tot["sweep"].self_s == pytest.approx(3.0)
    assert tot["row"].self_s == pytest.approx(4.0 - 2.0 + 5.0)
    parents = {s.name: s.parent for s in tracer.spans}
    assert parents["row"] == root.id and parents["leaf"] == row1.id


def test_totals_outlive_the_span_limit():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    calls = spans.KEEP_SPANS + 10
    for i in range(calls):
        node = _step(tracer, clock, 2.0 * i, tracer.enter, "leaf")
        _step(tracer, clock, 2.0 * i + 1.0, tracer.exit, node)
    assert len(tracer.spans) == spans.KEEP_SPANS
    assert tracer.totals["leaf"].calls == calls
    assert tracer.totals["leaf"].self_s == calls


def test_out_of_order_close_is_refused():
    tracer = Tracer()
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def _bindings():
    return [(module, attr, getattr(module, attr)) for module, attr, _ in spans._targets()]


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from ncsq import analytic, cli, fock, verifier

    before = _bindings()
    lstsq = numpy.linalg.lstsq
    assert any(m is verifier and a == "build_operator_set" for m, a, _ in before)
    assert any(m is fock and a == "expm_multiply" for m, a, _ in before)
    assert any(m is cli and a == "make_params" for m, a, _ in before)

    tracer = Tracer()
    with tracing(tracer):
        assert all(getattr(m, a) is not f for m, a, f in before)
        params = cli.make_params(0.5, 0.5, 1.0)
        space = fock.make_space(16)
        amps = analytic.ModeAmplitudes(0.1, 0.1j)
        cases = [(amps, None), (amps, analytic.SqueezeParam(0.05, 0.3))]
        reports = verifier.crosscheck_suite(params, space, cases)
    assert all(r.passed for r in reports)
    assert [getattr(m, a) for m, a, _ in before] == [f for _, _, f in before]
    assert numpy.linalg.lstsq is lstsq

    tot = tracer.totals
    assert tot["params.make_params"].calls == 1
    assert tot["fock.build_operator_set"].calls == 1
    assert tot["fock.make_state"].calls == 5
    assert tot["fock.expm_multiply"].calls == 5  # 4 displacements, 1 squeeze
    assert tot["fock.lstsq"].calls == 1  # deformed_vacuum's fit
    assert tot["verifier.crosscheck_suite"].units == 2
    # the 8 matrices of the operator set, plus the 2 ordinary ladders that
    # phase_space_ops builds again for itself
    assert tracer.dense_bytes == 10 * 16 * space.dim ** 2

    calls = {name: t.calls for name, t in tot.items()}
    assert cli.run(["params", "--mu", "0.5", "--nu", "0.5", "--out", str(tmp_path / "p.json")]) == 0
    assert {name: t.calls for name, t in tot.items()} == calls
