"""Span bookkeeping: self time, wrappers, restoration."""

import json

import pytest

from perfbench.spans import LayerTotal, SpanOverhead, Tracer


class FakeClock:
    """A clock the test advances by hand (ns)."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_subtracts_nested_and_sibling_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.advance(10)
        with tracer.span("mid"):
            clock.advance(5)
            with tracer.span("leaf"):
                clock.advance(7)
            clock.advance(3)
        clock.advance(2)
        with tracer.span("leaf"):      # a sibling of "mid"
            clock.advance(4)
        clock.advance(1)
    totals = tracer.totals()
    assert totals["outer"] == LayerTotal(calls=1, total_ns=32, self_ns=13,
                                         child_calls=2)
    assert totals["mid"] == LayerTotal(calls=1, total_ns=15, self_ns=8,
                                       child_calls=1)
    assert totals["leaf"] == LayerTotal(calls=2, total_ns=11, self_ns=11,
                                        child_calls=0)
    # Self times tile the root span exactly.
    assert sum(t.self_ns for t in totals.values()) == tracer.root_ns() == 32
    assert tracer.parent == [-1, 0, 1, 0]


def test_a_layer_calling_itself_is_not_counted_twice():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("mapping"):       # e.g. trim() delegating to update()
        clock.advance(2)
        with tracer.span("mapping"):
            clock.advance(5)
    assert tracer.totals()["mapping"].self_ns == 7


def test_spans_carry_the_slice_they_ran_in():
    tracer = Tracer(FakeClock())
    for slice_id in (0, 1):
        tracer.slice_id = slice_id
        with tracer.span("engine"):
            pass
    assert tracer.slice == [0, 1]


class Plain:
    def work(self, x):
        return x + 1


class Slotted:
    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def work(self, x):
        self.calls += 1
        return x * 2


def test_wrappers_shadow_one_instance_and_restore_it():
    tracer = Tracer()
    target, bystander = Plain(), Plain()
    tracer.wrap(target, "work", "layer")
    assert target.work(1) == 2
    assert "work" in vars(target) and "work" not in vars(bystander)
    assert tracer.totals()["layer"].calls == 1
    bystander.work(1)
    assert tracer.totals()["layer"].calls == 1
    tracer.restore()
    assert "work" not in vars(target)
    assert target.work.__func__ is Plain.work


def test_restore_puts_back_a_preexisting_instance_attribute():
    tracer = Tracer()
    target = Plain()
    original = target.work = lambda x: -x
    tracer.wrap(target, "work", "layer")
    assert target.work(3) == -3
    tracer.restore()
    assert target.work is original


def test_slotted_instances_are_reclassed_and_restored():
    tracer = Tracer()
    target, bystander = Slotted(), Slotted()
    tracer.wrap(target, "work", "layer")
    assert target.work(4) == 8 and target.calls == 1
    assert isinstance(target, Slotted) and type(target) is not Slotted
    assert type(bystander) is Slotted
    assert tracer.totals()["layer"].calls == 1
    tracer.restore()
    assert type(target) is Slotted
    target.work(1)
    assert tracer.totals()["layer"].calls == 1


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.traced("layer", boom)
    with pytest.raises(KeyError):
        wrapped()
    with tracer.span("after"):
        pass
    assert tracer.parent == [-1, -1]
    assert all(end >= start for start, end in zip(tracer.start, tracer.end))


def test_overhead_correction_charges_spans_and_their_callers():
    overhead = SpanOverhead(inside_ns=2.0, outside_ns=3.0)
    total = LayerTotal(calls=10, total_ns=500.0, self_ns=200.0, child_calls=20)
    assert overhead.corrected_self_ns(total) == 200.0 - 10 * 2.0 - 20 * 3.0
    assert overhead.corrected_self_ns(LayerTotal(5, 10.0, 10.0, 5)) == 0.0


def test_dump_writes_columns_relative_to_the_first_span(tmp_path):
    clock = FakeClock()
    clock.advance(1000)
    tracer = Tracer(clock)
    with tracer.span("a"):
        clock.advance(5)
    path = tmp_path / "deep" / "trace.json"
    tracer.dump(path, workload="w")
    loaded = json.loads(path.read_text())
    assert loaded["workload"] == "w"
    assert loaded["layers"] == ["a"]
    assert loaded["spans"]["start_ns"] == [0]
    assert loaded["spans"]["end_ns"] == [5]
    assert set(loaded["spans"]) == set(loaded["columns"])
