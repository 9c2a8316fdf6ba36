"""The span tracer core: nesting, thread safety, export, summary."""

import json
import threading

from repro import obs


class TestTracerCore:
    def test_span_records_name_cat_args(self):
        tr = obs.Tracer("t")
        with tr.span("work", cat="test", x=1) as sp:
            sp["y"] = 2
        (rec,) = tr.spans
        assert rec.name == "work" and rec.cat == "test"
        assert rec.args == {"x": 1, "y": 2}
        assert rec.dur >= 0.0

    def test_spans_nest_and_close_inner_first(self):
        tr = obs.Tracer("t")
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        names = [sp.name for sp in tr.spans]
        assert names == ["inner", "outer"]  # recording order = close order
        inner, outer = tr.spans
        assert outer.ts <= inner.ts
        assert outer.ts + outer.dur >= inner.ts + inner.dur

    def test_span_closes_on_exception(self):
        tr = obs.Tracer("t")
        try:
            with tr.span("boom"):
                raise ValueError
        except ValueError:
            pass
        assert tr.find("boom")

    def test_instant_events(self):
        tr = obs.Tracer("t")
        tr.instant("mark", cat="test", k=3)
        (ev,) = tr.instants
        assert ev.name == "mark" and ev.args == {"k": 3}

    def test_thread_safety(self):
        tr = obs.Tracer("t")

        def work():
            for _ in range(50):
                with tr.span("w"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tr.find("w")) == 200
        assert all(sp.dur >= 0 for sp in tr.spans)


class TestGlobalTracer:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        with obs.span("ignored") as sp:
            sp["dropped"] = 1  # must not raise
        assert sp is obs.NULL_SPAN

    def test_span_off_is_one_shared_context(self):
        # off, a span costs a global read: no generator, no per-call object
        assert not obs.enabled()
        first, second = obs.span("a", cat="x", k=1), obs.span("b")
        assert first is second
        with first as sp, second as inner:  # reentrant when nested
            assert sp is obs.NULL_SPAN and inner is obs.NULL_SPAN
        with obs.tracing("on") as tr:
            with obs.span("live") as sp:
                assert sp is not obs.NULL_SPAN
        assert tr.find("live")

    def test_tracing_scope(self):
        with obs.tracing("scoped") as tr:
            assert obs.enabled() and obs.current() is tr
            with obs.span("inside", cat="test"):
                pass
            obs.instant("tick")
        assert not obs.enabled()
        assert tr.find("inside") and tr.instants

    def test_start_stop(self):
        tr = obs.start("manual")
        try:
            assert obs.current() is tr
        finally:
            assert obs.stop() is tr
        assert obs.current() is None


class TestChromeExport:
    def test_round_trips_through_json(self, tmp_path):
        with obs.tracing("export-test") as tr:
            with obs.span("alpha", cat="test", n=3):
                pass
            obs.instant("beta", cat="test")
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(tr, str(path))
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        meta = by_name["process_name"]
        assert meta["ph"] == "M" and meta["args"]["name"] == "export-test"
        alpha = by_name["alpha"]
        assert alpha["ph"] == "X" and alpha["dur"] >= 0
        assert alpha["args"] == {"n": 3}
        assert {"ts", "pid", "tid", "cat"} <= set(alpha)
        assert by_name["beta"]["ph"] == "i"

    def test_args_are_json_safe(self):
        tr = obs.Tracer("t")
        with tr.span("s", weird=object(), inf=float("inf"),
                     nested={"k": (1, 2)}):
            pass
        doc = obs.to_chrome(tr)
        text = json.dumps(doc)  # must not raise
        args = json.loads(text)["traceEvents"][-1]["args"]
        assert isinstance(args["weird"], str)
        assert args["inf"] == "inf"
        assert args["nested"] == {"k": [1, 2]}


class TestSummary:
    def test_aggregates_by_cat_and_name(self):
        tr = obs.Tracer("t")
        for _ in range(3):
            with tr.span("a", cat="x"):
                pass
        with tr.span("a", cat="y"):
            pass
        stats = {(s.cat, s.name): s for s in obs.aggregate(tr)}
        assert stats[("x", "a")].count == 3
        assert stats[("y", "a")].count == 1

    def test_render_contains_all_spans(self):
        tr = obs.Tracer("summary-test")
        with tr.span("alpha", cat="x"):
            pass
        text = obs.render_summary(tr)
        assert "summary-test" in text and "x/alpha" in text

    def test_render_empty(self):
        assert "no spans" in obs.render_summary(obs.Tracer("t"))
