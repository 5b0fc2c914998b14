"""The ``repro tail`` trace summariser."""

import os
import subprocess
import sys

import repro
from repro.obs import TelemetryEvent, summarize
from repro.obs.tail import render, tail

TRACE = "ab" * 8
SPAN_A = "aa" * 6
SPAN_B = "bb" * 6


def _ev(event, span, ts, **kw):
    return TelemetryEvent(
        event=event, trace_id=TRACE, span_id=span, ts=ts, **kw
    )


def _demo_events():
    return [
        _ev("run_start", TRACE, 0.0, label="sweep"),
        _ev("run_start", SPAN_A, 1.0, label="job-a"),
        _ev("round", SPAN_A, 1.5,
            data={"wall_round": 120, "billed_rounds": 110}),
        _ev("budget", SPAN_A, 1.6,
            data={"margins": {"theorem1": 42.5}, "violations": 0}),
        _ev("run_end", SPAN_A, 2.0, data={"status": "ok"}),
        _ev("run_start", SPAN_B, 1.0, label="job-b"),
        _ev("violation", SPAN_B, 3.0,
            data={"budget": "theorem1", "margin": -1.0}),
        _ev("run_end", SPAN_B, 4.0, data={"status": "ok"}),
        _ev("run_end", TRACE, 5.0, data={"jobs": 2}),
    ]


class TestSummarize:
    def test_folds_spans_and_margins(self):
        summary = summarize(_demo_events())
        assert summary.events == 9
        assert summary.problem is None
        assert summary.violations == 1
        span_a = summary.spans[(TRACE, SPAN_A)]
        assert span_a.label == "job-a"
        assert span_a.rounds == 120
        assert span_a.billed_rounds == 110
        assert span_a.margins == {"theorem1": 42.5}
        assert span_a.duration == 1.0
        assert span_a.rounds_per_sec == 120.0
        span_b = summary.spans[(TRACE, SPAN_B)]
        assert span_b.violations == 1
        assert span_b.duration == 3.0

    def test_slowest_first_and_open_spans(self):
        events = _demo_events()[:-3]  # drop span B's end and trace end
        summary = summarize(events)
        closed = summary.closed_spans()
        assert [s.span_id for s in closed] == [SPAN_A]
        assert {s.span_id for s in summary.open_spans()} == {SPAN_B, TRACE}
        assert summary.problem is not None  # unfinished spans flagged

    def test_unknown_duration_yields_zero_rate(self):
        summary = summarize([_ev("run_start", SPAN_A, 1.0)])
        span = summary.spans[(TRACE, SPAN_A)]
        assert span.duration is None
        assert span.rounds_per_sec == 0.0


class TestRender:
    def test_clean_trace_reports_zero_violations(self):
        events = [e for e in _demo_events() if e.event != "violation"]
        text = "\n".join(render(summarize(events)))
        assert "0 violations" in text
        assert "VIOLATION" not in text.replace("violations", "")
        assert "job-a" in text

    def test_violations_are_loud(self):
        text = "\n".join(render(summarize(_demo_events())))
        assert "1 VIOLATION" in text

    def test_sweep_span_is_not_a_job_row(self):
        lines = render(summarize(_demo_events()))
        table = [li for li in lines if li.startswith("  " + TRACE)]
        assert table == []  # the trace-level span never lists as a job

    def test_tail_handles_empty_dir(self, tmp_path):
        assert "no telemetry events" in tail(str(tmp_path))

    def test_truncated_trace_reported_but_not_failing(self):
        # Drop span B's run_end and the trace end: a crashed worker or a
        # truncated file must be called out, never rendered as complete.
        events = _demo_events()[:-3]
        text = "\n".join(render(summarize(events)))
        assert "INCOMPLETE" in text
        assert "OPEN" in text
        # ...but incompleteness is not a violation: the exit-code word
        # "VIOLATION" must not appear for a merely truncated trace.
        assert "VIOLATION(S)" not in text

    def test_serve_trace_counts_only_started_spans(self):
        # A ``repro serve`` trace: one daemon span plus span-less
        # request/queue/latency events, which fold into a pseudo-span.
        events = [
            _ev("run_start", TRACE, 0.0, label="serve"),
            _ev("request", "", 1.0, data={"source": "fresh", "status": "ok"}),
            _ev("queue", "", 1.1, data={"depth": 0, "capacity": 64}),
            _ev("latency", "", 1.2, data={"source": "all", "p50_ms": 2.0}),
            _ev("run_end", TRACE, 2.0),
        ]
        lines = render(summarize(events), latency=True)
        assert lines[0] == "trace: 5 events, 1 spans (1 closed), 0 violations"
        assert "INCOMPLETE" not in "\n".join(lines)

    def test_complete_trace_has_no_incomplete_line(self):
        text = "\n".join(render(summarize(_demo_events())))
        assert "INCOMPLETE" not in text

    def test_span_names_its_loop_and_fast_path_is_explained(self):
        events = _demo_events()
        events[4] = _ev("run_end", SPAN_A, 2.0,
                        data={"status": "ok", "backend": "array"})
        events[7] = _ev("run_end", SPAN_B, 4.0,
                        data={"status": "ok", "backend": "reference"})
        summary = summarize(events)
        assert summary.spans[(TRACE, SPAN_A)].backend == "array"
        lines = render(summary)
        row_a = next(li for li in lines if li.startswith("  " + SPAN_A))
        row_b = next(li for li in lines if li.startswith("  " + SPAN_B))
        assert " array " in row_a and " reference " in row_b
        text = "\n".join(lines)
        assert "1 span(s) ran on the array fast path" in text
        assert "terminal round" in text
        # Traces without the field render a dash and no fast-path note.
        old = "\n".join(render(summarize(_demo_events())))
        assert "fast path" not in old


def _resource_ev(span, ts, cpu=0.5, energy=None):
    return _ev("resource", span, ts, data={
        "wall_s": 1.0, "cpu_user_s": cpu, "cpu_sys_s": 0.1,
        "cpu_s": cpu + 0.1, "max_rss_kb": 50_000, "rss_delta_kb": 10,
        "gc_collections": 2, "energy_j": energy,
        "energy_source": "rapl" if energy is not None else "unavailable",
    })


class TestResources:
    def test_resource_events_fold_into_spans(self):
        events = _demo_events() + [_resource_ev(SPAN_A, 1.9)]
        summary = summarize(events)
        assert summary.spans[(TRACE, SPAN_A)].resources["cpu_s"] == 0.6

    def test_render_resources_totals_and_na_energy(self):
        from repro.obs.tail import render_resources

        events = _demo_events() + [
            _resource_ev(SPAN_A, 1.9, cpu=0.5),
            _resource_ev(SPAN_B, 3.5, cpu=1.5),
        ]
        lines = render_resources(summarize(events))
        assert "2 sampled span(s)" in lines[0]
        assert "2.200 cpu-sec" in lines[0]  # 0.6 + 1.6
        assert "energy n/a J" in lines[0]
        # Costliest span first.
        assert "job-b" in lines[2] and "job-a" in lines[3]

    def test_render_resources_with_energy(self):
        from repro.obs.tail import render_resources

        events = _demo_events() + [_resource_ev(SPAN_A, 1.9, energy=2.5)]
        lines = render_resources(summarize(events))
        assert "energy 2.500 J" in lines[0]

    def test_no_resource_events_message(self):
        from repro.obs.tail import render_resources

        lines = render_resources(summarize(_demo_events()))
        assert "no resource events" in lines[0]

    def test_render_flag_includes_section(self):
        events = _demo_events() + [_resource_ev(SPAN_A, 1.9)]
        text = "\n".join(render(summarize(events), resources=True))
        assert "resources:" in text
        text_off = "\n".join(render(summarize(events)))
        assert "resources:" not in text_off

    def test_run_start_meta_is_kept(self):
        events = [
            _ev("run_start", SPAN_A, 1.0, label="job-a",
                data={"algorithm": "bfdn", "size": 120, "k": 2}),
        ]
        span = summarize(events).spans[(TRACE, SPAN_A)]
        assert span.meta["algorithm"] == "bfdn"
        assert span.meta["size"] == 120


class TestBudgetSources:
    def test_margin_carries_its_source(self):
        events = [e for e in _demo_events() if e.event != "violation"]
        text = "\n".join(render(summarize(events)))
        assert "theorem1=+42.5 [Theorem 1]" in text

    def test_tail_submodule_imports_as_a_module(self):
        # ``import a.b as c`` binds the package attribute ``a.b``: it must
        # be the module, not a re-exported function of the same name.
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import repro.obs.tail as t; print(t.render.__name__, t.tail.__name__)"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["render", "tail"]
