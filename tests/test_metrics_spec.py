"""Prometheus text exposition format conformance.

The ``/metrics`` endpoint is only useful if real Prometheus can scrape
it, so these tests hold :meth:`MetricsRegistry.render_prometheus` to the
spec: line grammar, label-value escaping (backslash, quote, newline),
HELP escaping, the ``_total`` counter naming convention, and cumulative
histogram buckets ending in ``+Inf``.
"""

from __future__ import annotations

import re

import pytest

from repro.api import Database
from repro.telemetry import Telemetry
from repro.telemetry.registry import MetricsRegistry

# One exposition line: HELP/TYPE comment, or `name{labels} value`.
_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(
    rf"^{_NAME}(\{{.*\}})? -?(\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$"
)
_COMMENT = re.compile(rf"^# (HELP|TYPE) {_NAME}( .*)?$")


def _unescape_label(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        if value[i] == "\\" and i + 1 < len(value):
            out.append({"n": "\n", "\\": "\\", '"': '"'}[value[i + 1]])
            i += 2
        else:
            out.append(value[i])
            i += 1
    return "".join(out)


class TestLineGrammar:
    def test_every_line_of_a_real_scrape_parses(self):
        db = Database(telemetry=True)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.query("SELECT SUM(x) FROM t")
        db.query("SELECT * FROM repro_running_queries")
        with pytest.raises(Exception):
            db.query("SELECT nope FROM t")
        text = db.metrics_text()
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            assert _SAMPLE.match(line) or _COMMENT.match(line), (
                f"malformed exposition line: {line!r}"
            )

    def test_help_and_type_precede_samples(self):
        text = Database(telemetry=True).metrics_text()
        seen_type: dict = {}
        for line in text.rstrip("\n").split("\n"):
            if line.startswith("# TYPE "):
                name, kind = line.split(" ")[2:4]
                assert name not in seen_type, f"duplicate TYPE for {name}"
                seen_type[name] = kind
            elif not line.startswith("#"):
                base = line.split("{")[0].split(" ")[0]
                family = re.sub(r"_(bucket|sum|count)$", "", base)
                assert base in seen_type or family in seen_type, (
                    f"sample {base} before its TYPE line"
                )


class TestCounterNaming:
    def test_counter_registration_enforces_total_suffix(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="_total"):
            registry.counter("requests", "A misnamed counter.")
        registry.counter("requests_total", "A counter.")

    def test_every_builtin_counter_ends_in_total(self):
        for metric in Telemetry().registry.metrics():
            if metric.kind == "counter":
                assert metric.name.endswith("_total"), metric.name


class TestLabelEscaping:
    def test_backslash_quote_and_newline_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "weird_total", "Counts weird label values.", ["sql"]
        )
        hostile = 'SELECT "a\\b"\nFROM t'
        counter.inc(sql=hostile)
        text = registry.render_prometheus()
        sample = [
            line
            for line in text.splitlines()
            if line.startswith("weird_total{")
        ]
        assert len(sample) == 1, "newline in a label value split the line"
        rendered = sample[0]
        assert "\\\\" in rendered and '\\"' in rendered and "\\n" in rendered
        inner = re.search(r'sql="((?:[^"\\]|\\.)*)"', rendered).group(1)
        assert _unescape_label(inner) == hostile

    def test_escaped_line_still_matches_the_grammar(self):
        registry = MetricsRegistry()
        counter = registry.counter("odd_total", "Odd.", ["v"])
        counter.inc(v='back\\slash and "quote"')
        for line in registry.render_prometheus().rstrip("\n").split("\n"):
            assert _SAMPLE.match(line) or _COMMENT.match(line), line


class TestHelpEscaping:
    def test_newline_and_backslash_in_help_stay_on_one_line(self):
        registry = MetricsRegistry()
        registry.counter("g_total", "first line\nsecond \\ line")
        text = registry.render_prometheus()
        help_lines = [
            line for line in text.splitlines() if line.startswith("# HELP g_total ")
        ]
        assert help_lines == ["# HELP g_total first line\\nsecond \\\\ line"]


class TestHistogramBuckets:
    def test_buckets_are_cumulative_and_end_in_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency_ms", "Latency.", buckets=(1.0, 5.0, 25.0)
        )
        for value in (0.5, 0.7, 3.0, 30.0, 100.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        buckets = []
        for line in text.splitlines():
            match = re.match(r'latency_ms_bucket\{le="([^"]+)"\} (\d+)', line)
            if match:
                buckets.append((match.group(1), int(match.group(2))))
        assert [b[0] for b in buckets] == ["1", "5", "25", "+Inf"]
        counts = [b[1] for b in buckets]
        assert counts == sorted(counts), "buckets are not cumulative"
        assert counts == [2, 3, 3, 5]
        assert "latency_ms_count 5" in text
        assert "latency_ms_sum 134.2" in text

    def test_histogram_with_labels_renders_le_last(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "op_ms", "Op latency.", labelnames=["op"], buckets=(1.0,)
        )
        histogram.observe(0.5, op="scan")
        text = registry.render_prometheus()
        assert re.search(r'op_ms_bucket\{op="scan", le="1"\} 1', text)
        assert re.search(r'op_ms_bucket\{op="scan", le="\+Inf"\} 1', text)
