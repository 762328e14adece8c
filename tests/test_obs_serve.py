"""The telemetry serving layer: exposition format and live endpoints.

The Prometheus tests parse the exposition *back* line by line --
sanitised names, label escaping, cumulative ``_bucket`` series capped
by ``le="+Inf"``, ``_sum``/``_count`` agreement -- because a scraper,
not a human, is the consumer.  The HTTP tests bind a real server on an
ephemeral port, including one polling ``/healthz`` and ``/metrics``
*while* ``evaluate_matrix`` runs on another thread (the ``feam serve``
deployment shape).
"""

import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import (
    TelemetryServer,
    escape_label_value,
    render_prometheus,
)

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$")


def parse_exposition(text):
    """(name, labels-str, float) triples for every sample line."""
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        assert match, f"unparsable exposition line: {line!r}"
        samples.append((match.group("name"), match.group("labels") or "",
                        float(match.group("value"))))
    return samples


class TestExpositionFormat:
    def test_counter_gauge_names_sanitised_and_typed(self):
        registry = MetricsRegistry()
        registry.counter("engine.cache.evaluation.hits").inc(4)
        registry.gauge("matrix.unknown_cells.pct").set(7.5)
        text = render_prometheus(registry)
        samples = dict((name, value) for name, _, value
                       in parse_exposition(text))
        assert samples["feam_engine_cache_evaluation_hits_total"] == 4
        assert samples["feam_matrix_unknown_cells_pct"] == 7.5
        assert "# TYPE feam_engine_cache_evaluation_hits_total counter" \
            in text
        assert "# TYPE feam_matrix_unknown_cells_pct gauge" in text
        # HELP keeps the original dotted name for humans.
        assert "engine.cache.evaluation.hits" in text

    def test_histogram_bucket_sum_count_parse_back(self):
        registry = MetricsRegistry()
        h = registry.histogram("engine.cell.wall_seconds",
                               buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 42.0):
            h.observe(value)
        samples = parse_exposition(render_prometheus(registry))
        base = "feam_engine_cell_wall_seconds"
        buckets = [(labels, value) for name, labels, value in samples
                   if name == f"{base}_bucket"]
        les = [dict(pair.split("=", 1) for pair in labels.split(","))
               ['le'].strip('"') for labels, _ in buckets]
        counts = [value for _, value in buckets]
        assert les == ["0.01", "0.1", "1.0", "+Inf"]
        assert counts == [1.0, 2.0, 3.0, 4.0]  # cumulative
        by_name = {name: value for name, _, value in samples}
        assert by_name[f"{base}_count"] == 4.0
        assert by_name[f"{base}_count"] == counts[-1]
        assert by_name[f"{base}_sum"] == pytest.approx(42.555)

    def test_label_escaping_round_trips(self):
        assert escape_label_value('pla\\in"quo\nte') \
            == 'pla\\\\in\\"quo\\nte'
        registry = MetricsRegistry()
        registry.counter("c").inc()
        text = render_prometheus(
            registry, labels={"run": 'a"b\\c\nd', "site": "fir"})
        (line,) = [l for l in text.splitlines()
                   if l.startswith("feam_c_total")]
        assert '\\"' in line and "\\\\" in line and "\\n" in line
        assert "\n" not in line  # the newline itself must not leak
        assert 'site="fir"' in line

    def test_labels_attach_to_every_sample_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        text = render_prometheus(registry, labels={"run": "x"})
        for name, labels, _ in parse_exposition(text):
            assert 'run="x"' in labels, f"{name} lost the global label"

    def test_empty_registry_renders_no_samples(self):
        assert parse_exposition(render_prometheus(MetricsRegistry())) \
            == []


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestEndpoints:
    @pytest.fixture
    def served(self):
        collector = obs.Collector()
        collector.metrics.counter("engine.invalidations").inc(2)
        with collector.tracer.span("engine.matrix"):
            with collector.tracer.span("engine.site", site="fir"):
                pass
        with TelemetryServer(collector, port=0) as server:
            yield server

    def test_metrics_endpoint(self, served):
        status, body = _get(served.url + "/metrics")
        assert status == 200
        assert dict((n, v) for n, _, v in parse_exposition(body))[
            "feam_engine_invalidations_total"] == 2

    def test_healthz(self, served):
        status, body = _get(served.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["spans"] == 2
        assert payload["active"] is True
        assert payload["breakers"] == {}       # no breaker gauges yet

    def test_healthz_and_slo_report_breaker_states(self):
        collector = obs.Collector()
        collector.metrics.gauge(
            "resilience.breaker.fir.state").set(2)
        collector.metrics.gauge(
            "resilience.breaker.ranger.state").set(0)
        with TelemetryServer(collector, port=0) as server:
            _, health = _get(server.url + "/healthz")
            _, slo = _get(server.url + "/slo")
        expected = {"fir": "open", "ranger": "closed"}
        assert json.loads(health)["breakers"] == expected
        assert json.loads(slo)["breakers"] == expected

    def test_trace_tree(self, served):
        status, body = _get(served.url + "/trace")
        payload = json.loads(body)
        assert status == 200
        assert payload["span_count"] == 2
        (root,) = payload["roots"]
        assert root["name"] == "engine.matrix"
        assert root["children"][0]["attrs"] == {"site": "fir"}

    def test_slo_endpoint_reports_violations_as_503(self, served):
        status, body = _get(served.url + "/slo")
        payload = json.loads(body)
        # The bare fixture registry misses the mandatory gauges.
        assert status == 503
        assert payload["ok"] is False

    def test_runs_endpoint_lists_the_ledger(self, tmp_path):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(str(tmp_path / "runs"))
        ledger.record({"run_id": "r-1", "kind": "matrix", "seed": 7,
                       "rollup": {"cells": 10}})
        ledger.record({"run_id": "r-2", "kind": "chaos", "seed": 7,
                       "rollup": {"cells": 10}})
        with TelemetryServer(obs.Collector(), port=0,
                             ledger=ledger) as server:
            status, body = _get(server.url + "/runs")
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == 2
        assert [run["run_id"] for run in payload["runs"]] \
            == ["r-1", "r-2"]
        assert payload["runs"][1]["kind"] == "chaos"
        assert payload["runs"][1]["cells"] == 10

    def test_runs_endpoint_counts_bench_cells_as_feam_runs_does(
            self, tmp_path):
        from repro.__main__ import _render_runs_table
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(str(tmp_path / "runs"))
        ledger.record({"run_id": "b-1", "kind": "bench",
                       "bench": {"cells": 20}})
        with TelemetryServer(obs.Collector(), port=0,
                             ledger=ledger) as server:
            status, body = _get(server.url + "/runs")
        assert status == 200
        assert json.loads(body)["runs"][0]["cells"] == 20
        table = _render_runs_table(ledger.runs(), 1, 1, ledger)
        assert table.splitlines()[-1].split()[4] == "20"

    def test_runs_endpoint_empty_ledger(self, tmp_path):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(str(tmp_path / "empty"))
        with TelemetryServer(obs.Collector(), port=0,
                             ledger=ledger) as server:
            status, body = _get(server.url + "/runs")
        assert status == 200
        assert json.loads(body) == {"path": ledger.path, "count": 0,
                                    "runs": []}

    def test_default_ledger_follows_the_environment(self, tmp_path,
                                                    monkeypatch):
        from repro.obs.ledger import LEDGER_FILE

        monkeypatch.setenv("FEAM_LEDGER_DIR", str(tmp_path / "env"))
        with TelemetryServer(obs.Collector(), port=0) as server:
            status, body = _get(server.url + "/runs")
        assert status == 200
        assert json.loads(body)["path"] == str(tmp_path / "env" / LEDGER_FILE)

    def test_unknown_path_404(self, served):
        status, body = _get(served.url + "/definitely-not")
        assert status == 404
        assert "/metrics" in body
        assert "/alerts" in body

    def test_build_info_gauge_on_metrics(self, served):
        import repro
        from repro.obs import alerts as alerts_mod
        from repro.obs import ledger as ledger_mod
        from repro.obs import wide as wide_mod

        _, body = _get(served.url + "/metrics")
        (line,) = [l for l in body.splitlines()
                   if l.startswith("feam_build_info")]
        assert line.endswith(" 1")
        assert f'version="{repro.__version__}"' in line
        assert f'wide_schema="{wide_mod.SCHEMA_VERSION}"' in line
        assert f'ledger_schema="{ledger_mod.SCHEMA_VERSION}"' in line
        assert f'alert_schema="{alerts_mod.SCHEMA_VERSION}"' in line
        assert "# TYPE feam_build_info gauge" in body
        # The renderer must still parse as clean exposition format.
        samples = dict((n, v) for n, _, v in parse_exposition(body))
        assert samples["feam_build_info"] == 1

    def test_default_collector_is_the_installed_one(self):
        with TelemetryServer(port=0) as server:
            status, payload = _get(server.url + "/healthz")
            assert json.loads(payload)["active"] is False
            with obs.capture() as collector:
                collector.metrics.counter("x").inc()
                _, body = _get(server.url + "/metrics")
                assert "feam_x_total 1" in body


class TestAlertEndpoints:
    """The serve exit/status contract around the alert engine.

    ``/alerts`` is the only scrape that *ticks* the burn windows;
    ``/healthz`` reads the same engine without advancing it, so a
    liveness probe can poll at any frequency without paging anyone.
    """

    def _healthy(self, collector):
        collector.metrics.gauge("matrix.cells.total").set(20)
        collector.metrics.gauge("matrix.unknown_cells.pct").set(0.0)

    def test_alerts_endpoint_503_body_while_firing(self):
        # A bare registry violates the mandatory critical rules; the
        # default for_ticks=2 means tick 1 is pending (200), tick 2
        # fires (503).
        with TelemetryServer(obs.Collector(), port=0) as server:
            status, body = _get(server.url + "/alerts")
            payload = json.loads(body)
            assert status == 200
            assert payload["tick"] == 1
            assert payload["firing"] == []
            assert [s["state"] for s in payload["pending"]] \
                == ["pending"] * len(payload["pending"])

            status, body = _get(server.url + "/alerts")
            payload = json.loads(body)
            assert status == 503
            assert payload["tick"] == 2
            firing = {s["alert"] for s in payload["firing"]}
            assert "slo:matrix.cells.total > 0" in firing
            assert all(s["severity"] == "critical"
                       for s in payload["firing"])

    def test_healthz_lifecycle_200_503_200(self):
        collector = obs.Collector()
        with TelemetryServer(collector, port=0) as server:
            health = server.url + "/healthz"
            alerts = server.url + "/alerts"

            # Pending (tick 1): the probe must NOT page yet.
            _get(alerts)
            status, body = _get(health)
            payload = json.loads(body)
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["alerts"]["pending"] > 0
            assert payload["alerts"]["critical_firing"] is False

            # Firing (tick 2): degraded, 503.
            _get(alerts)
            status, body = _get(health)
            payload = json.loads(body)
            assert status == 503
            assert payload["status"] == "degraded"
            assert payload["alerts"]["firing"] > 0
            assert payload["alerts"]["critical_firing"] is True

            # Healthz itself never ticks the engine: poll it again
            # and the state is unchanged.
            status, _ = _get(health)
            assert status == 503
            assert server.alerts.tick == 2

            # Healthy metrics arrive; the next /alerts tick resolves
            # (burn_fast drops below 1.0) and the probe recovers.
            self._healthy(collector)
            status, body = _get(alerts)
            assert status == 200
            assert json.loads(body)["firing"] == []
            status, body = _get(health)
            payload = json.loads(body)
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["alerts"]["firing"] == 0

    def test_healthz_stays_ok_while_only_warn_alerts_fire(self):
        from repro.obs import alerts as alerts_mod

        engine = alerts_mod.AlertEngine(rules=[], emit_obs=False)
        engine.set_condition("anomaly:x:g", True, severity="warn")
        with TelemetryServer(obs.Collector(), port=0,
                             alerts=engine) as server:
            status, body = _get(server.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["alerts"]["firing"] == 1
        assert payload["alerts"]["critical_firing"] is False

    def test_alerts_resolution_is_a_transition_not_amnesia(self):
        collector = obs.Collector()
        self._healthy(collector)
        with TelemetryServer(collector, port=0) as server:
            _get(server.url + "/alerts")
            _, body = _get(server.url + "/alerts")
        payload = json.loads(body)
        # Healthy from the start: nothing ever pended or fired.
        assert payload["transitions"] == 0
        assert payload["alerts"] == []


class TestServeDuringMatrix:
    @pytest.fixture(scope="class")
    def matrix_inputs(self):
        from repro.core.engine import EngineBinary
        from repro.sites.catalog import build_paper_sites
        from repro.toolchain.compilers import Language

        sites = build_paper_sites(20130101)[:3]
        binaries = []
        for index, site in enumerate(sites[:2]):
            stack = site.stacks[0]
            name = f"serve-{site.name}-{index}"
            linked = site.compile_mpi_program(
                name, Language.FORTRAN, stack)
            binaries.append(
                EngineBinary(binary_id=name, image=linked.image))
        return sites, binaries

    def test_healthz_and_metrics_while_matrix_runs(self, matrix_inputs):
        from repro.core.engine import EvaluationEngine

        sites, binaries = matrix_inputs
        engine = EvaluationEngine()
        statuses = []
        with obs.capture() as collector:
            with TelemetryServer(collector, port=0) as server:
                done = threading.Event()

                def scrape():
                    while not done.is_set():
                        status, _ = _get(server.url + "/healthz")
                        statuses.append(status)
                        status, body = _get(server.url + "/metrics")
                        statuses.append(status)
                        parse_exposition(body)  # must stay well-formed

                scraper = threading.Thread(target=scrape, daemon=True)
                scraper.start()
                try:
                    for _ in range(2):  # second round = warm caches
                        engine.evaluate_matrix(binaries, sites)
                finally:
                    done.set()
                    scraper.join(timeout=10)

                assert statuses and set(statuses) == {200}
                # After the run the matrix gauges are scrapable.
                _, body = _get(server.url + "/metrics")
                samples = dict((n, v) for n, _, v
                               in parse_exposition(body))
                assert samples["feam_matrix_cells_total"] \
                    == len(binaries) * len(sites)
                assert samples["feam_engine_cache_hit_rate"] > 0
                status, health = _get(server.url + "/healthz")
                assert json.loads(health)["spans"] \
                    == len(collector.tracer.snapshot())
