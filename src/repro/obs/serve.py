"""Telemetry serving: ``/metrics``, ``/healthz`` and ``/trace`` over HTTP.

The production story for FEAM telemetry is *scraping*, not log files:
a Prometheus-compatible collector polls ``/metrics`` while a batch
evaluation is running, a liveness probe polls ``/healthz``, and a
human debugging a run pulls ``/trace`` for the latest span tree.  All
of it is stdlib-only (``http.server``), so ``feam serve`` works in any
environment the framework itself works in.

Two halves:

* :func:`render_prometheus` -- the Prometheus text exposition (format
  0.0.4) of a :class:`~repro.obs.metrics.MetricsRegistry`: counters as
  ``_total`` samples, gauges verbatim, histograms as cumulative
  ``_bucket{le=...}`` series plus ``_sum``/``_count``.  Dotted FEAM
  names are sanitised into the ``[a-zA-Z0-9_:]`` charset under a
  ``feam_`` namespace; the original dotted name is kept in the
  ``# HELP`` line.  Optional *labels* are attached to every sample
  with standard label-value escaping (backslash, double quote,
  newline).
* :class:`TelemetryServer` -- a threading HTTP server bound to the
  installed collector (or any collector you hand it), safe to run
  concurrently with ``evaluate_matrix``: every read goes through the
  thread-safe snapshot paths (``Tracer.snapshot``,
  ``MetricsRegistry.instruments``).

Endpoints:

========== ============================================================
path       response
========== ============================================================
/metrics   Prometheus text exposition of the collector's registry
/healthz   ``{"status": "ok", "spans": N, "events": N, "active": B,
           "breakers": {site: state}}``
/trace     the latest span tree as nested JSON
/slo       DEFAULT_RULES (or the server's rules) against live metrics,
           plus the same per-site ``breakers`` map
/alerts    one burn-rate evaluation tick of the server's alert engine
           (:mod:`repro.obs.alerts`) against live metrics; 503 while
           anything is firing.  ``/healthz`` reads the same engine
           without ticking it and degrades to 503 (``status:
           degraded``) while *critical* alerts fire
/snapshot  a ``repro.obs.watch.sample`` snapshot (metric summaries plus
           raw histogram buckets) -- the ``feam watch`` attach feed
/runs      the run ledger (:mod:`repro.obs.ledger`): per-run manifest
           summaries, newest last, plus the warehouse path
========== ============================================================

Both health-facing endpoints surface circuit-breaker state: the
resilience layer publishes one ``resilience.breaker.<site>.state``
gauge per site (0=closed, 1=half-open, 2=open) and
:func:`breaker_states` folds those back into words, so a probe can
alert on quarantined sites without parsing Prometheus text.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Sequence

import repro
from repro import obs
from repro.obs import alerts as alerts_mod
from repro.obs import ledger as ledger_mod
from repro.obs import slo as slo_mod
from repro.obs import wide as wide_mod
from repro.obs.export import span_record, span_tree

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: Conventional exposition content type (Prometheus text format 0.0.4).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Gauge names of the form ``resilience.breaker.<site>.state`` carry the
#: circuit-breaker state for one site.  The numeric codes mirror
#: ``repro.core.resilience.BREAKER_STATE_CODES`` -- duplicated here
#: (word side) because ``repro.obs`` is a strictly lower layer and must
#: not import ``repro.core``.
_BREAKER_GAUGE = re.compile(r"^resilience\.breaker\.(?P<site>.+)\.state$")
_BREAKER_WORDS = {0: "closed", 1: "half-open", 2: "open"}


def breaker_states(registry) -> dict:
    """Per-site circuit-breaker state words from breaker gauges.

    Scans the registry for ``resilience.breaker.<site>.state`` gauges
    and maps their codes back to state words; unknown codes are
    reported verbatim so a skewed producer is visible, not hidden.
    """
    _counters, gauges, _histograms = registry.instruments()
    states = {}
    for name, gauge in gauges.items():
        match = _BREAKER_GAUGE.match(name)
        if match is not None:
            code = int(gauge.value)
            states[match.group("site")] = _BREAKER_WORDS.get(
                code, f"code-{code}")
    return dict(sorted(states.items()))


def _metric_name(name: str, namespace: str) -> str:
    """A valid Prometheus metric name for a dotted FEAM name."""
    sanitized = _NAME_SANITIZE.sub("_", name)
    return f"{namespace}_{sanitized}" if namespace else sanitized


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``,
    and newline."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_str(labels: Optional[dict], extra: str = "") -> str:
    """Render ``{k="v",...}`` (empty string when there are no labels)."""
    parts = [f'{key}="{escape_label_value(value)}"'
             for key, value in sorted((labels or {}).items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _num(value: float) -> str:
    """A float the exposition parsers read back exactly (repr)."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(registry, namespace: str = "feam",
                      labels: Optional[dict] = None) -> str:
    """The registry as Prometheus text exposition (format 0.0.4).

    *labels* are attached to every sample (e.g. ``{"run": "matrix"}``)
    with standard escaping; histogram buckets additionally carry their
    ``le`` edge, cumulative, ending in ``le="+Inf"``.
    """
    counters, gauges, histograms = registry.instruments()
    lines: list[str] = []
    plain = _label_str(labels)

    for name, counter in sorted(counters.items()):
        metric = _metric_name(name, namespace) + "_total"
        lines.append(f"# HELP {metric} FEAM counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{plain} {_num(counter.value)}")

    for name, gauge in sorted(gauges.items()):
        metric = _metric_name(name, namespace)
        lines.append(f"# HELP {metric} FEAM gauge {name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{plain} {_num(gauge.value)}")

    for name, histogram in sorted(histograms.items()):
        metric = _metric_name(name, namespace)
        lines.append(f"# HELP {metric} FEAM histogram {name}")
        lines.append(f"# TYPE {metric} histogram")
        pairs = histogram.bucket_counts()
        with histogram._lock:
            total, count = histogram.total, histogram.count
        for bound, cumulative in pairs:
            edge = "+Inf" if bound is None else _num(bound)
            bucket_labels = _label_str(labels, extra=f'le="{edge}"')
            lines.append(f"{metric}_bucket{bucket_labels} {cumulative}")
        lines.append(f"{metric}_sum{plain} {_num(total)}")
        lines.append(f"{metric}_count{plain} {count}")

    return "\n".join(lines) + "\n"


def render_build_info(namespace: str = "feam",
                      labels: Optional[dict] = None) -> str:
    """The ``feam_build_info`` gauge: package and schema versions.

    The standard Prometheus idiom for version telemetry -- a constant
    ``1`` whose *labels* carry the versions, so dashboards can join
    any other series against the code that produced it.  Schema labels
    cover every on-disk artefact a scraper might also be reading: wide
    events, run-ledger manifests and incident timelines.
    """
    merged = dict(labels or {})
    merged.update({
        "version": repro.__version__,
        "wide_schema": str(wide_mod.SCHEMA_VERSION),
        "ledger_schema": str(ledger_mod.SCHEMA_VERSION),
        "alert_schema": str(alerts_mod.SCHEMA_VERSION),
    })
    metric = _metric_name("build.info", namespace)
    return (f"# HELP {metric} FEAM build and schema versions\n"
            f"# TYPE {metric} gauge\n"
            f"{metric}{_label_str(merged)} 1\n")


def trace_tree_json(spans: Sequence) -> dict:
    """The span list as a nested JSON-ready tree (the ``/trace`` body)."""
    def node(tree_node) -> dict:
        record = span_record(tree_node.span)
        record.pop("type", None)
        record["children"] = [node(child)
                              for child in tree_node.children]
        return record

    roots = span_tree(list(spans))
    return {"span_count": len(spans), "roots": [node(r) for r in roots]}


class _Handler(BaseHTTPRequestHandler):
    """Routes one GET; the server instance carries the collector."""

    server: "TelemetryServer"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        telemetry = self.server.telemetry
        collector = telemetry.collector()
        if path == "/metrics":
            body = (render_prometheus(
                collector.metrics, namespace=telemetry.namespace,
                labels=telemetry.labels)
                + render_build_info(namespace=telemetry.namespace,
                                    labels=telemetry.labels)
            ).encode("utf-8")
            self._reply(200, CONTENT_TYPE, body)
        elif path == "/healthz":
            # Reads alert state without ticking the engine: liveness
            # probes must not advance burn windows, only scrapes of
            # ``/alerts`` evaluate.  Critical firing alerts degrade
            # the probe to 503 so orchestrators stop routing to (or
            # restart) an instance that is actively paging.
            spans = collector.tracer.snapshot()
            engine = telemetry.alerts
            degraded = engine.has_critical_firing
            payload = {
                "status": "degraded" if degraded else "ok",
                "active": bool(collector.active),
                "spans": len(spans),
                "events": len(getattr(collector.events, "events", ())),
                "breakers": breaker_states(collector.metrics),
                "alerts": {
                    "firing": len(engine.firing),
                    "pending": len(engine.pending),
                    "critical_firing": degraded,
                },
            }
            self._reply_json(503 if degraded else 200, payload)
        elif path == "/trace":
            spans = collector.tracer.snapshot()
            self._reply_json(200, trace_tree_json(spans))
        elif path == "/snapshot":
            # The ``feam watch`` attach-mode feed: a watch.sample()
            # snapshot (metric summaries + raw histogram buckets).
            from repro.obs import watch as watch_mod
            self._reply_json(200, watch_mod.sample(collector))
        elif path == "/slo":
            report = slo_mod.evaluate(
                telemetry.rules, collector.metrics.to_dict())
            payload = report.to_dict()
            payload["breakers"] = breaker_states(collector.metrics)
            self._reply_json(200 if report.ok else 503, payload)
        elif path == "/alerts":
            # Scrape-driven evaluation: every GET is one burn-rate
            # tick over the live metrics snapshot (the serialised
            # lock keeps concurrent scrapes from interleaving a tick).
            with telemetry.alerts_lock:
                telemetry.alerts.observe(collector.metrics.to_dict())
                payload = telemetry.alerts.to_dict()
            firing = bool(payload["firing"])
            self._reply_json(503 if firing else 200, payload)
        elif path == "/runs":
            runs = telemetry.ledger.runs()
            payload = {
                "path": telemetry.ledger.path,
                "count": len(runs),
                "runs": [{key: run.get(key)
                          for key in ("run_id", "ts", "kind", "seed")}
                         | {"cells": (run.get("rollup") or {}).get("cells")}
                         for run in runs],
            }
            self._reply_json(200, payload)
        else:
            self._reply_json(404, {"error": f"unknown path {path!r}",
                                   "paths": ["/metrics", "/healthz",
                                             "/trace", "/slo",
                                             "/alerts", "/snapshot",
                                             "/runs"]})

    def _reply_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._reply(status, "application/json; charset=utf-8", body)

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args) -> None:
        pass  # scrapers poll; stderr noise helps nobody


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    telemetry: "TelemetryServer"


class TelemetryServer:
    """A background ``/metrics`` + ``/healthz`` + ``/trace`` server.

    *collector* may be a fixed :class:`~repro.obs.Collector` or a
    zero-arg callable returning one (defaults to the process-installed
    collector, so a server started before ``obs.capture()`` follows
    the capture).  Bind *port* 0 to let the OS pick a free port (read
    it back from :attr:`port`).

    Usage::

        with obs.capture() as collector:
            with TelemetryServer(collector, port=9464) as server:
                engine.evaluate_matrix(binaries, sites)
                ...  # scrape http://127.0.0.1:9464/metrics meanwhile
    """

    def __init__(self, collector=None, host: str = "127.0.0.1",
                 port: int = 9464, namespace: str = "feam",
                 labels: Optional[dict] = None,
                 rules: Optional[Sequence[slo_mod.SloRule]] = None,
                 ledger: Optional[ledger_mod.RunLedger] = None,
                 alerts: Optional[alerts_mod.AlertEngine] = None) -> None:
        if collector is None:
            self.collector: Callable = obs.current
        elif callable(collector):
            self.collector = collector
        else:
            self.collector = lambda: collector
        self.namespace = namespace
        self.labels = dict(labels) if labels else None
        self.rules = tuple(rules) if rules is not None \
            else slo_mod.DEFAULT_RULES
        self.ledger = (ledger if ledger is not None
                       else ledger_mod.RunLedger())
        # The burn-rate engine behind /alerts and /healthz.  The
        # default set is alerts_mod.DEFAULT_ALERT_SLOS -- narrower
        # than self.rules on purpose (wall-clock and warm-cache
        # objectives page nobody).
        self.alerts = (alerts if alerts is not None
                       else alerts_mod.AlertEngine())
        self.alerts_lock = threading.Lock()
        self._httpd = _Server((host, port), _Handler)
        self._httpd.telemetry = self
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        """Serve from a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="feam-telemetry", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
