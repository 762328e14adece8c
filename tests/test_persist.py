"""The persistent evaluation cache: warm starts, quarantine, chaos.

Covers the on-disk tier end to end: payload round-trips, the store's
durability classification (torn tail vs torn write vs checksum vs
newer schema), LRU/size compaction, engine read-through/write-behind
across *fresh engine instances*, the config binding of evaluation
records, the ``feam cache`` CLI verbs, and a real SIGKILL
crash-recovery run (subprocess) whose rerun against the same cache
directory warm-hits to a byte-identical grid.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core import persist
from repro.core.config import FeamConfig
from repro.core.engine import EngineBinary, EvaluationEngine
from repro.core.persist import PersistentStore
from repro.sysmodel import faults
from repro.toolchain.compilers import Language
from repro.util.jsonl import dump_line

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def compiled_app(make_site):
    donor = make_site("persist-donor")
    stack = donor.find_stack("openmpi-1.4-intel")
    return donor.compile_mpi_program("p-app", Language.FORTRAN, stack)


def grid_lines(rendered: str) -> list[str]:
    """The rendered matrix without its run-varying ``cache:`` line."""
    return [line for line in rendered.splitlines()
            if not line.startswith("cache:")]


# -- payload round-trips ---------------------------------------------------------


class TestPayloadRoundTrips:
    def test_description_roundtrip(self, make_site, compiled_app):
        site = make_site("pp-desc")
        site.machine.fs.write("/home/user/p-app", compiled_app.image,
                              mode=0o755)
        engine = EvaluationEngine()
        description, _hit = engine.describe(site, "/home/user/p-app")
        payload = persist.description_to_payload(description)
        json.loads(dump_line(payload))  # JSON-serialisable
        assert persist.description_from_payload(payload) == description

    def test_environment_roundtrip(self, make_site):
        site = make_site("pp-env")
        engine = EvaluationEngine()
        environment, _hit, _retry = engine._discover(site)
        payload = persist.environment_to_payload(environment)
        assert persist.environment_from_payload(payload) == environment

    def test_report_roundtrip_is_summary_grade(self, make_site,
                                               compiled_app):
        site = make_site("pp-rep")
        engine = EvaluationEngine()
        report = engine.evaluate_cell(site, image=compiled_app.image,
                                      binary_id="p-app")
        restored = persist.report_from_payload(
            persist.report_to_payload(report))
        assert restored.ready == report.ready
        assert restored.prediction.mode == report.prediction.mode
        assert [(r.key, r.outcome) for r in
                restored.prediction.determinants] == \
            [(r.key, r.outcome) for r in report.prediction.determinants]
        assert restored.prediction.reasons == report.prediction.reasons
        assert restored.environment == report.environment
        assert restored.feam_seconds == pytest.approx(
            report.feam_seconds, abs=1e-6)
        # Staging artefacts are deliberately not persisted.
        assert restored.resolution is None
        assert restored.run_environment is None


# -- the store -------------------------------------------------------------------


class TestStoreBasics:
    def test_store_load_roundtrip(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.store("evaluation", "k1", {"x": 1}, fingerprint="fp")
        assert store.load("evaluation", "k1", fingerprint="fp") == \
            {"x": 1}
        assert store.load("evaluation", "nope") is None
        store.close()

    def test_survives_process_boundary(self, tmp_path):
        with PersistentStore(str(tmp_path)) as store:
            store.store("description", "k", {"deep": {"n": [1, 2]}})
        second = PersistentStore(str(tmp_path))
        assert second.load("description", "k") == {"deep": {"n": [1, 2]}}
        assert second.quarantined == {}
        second.close()

    def test_fingerprint_mismatch_is_stale_not_served(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.store("evaluation", "k", {"x": 1}, fingerprint="old")
        assert store.load("evaluation", "k", fingerprint="new") is None
        # Dropped, not quarantined: staleness is not corruption.
        assert store.quarantined == {}
        assert store.load("evaluation", "k", fingerprint="old") is None
        store.close()

    def test_tombstone_survives_reopen(self, tmp_path):
        with PersistentStore(str(tmp_path)) as store:
            store.store("discovery", "k", {"x": 1})
            assert store.drop("discovery", "k") is True
        second = PersistentStore(str(tmp_path))
        assert second.load("discovery", "k") is None
        second.close()

    def test_newest_record_wins(self, tmp_path):
        with PersistentStore(str(tmp_path)) as store:
            store.store("evaluation", "k", {"v": 1})
            store.store("evaluation", "k", {"v": 2})
        second = PersistentStore(str(tmp_path))
        assert second.load("evaluation", "k") == {"v": 2}
        second.close()

    def test_stats_counts_layers(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.store("description", "a", {})
        store.store("evaluation", "b", {})
        store.store("evaluation", "c", {})
        stats = store.stats()
        assert stats["layers"]["description"]["entries"] == 1
        assert stats["layers"]["evaluation"]["entries"] == 2
        assert stats["entries"] == 3
        assert stats["schema"] == persist.SCHEMA_VERSION
        store.close()


class TestDurabilityClassification:
    def seeded(self, tmp_path, keys=("k1", "k2", "k3")) -> str:
        with PersistentStore(str(tmp_path)) as store:
            for key in keys:
                store.store("evaluation", key, {"key": key})
        return str(tmp_path / "evaluation.jsonl")

    def test_torn_tail_is_skipped_not_quarantined(self, tmp_path):
        path = self.seeded(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "layer": "evalua')  # kill -9
        store = PersistentStore(str(tmp_path))
        assert store.load("evaluation", "k1") == {"key": "k1"}
        assert store.torn_tail == 1
        assert store.quarantined == {}
        store.close()

    def test_midfile_garbage_is_quarantined(self, tmp_path):
        path = self.seeded(tmp_path)
        lines = Path(path).read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        Path(path).write_text("\n".join(lines) + "\n")
        with obs.capture() as collector:
            store = PersistentStore(str(tmp_path))
            assert store.load("evaluation", "k1") == {"key": "k1"}
            assert store.load("evaluation", "k3") == {"key": "k3"}
            store.close()
        assert store.quarantined == {"torn-write": 1}
        counters = collector.metrics.to_dict()["counters"]
        assert counters["persist.cache.quarantined"] == 1
        assert counters["persist.cache.quarantined.torn-write"] == 1

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        path = self.seeded(tmp_path)
        text = Path(path).read_text().replace('"key": "k2"',
                                              '"key": "kX"', 1)
        Path(path).write_text(text)
        store = PersistentStore(str(tmp_path))
        assert store.load("evaluation", "k2") is None
        assert store.quarantined == {"checksum": 1}
        store.close()

    def test_newer_schema_is_quarantined(self, tmp_path):
        self.seeded(tmp_path, keys=("k1",))
        record = {"schema": persist.SCHEMA_VERSION + 1,
                  "layer": "evaluation", "key": "future",
                  "payload": {}, "sum": "whatever"}
        with open(tmp_path / "evaluation.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write(dump_line(record) + "\n")
            handle.write(dump_line({"pad": True}) + "\n")
        store = PersistentStore(str(tmp_path))
        assert store.load("evaluation", "future") is None
        assert store.load("evaluation", "k1") == {"key": "k1"}
        assert store.quarantined["newer-schema"] == 1
        store.close()

    def test_verify_reports_and_compact_repairs(self, tmp_path):
        path = self.seeded(tmp_path)
        lines = Path(path).read_text().splitlines()
        lines[1] = lines[1][:-10]
        Path(path).write_text("\n".join(lines) + "\n")
        store = PersistentStore(str(tmp_path))
        report = store.verify()
        assert report["ok"] is False
        summary = store.compact()
        assert summary["evaluation"]["kept"] == 2
        clean = store.verify()
        assert clean["ok"] is True
        store.close()

    def test_clear_removes_everything(self, tmp_path):
        self.seeded(tmp_path)
        store = PersistentStore(str(tmp_path))
        assert store.clear() == 3
        assert store.load("evaluation", "k1") is None
        assert not (tmp_path / "evaluation.jsonl").exists()
        store.close()


class TestEvictionAndCompaction:
    def test_compaction_dedupes_superseded_records(self, tmp_path):
        with PersistentStore(str(tmp_path)) as store:
            for round_no in range(3):
                for key in ("a", "b"):
                    store.store("evaluation", key, {"round": round_no})
            store.compact()
        lines = (tmp_path / "evaluation.jsonl").read_text().splitlines()
        assert len(lines) == 2  # one line per live key
        second = PersistentStore(str(tmp_path))
        assert second.load("evaluation", "a") == {"round": 2}
        second.close()

    def test_byte_cap_evicts_least_recently_used_first(self, tmp_path):
        store = PersistentStore(str(tmp_path), max_bytes=100_000)
        for index in range(10):
            store.store("evaluation", f"k{index}", {"i": index})
        # Touch k0 so it is the most recently used.
        assert store.load("evaluation", "k0") is not None
        record_bytes = len(dump_line({
            "schema": 1, "layer": "evaluation", "key": "k0",
            "fingerprint": None, "payload": {"i": 0},
            "sum": persist.record_checksum(
                "evaluation", "k0", None, {"i": 0})})) + 1
        store.max_bytes = record_bytes * 3 + 2
        with obs.capture() as collector:
            store.compact()
        survivors = PersistentStore(str(tmp_path))
        assert survivors.load("evaluation", "k0") is not None
        assert survivors.load("evaluation", "k1") is None
        counters = collector.metrics.to_dict()["counters"]
        assert counters["persist.cache.evicted"] == 7
        store.close()
        survivors.close()

    def test_over_cap_store_compacts_inline(self, tmp_path):
        store = PersistentStore(str(tmp_path), max_bytes=400)
        for index in range(20):
            store.store("evaluation", "same-key", {"i": index})
        # Appends crossed the cap repeatedly; compaction kept the
        # segment at one live record.
        lines = (tmp_path / "evaluation.jsonl").read_text().splitlines()
        assert len(lines) <= 3
        assert store.load("evaluation", "same-key") == {"i": 19}
        store.close()


# -- chaos fault kinds ------------------------------------------------------------


class TestCacheFaults:
    def test_torn_write_fault_degrades_to_miss_on_reload(self, tmp_path):
        plan = faults.FaultPlan.parse(
            "cache-torn-write @ * rate=1.0 persistent", seed=3)
        with faults.injecting(plan):
            with PersistentStore(str(tmp_path)) as store:
                store.store("evaluation", "k", {"x": 1})
        second = PersistentStore(str(tmp_path))
        assert second.load("evaluation", "k") is None
        # The single torn line is the segment tail: skipped, counted.
        assert second.torn_tail == 1
        second.close()

    def test_corruption_fault_quarantines_at_read(self, tmp_path):
        with PersistentStore(str(tmp_path)) as store:
            store.store("evaluation", "k", {"x": 1})
        plan = faults.FaultPlan.parse(
            "cache-corruption @ * rate=1.0 persistent", seed=3)
        with faults.injecting(plan):
            second = PersistentStore(str(tmp_path))
            assert second.load("evaluation", "k") is None
            second.close()
        assert second.quarantined == {"cache-corruption": 1}

    def test_cache_profile_names_both_kinds(self):
        plan = faults.FaultPlan.profile("cache", seed=9)
        kinds = {spec.kind for spec in plan.specs}
        assert kinds == {faults.FaultKind.CACHE_TORN_WRITE,
                         faults.FaultKind.CACHE_CORRUPTION}


# -- engine integration -----------------------------------------------------------


class TestEngineWarmStart:
    def run_matrix(self, make_site, image, store, names=("wa", "wb"),
                   config=None):
        engine = EvaluationEngine(config=config, persist=store)
        sites = [make_site(name) for name in names]
        result = engine.evaluate_matrix(
            [EngineBinary("p-app", image)], sites)
        engine.close()
        return engine, result

    def test_fresh_engine_warm_hits_every_layer(self, tmp_path,
                                                make_site, compiled_app):
        cold_store = PersistentStore(str(tmp_path))
        _, cold = self.run_matrix(make_site, compiled_app.image,
                                  cold_store)
        assert all(not c.report.cache.evaluation_hit
                   for c in cold.cells)

        warm_store = PersistentStore(str(tmp_path))
        engine, warm = self.run_matrix(make_site, compiled_app.image,
                                       warm_store)
        assert all(c.report.cache.evaluation_hit for c in warm.cells)
        assert all(c.report.cache.tier == "disk" for c in warm.cells)
        assert engine.stats.evaluation_hits == 2
        assert engine.stats.evaluation_misses == 0
        assert engine.stats.discovery_misses == 0
        assert grid_lines(warm.render()) == grid_lines(cold.render())

    def test_records_are_bound_to_the_engine_config(
            self, tmp_path, make_site, compiled_app):
        # A store filled under one config must not serve evaluations to
        # an engine built with another: the cells are recomputed under
        # the new timing model, exactly as a cold run would.
        _, default_cold = self.run_matrix(
            make_site, compiled_app.image, PersistentStore(str(tmp_path)))
        slow = FeamConfig(feam_base_seconds=99.0)
        _, slow_cold = self.run_matrix(
            make_site, compiled_app.image,
            PersistentStore(str(tmp_path / "other")), config=slow)
        engine, slow_warm = self.run_matrix(
            make_site, compiled_app.image, PersistentStore(str(tmp_path)),
            config=slow)
        assert [c.report.cache.tier for c in slow_warm.cells] == \
            [None, None]
        assert [c.report.feam_seconds for c in slow_warm.cells] == \
            [c.report.feam_seconds for c in slow_cold.cells]
        assert slow_warm.cells[0].report.feam_seconds != \
            default_cold.cells[0].report.feam_seconds
        # Descriptions and discoveries do not read the config: still
        # served from disk.
        assert engine.stats.discovery_misses == 0
        assert engine.stats.description_misses == 0
        # The default config's records are still there for its engines.
        _, default_warm = self.run_matrix(
            make_site, compiled_app.image, PersistentStore(str(tmp_path)))
        assert [c.report.cache.tier for c in default_warm.cells] == \
            ["disk", "disk"]

    def test_memory_hit_outranks_disk(self, tmp_path, make_site,
                                      compiled_app):
        store = PersistentStore(str(tmp_path))
        engine = EvaluationEngine(persist=store)
        site = make_site("mt")
        first = engine.evaluate_cell(site, image=compiled_app.image,
                                     binary_id="p-app")
        assert first.cache.tier is None
        again = engine.evaluate_cell(site, image=compiled_app.image,
                                     binary_id="p-app")
        assert again.cache.tier == "memory"
        assert store.disk_hits == 0
        engine.close()

    def test_poisoned_cache_recomputes_identical_outcomes(
            self, tmp_path, make_site, compiled_app):
        cold_store = PersistentStore(str(tmp_path))
        _, cold = self.run_matrix(make_site, compiled_app.image,
                                  cold_store)
        plan = faults.FaultPlan.parse(
            "cache-corruption @ * rate=1.0 persistent", seed=5)
        with obs.capture() as collector:
            with faults.injecting(plan):
                poisoned_store = PersistentStore(str(tmp_path))
                _, poisoned = self.run_matrix(
                    make_site, compiled_app.image, poisoned_store)
        # Every stored record quarantined -> full recomputation -- and
        # the matrix outcomes are unchanged.
        counters = collector.metrics.to_dict()["counters"]
        assert counters["persist.cache.quarantined"] > 0
        assert all(not c.report.cache.evaluation_hit
                   for c in poisoned.cells)
        assert grid_lines(poisoned.render()) == grid_lines(cold.render())
        assert [c.outcome_word for c in poisoned.cells] == \
            [c.outcome_word for c in cold.cells]

    def test_quarantine_trips_the_critical_slo_rule(self):
        from repro.obs.slo import DEFAULT_RULES, evaluate
        with obs.capture() as collector:
            obs.counter("persist.cache.quarantined").inc()
        report = evaluate(DEFAULT_RULES, collector.metrics.to_dict())
        failed = [r for r in report.results if r.status == "fail"]
        assert any(r.rule.metric == "persist.cache.quarantined"
                   and r.rule.severity == "critical" for r in failed)

    def test_refresh_site_supersedes_stored_discovery(
            self, tmp_path, make_site, compiled_app):
        store = PersistentStore(str(tmp_path))
        engine = EvaluationEngine(persist=store)
        site = make_site("rf")
        engine.evaluate_cell(site, image=compiled_app.image,
                             binary_id="p-app")
        before = engine.fingerprint_for(site)
        # An OS upgrade lands on the site.
        site.machine.fs.write_text(
            "/etc/redhat-release", "CentOS release 6.2 (Final)\n")
        assert engine.refresh_site(site) is True
        after = engine.fingerprint_for(site)
        assert after != before
        engine.close()
        # A fresh engine warm-loads the *refreshed* environment: the
        # re-discovery superseded the stored record (newest wins).
        warm = EvaluationEngine(persist=PersistentStore(str(tmp_path)))
        twin = make_site("rf")
        _environment, hit, _retry = warm._discover(twin)
        assert hit is True
        assert warm.fingerprint_for(twin) == after
        warm.close()

    def test_cold_fleet_runs_write_byte_identical_stores(self, tmp_path):
        # Two cold runs, each with a fresh default engine and its own
        # store, must append the same records in the same order.
        from repro.sites.generator import resolve_sites

        layers = ("description", "discovery", "evaluation")
        written = []
        for run in ("first", "second"):
            sites = resolve_sites("fleet:n=10,seed=4")
            binaries = []
            for index in range(2):
                site = sites[index]
                stack = site.stacks[index % len(site.stacks)]
                name = f"app-{site.name}-{stack.spec.slug}-{index}"
                linked = site.compile_mpi_program(
                    name, Language.FORTRAN, stack)
                binaries.append(
                    EngineBinary(binary_id=name, image=linked.image))
            directory = tmp_path / run
            engine = EvaluationEngine(
                persist=PersistentStore(str(directory)))
            engine.evaluate_matrix(binaries, sites)
            engine.close()
            written.append({layer: (directory / f"{layer}.jsonl")
                            .read_bytes() for layer in layers})
        assert all(written[0].values())
        for layer in layers:
            assert written[0][layer] == written[1][layer], layer


# -- the `feam cache` CLI ----------------------------------------------------------


class TestCacheCli:
    def run(self, capsys, *argv):
        from repro.__main__ import feam_main
        code = feam_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_requires_a_directory(self, capsys):
        code, _out, err = self.run(capsys, "cache", "stats")
        assert code == 1
        assert "no cache directory" in err

    def test_stats_verify_compact_clear_cycle(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, _out, _err = self.run(
            capsys, "matrix", "--binaries", "1", "--cache-dir",
            cache_dir)
        assert code == 0
        code, out, _err = self.run(capsys, "cache", "stats",
                                   "--cache-dir", cache_dir)
        assert code == 0
        assert "evaluation" in out
        code, out, _err = self.run(capsys, "cache", "verify",
                                   "--cache-dir", cache_dir)
        assert code == 0
        assert "store: OK" in out

        # Corrupt one mid-file evaluation record.
        path = Path(cache_dir) / "evaluation.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"payload"', '"pwnload"', 1)
        path.write_text("\n".join(lines) + "\n")
        code, out, _err = self.run(capsys, "cache", "verify",
                                   "--cache-dir", cache_dir)
        assert code == 1
        assert "store: CORRUPT" in out
        code, _out, _err = self.run(capsys, "cache", "compact",
                                    "--cache-dir", cache_dir)
        assert code == 0
        code, out, _err = self.run(capsys, "cache", "verify",
                                   "--cache-dir", cache_dir)
        assert code == 0
        code, out, _err = self.run(capsys, "cache", "clear",
                                   "--cache-dir", cache_dir)
        assert code == 0
        assert "cleared" in out
        assert not path.exists()

    def test_stats_json_is_machine_readable(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self.run(capsys, "matrix", "--binaries", "1",
                 "--cache-dir", cache_dir)
        code, out, _err = self.run(capsys, "cache", "stats", "--json",
                                   "--cache-dir", cache_dir)
        assert code == 0
        stats = json.loads(out)
        assert stats["layers"]["evaluation"]["entries"] == 5

    def test_matrix_warm_run_and_no_cache_flag(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, cold, _err = self.run(
            capsys, "matrix", "--binaries", "1", "--cache-dir",
            cache_dir)
        assert code == 0
        code, warm, _err = self.run(
            capsys, "matrix", "--binaries", "1", "--cache-dir",
            cache_dir)
        assert code == 0
        assert "evaluation 5/5 hit" in warm
        assert grid_lines(warm) == grid_lines(cold)
        mtime = os.path.getmtime(Path(cache_dir) / "evaluation.jsonl")
        code, off, _err = self.run(
            capsys, "matrix", "--binaries", "1", "--cache-dir",
            cache_dir, "--no-cache")
        assert code == 0
        assert "evaluation 0/5 hit" in off
        assert os.path.getmtime(
            Path(cache_dir) / "evaluation.jsonl") == mtime

    def test_env_var_selects_the_cache_dir(self, capsys, tmp_path,
                                           monkeypatch):
        cache_dir = tmp_path / "envcache"
        monkeypatch.setenv("FEAM_CACHE_DIR", str(cache_dir))
        code, _out, err = self.run(capsys, "matrix", "--binaries", "1")
        assert code == 0
        assert str(cache_dir) in err
        assert (cache_dir / "evaluation.jsonl").exists()


# -- crash recovery (subprocess, SIGKILL) ------------------------------------------


def run_feam(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("FEAM_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", "feam", *argv],
        capture_output=True, text=True, env=env, cwd=str(cwd),
        timeout=180)


class TestCrashRecovery:
    def test_sigkill_midrun_then_resume_is_byte_identical(self,
                                                          tmp_path):
        cache_dir = tmp_path / "cache"
        segment = cache_dir / "evaluation.jsonl"
        argv = ["matrix", "--binaries", "2", "--seed", "11",
                "--cache-dir", str(cache_dir), "--no-ledger"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("FEAM_CACHE_DIR", None)

        def stored_records() -> int:
            """Complete, decodable lines in the evaluation segment."""
            if not segment.exists():
                return 0
            complete = segment.read_text().split("\n")[:-1]
            count = 0
            for line in complete:
                try:
                    json.loads(line)
                except ValueError:
                    continue
                count += 1
            return count

        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "feam", *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=env, cwd=str(tmp_path))
        # Kill -9 as soon as at least one evaluation reached the store.
        deadline = time.time() + 120
        while time.time() < deadline:
            if stored_records() >= 1:
                break
            if victim.poll() is not None:
                break
            time.sleep(0.005)
        victim.kill() if victim.poll() is None else None
        victim.wait(timeout=30)
        stored = stored_records()
        assert stored >= 1, "kill landed before any cell completed"

        # Simulate the torn final store record of a harder kill.
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "layer": "evalu')

        # A clean reference run in a third, uncontaminated process.
        reference = run_feam(
            ["matrix", "--binaries", "2", "--seed", "11",
             "--cache-dir", str(tmp_path / "refcache"), "--no-ledger"],
            cwd=tmp_path)
        assert reference.returncode == 0, reference.stderr

        # The rerun against the same cache directory serves every
        # stored cell from disk, computes the rest, and renders the
        # same grid; the torn tail is tolerated, not fatal.
        survivor = run_feam(argv, cwd=tmp_path)
        assert survivor.returncode == 0, survivor.stderr
        hits = re.search(r"evaluation (\d+)/10 hit", survivor.stdout)
        assert hits is not None, survivor.stdout
        assert int(hits.group(1)) >= stored
        assert grid_lines(survivor.stdout) == grid_lines(reference.stdout)
        assert "Traceback" not in survivor.stderr
