"""Benchmark corpus tests: benchmark models, compile rules, builder."""

import pytest

from repro.corpus.benchmarks import (
    ALL_BENCHMARKS,
    NPB_BENCHMARKS,
    SPEC_BENCHMARKS,
    Suite,
    benchmark,
)
from repro.corpus.builder import CorpusConfig, build_corpus
from repro.corpus.rules import compile_failure_reason, compile_succeeds
from repro.mpi.implementations import mvapich2, open_mpi
from repro.mpi.stack import Interconnect, MpiStackSpec
from repro.toolchain.compilers import Language, gnu, intel, pgi


class TestBenchmarkModels:
    def test_paper_benchmark_sets(self):
        assert [b.name for b in NPB_BENCHMARKS] == [
            "is", "ep", "cg", "mg", "bt", "sp", "lu"]
        assert [b.name for b in SPEC_BENCHMARKS] == [
            "104.milc", "107.leslie3d", "115.fds4", "122.tachyon",
            "126.lammps", "127.GAPgeofem", "129.tera_tf"]

    def test_languages(self):
        assert benchmark("nas.is").language is Language.C
        assert benchmark("nas.bt").language is Language.FORTRAN
        assert benchmark("spec.126.lammps").language is Language.CXX

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            benchmark("nas.zz")

    def test_qualified_names_unique(self):
        names = [b.qualified_name for b in ALL_BENCHMARKS]
        assert len(names) == len(set(names))

    def test_f90_flags(self):
        assert benchmark("spec.107.leslie3d").needs_f90
        assert not benchmark("nas.bt").needs_f90


class TestCompileRules:
    def spec(self, release, compiler):
        return MpiStackSpec(release, compiler, Interconnect.INFINIBAND)

    def test_g77_cannot_build_f90(self):
        stack = self.spec(open_mpi("1.3"), gnu("3.4.6"))
        reason = compile_failure_reason(benchmark("spec.107.leslie3d"), stack)
        assert reason is not None and "g77" in reason
        # NPB is FORTRAN 77: fine with g77.
        assert compile_succeeds(benchmark("nas.bt"), stack)

    def test_npb_fortran_fails_with_intel12(self):
        stack = self.spec(open_mpi("1.4"), intel("12.0"))
        assert not compile_succeeds(benchmark("nas.lu"), stack)
        assert compile_succeeds(benchmark("nas.is"), stack)  # C is fine
        old = self.spec(open_mpi("1.4"), intel("11.1"))
        assert compile_succeeds(benchmark("nas.lu"), old)

    def test_old_mvapich_cannot_link_bt_sp(self):
        stack = self.spec(mvapich2("1.2"), gnu("3.4.6"))
        assert not compile_succeeds(benchmark("nas.bt"), stack)
        assert not compile_succeeds(benchmark("nas.sp"), stack)
        assert compile_succeeds(benchmark("nas.cg"), stack)
        new = self.spec(mvapich2("1.7a"), gnu("4.1.2"))
        assert compile_succeeds(benchmark("nas.bt"), new)

    def test_pgi_rules(self):
        stack = self.spec(open_mpi("1.4"), pgi("10.3"))
        assert not compile_succeeds(benchmark("nas.is"), stack)
        assert not compile_succeeds(benchmark("spec.126.lammps"), stack)
        assert compile_succeeds(benchmark("spec.115.fds4"), stack)
        old = self.spec(open_mpi("1.3"), pgi("7.2"))
        assert not compile_succeeds(benchmark("spec.115.fds4"), old)


class TestCorpusBuilder:
    @pytest.fixture(scope="class")
    def corpus_and_sites(self):
        from repro.sites.catalog import build_paper_sites
        sites = build_paper_sites(555)
        corpus = build_corpus(sites, CorpusConfig(seed=555))
        return corpus, sites

    def test_published_counts(self, corpus_and_sites):
        corpus, _sites = corpus_and_sites
        assert corpus.counts() == {Suite.NPB: 110, Suite.SPEC: 147}

    def test_binaries_installed_at_build_sites(self, corpus_and_sites):
        corpus, sites = corpus_and_sites
        by_name = {s.name: s for s in sites}
        for binary in corpus.binaries[:25]:
            fs = by_name[binary.build_site].machine.fs
            assert fs.is_file(binary.path)
            assert fs.read(binary.path) == binary.image

    def test_binaries_run_at_build_site(self, corpus_and_sites):
        corpus, sites = corpus_and_sites
        by_name = {s.name: s for s in sites}
        for binary in corpus.binaries[::40]:
            site = by_name[binary.build_site]
            stack = site.find_stack(binary.stack_slug)
            result = site.run_with_retries(
                "revalidate", binary.image, stack,
                provenance=binary.provenance)
            assert result.ok, binary.binary_id

    def test_misconfigured_stack_produces_no_binaries(self, corpus_and_sites):
        corpus, _sites = corpus_and_sites
        assert not any(b.stack_slug == "mpich2-1.3-pgi"
                       for b in corpus.binaries)
        assert any(s.stage == "local-run" and s.stack_slug == "mpich2-1.3-pgi"
                   for s in corpus.skipped)

    def test_skip_reasons_recorded(self, corpus_and_sites):
        corpus, _sites = corpus_and_sites
        stages = {s.stage for s in corpus.skipped}
        assert stages == {"compile", "local-run", "trim"}

    def test_binary_ids_unique(self, corpus_and_sites):
        corpus, _sites = corpus_and_sites
        ids = [b.binary_id for b in corpus.binaries]
        assert len(ids) == len(set(ids))

    def test_find(self, corpus_and_sites):
        corpus, _sites = corpus_and_sites
        first = corpus.binaries[0]
        assert corpus.find(first.binary_id) is first
        with pytest.raises(KeyError):
            corpus.find("nas.zz@nowhere/stack")

    def test_trim_disabled_keeps_everything(self):
        from repro.sites.catalog import build_paper_sites
        sites = build_paper_sites(556)
        corpus = build_corpus(
            sites, CorpusConfig(seed=556, target_counts=None))
        counts = corpus.counts()
        assert counts[Suite.NPB] > 110
        assert counts[Suite.SPEC] > 147

    def test_deterministic_under_seed(self, corpus_and_sites):
        corpus, _sites = corpus_and_sites
        from repro.sites.catalog import build_paper_sites
        again = build_corpus(build_paper_sites(555),
                             CorpusConfig(seed=555))
        assert [b.binary_id for b in again.binaries] == \
            [b.binary_id for b in corpus.binaries]
