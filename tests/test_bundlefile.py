"""Bundle serialization round-trip and file-based two-phase workflow."""

import dataclasses
import gzip
import hashlib
import io
import json
import tarfile

import pytest

from repro.core import Feam
from repro.core.bundlefile import (
    BundleFormatError,
    pack_bundle,
    unpack_bundle,
)
from repro.core.discovery import EnvironmentDescription
from repro.sites.site import Site
from repro.toolchain.compilers import Language
from tests.conftest import TEST_SEED, _mini_spec


def _manifest(archive: bytes):
    with tarfile.open(fileobj=io.BytesIO(archive), mode="r:gz") as tar:
        return json.loads(tar.extractfile("MANIFEST.json").read())


def _with_manifest(archive: bytes, manifest) -> bytes:
    """*archive* with its manifest replaced by *manifest*."""
    out = io.BytesIO()
    with tarfile.open(fileobj=io.BytesIO(archive), mode="r:gz") as src, \
            tarfile.open(fileobj=out, mode="w:gz") as dst:
        for member in src.getmembers():
            if member.name != "MANIFEST.json":
                dst.addfile(member, src.extractfile(member))
        blob = json.dumps(manifest).encode()
        info = tarfile.TarInfo("MANIFEST.json")
        info.size = len(blob)
        dst.addfile(info, io.BytesIO(blob))
    return out.getvalue()


@pytest.fixture
def donor(make_site):
    return make_site("bf-donor")


def _source_bundle(donor):
    stack = donor.find_stack("openmpi-1.4-intel")
    app = donor.compile_mpi_program("bf-app", Language.FORTRAN, stack)
    donor.machine.fs.write("/home/user/bf-app", app.image, mode=0o755)
    return Feam().run_source_phase(donor, "/home/user/bf-app",
                                   env=donor.env_with_stack(stack))


@pytest.fixture
def bundle(donor):
    return _source_bundle(donor)


@pytest.fixture(scope="module")
def packed():
    """One (bundle, archive) pair for the tests that only read them."""
    bundle = _source_bundle(Site(_mini_spec("bf-donor"), TEST_SEED))
    return bundle, pack_bundle(bundle)


class TestRoundTrip:
    def test_lossless(self, bundle):
        restored = unpack_bundle(pack_bundle(bundle))
        assert restored.description == bundle.description
        assert restored.created_at == bundle.created_at
        assert len(restored.libraries) == len(bundle.libraries)
        for original, back in zip(bundle.libraries, restored.libraries):
            # A gathered copy is held by image identity; the archive
            # carries its bytes, and unpacking yields bytes.
            assert dataclasses.replace(back, image=None) == \
                dataclasses.replace(original, image=None)
            assert back.copied == original.copied
            if original.copied:
                assert isinstance(back.image, bytes)
                assert back.copy_data() == original.copy_data()
        assert restored.guaranteed_environment == \
            bundle.guaranteed_environment
        assert restored.hello is not None
        assert restored.hello.images == bundle.hello.images

    def test_deterministic(self, bundle):
        assert pack_bundle(bundle) == pack_bundle(bundle)

    def test_archive_bytes_are_pinned(self, packed):
        # The copies and probes were measured when copies were still
        # bytes read from the donor's filesystem, under format 1; holding
        # them by image identity and format 2's manifest must not move a
        # byte of them.  The whole tar stream is pinned at format 2; the
        # tar stream rather than the gzip stream around it, which
        # depends on the zlib build.
        _bundle, archive = packed
        members = hashlib.sha256()
        with tarfile.open(fileobj=io.BytesIO(archive), mode="r:gz") as tar:
            for member in tar.getmembers():
                if member.name != "MANIFEST.json":
                    members.update(member.name.encode() + b"\0")
                    members.update(tar.extractfile(member).read())
        assert members.hexdigest() == (
            "2c97fe1782a5329c78a298c20740a3e1d282566831811c278db3e0431e4bad53")
        assert hashlib.sha256(gzip.decompress(archive)).hexdigest() == (
            "823507855faeed27ce4db9964a02b58414ece67d3b863770fc111449585b7285")

    def test_archive_is_real_tar(self, bundle):
        archive = pack_bundle(bundle)
        with tarfile.open(fileobj=io.BytesIO(archive), mode="r:gz") as tar:
            names = tar.getnames()
        assert "MANIFEST.json" in names
        assert any(name.startswith("libs/libmpi.so.0") for name in names)
        assert "hello/c" in names

    def test_archive_smaller_than_copies(self, bundle):
        # gzip should compress the pseudo-random payloads at least a bit
        # (headers/symbol tables compress; payload entropy dominates).
        archive = pack_bundle(bundle)
        assert len(archive) < bundle.copy_bytes * 1.1


class TestFormatErrors:
    def test_not_an_archive(self):
        with pytest.raises(BundleFormatError):
            unpack_bundle(b"this is not a tarball")

    def test_missing_manifest(self):
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w:gz") as tar:
            info = tarfile.TarInfo("random.txt")
            info.size = 2
            tar.addfile(info, io.BytesIO(b"hi"))
        with pytest.raises(BundleFormatError, match="MANIFEST"):
            unpack_bundle(buffer.getvalue())

    def test_missing_library_member(self, bundle):
        archive = pack_bundle(bundle)
        # Rewrite the archive without one of the library members.
        src = tarfile.open(fileobj=io.BytesIO(archive), mode="r:gz")
        out = io.BytesIO()
        with tarfile.open(fileobj=out, mode="w:gz") as dst:
            for member in src.getmembers():
                if member.name == "libs/libmpi.so.0":
                    continue
                dst.addfile(member, src.extractfile(member))
        src.close()
        with pytest.raises(BundleFormatError, match="libmpi.so.0"):
            unpack_bundle(out.getvalue())

    def test_bad_version(self, packed):
        _bundle, archive = packed
        manifest = dict(_manifest(archive), format_version=99)
        with pytest.raises(BundleFormatError, match="version"):
            unpack_bundle(_with_manifest(archive, manifest))

    def test_format_1_manifest_is_refused(self, packed):
        # Format 1 wrote each library in a record codec of its own;
        # format 2 describes it with the binary's.
        bundle, archive = packed
        manifest = _manifest(archive)
        assert manifest["format_version"] == 2
        with pytest.raises(BundleFormatError,
                           match="unsupported bundle format version: 1"):
            unpack_bundle(_with_manifest(
                archive, dict(manifest, format_version=1)))
        described = [entry["description"]
                     for entry in manifest["libraries"]]
        assert all(set(d) == set(manifest["description"])
                   for d in described)
        restored = unpack_bundle(archive)
        assert [r.description for r in restored.libraries] == \
            [r.description for r in bundle.libraries]
        assert all(r.description is not None
                   for r in restored.libraries if r.located)

    @pytest.mark.parametrize("mutate, match", [
        (lambda m: {"format_version": m["format_version"]}, "libraries"),
        (lambda m: dict(m, description={}), "description.*'path'"),
        (lambda m: dict(m, libraries=[{"soname": "x"}]),
         "libraries.*'located_path'"),
        (lambda m: [m], "not a JSON object"),
        (lambda m: dict(m, guaranteed_environment={"isa": "x86_64"}),
         "guaranteed_environment.*'hostname'"),
        (lambda m: dict(m, libraries=7), "libraries"),
        (lambda m: dict(m, hello={"languages": ["c"]}), "hello"),
    ], ids=["no-libraries", "empty-description", "library-without-path",
            "list-manifest", "environment-without-hostname",
            "libraries-not-a-list", "hello-without-members"])
    def test_malformed_manifest(self, packed, mutate, match):
        _bundle, archive = packed
        manifest = mutate(_manifest(archive))
        with pytest.raises(BundleFormatError, match=match):
            unpack_bundle(_with_manifest(archive, manifest))


class TestEnvironmentCodec:
    def test_manifest_uses_the_shared_codec(self, packed):
        bundle, archive = packed
        environment = bundle.guaranteed_environment
        manifest = _manifest(archive)
        assert manifest["guaranteed_environment"] == environment.to_dict()
        assert EnvironmentDescription.from_dict(
            manifest["guaranteed_environment"]) == environment

    def test_absent_optional_fields_decode_to_defaults(self, packed):
        _bundle, archive = packed
        manifest = _manifest(archive)
        sparse = {key: manifest["guaranteed_environment"][key]
                  for key in ("hostname", "isa", "os_type")}
        sparse["stacks"] = [{"label": "openmpi-1.4-intel"}]
        restored = unpack_bundle(_with_manifest(
            archive, dict(manifest, guaranteed_environment=sparse)))
        environment = restored.guaranteed_environment
        assert environment.hostname == sparse["hostname"]
        assert environment.libc_version is None
        assert environment.loaded_stacks == ()
        (stack,) = environment.stacks
        assert stack.via == "path-search"
        assert stack.module_name is None


class TestFileBasedWorkflow:
    def test_archive_written_by_source_phase(self, donor):
        stack = donor.find_stack("openmpi-1.4-gnu")
        app = donor.compile_mpi_program("wf-app", Language.C, stack)
        donor.machine.fs.write("/home/user/wf-app", app.image, mode=0o755)
        feam = Feam()
        feam.run_source_phase(donor, "/home/user/wf-app",
                              env=donor.env_with_stack(stack),
                              write_archive=True)
        assert donor.machine.fs.is_file(
            "/home/user/feam/out/bundle-wf-app.tar.gz")

    def test_target_phase_from_archive(self, donor, bundle, make_site):
        from repro.mpi.implementations import open_mpi
        from repro.sites.site import StackRequest
        from repro.toolchain.compilers import CompilerFamily
        target = make_site(
            "bf-target", vendor_compilers=(),
            stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.GNU),))
        # The user copies the archive across sites.
        archive = pack_bundle(bundle)
        target.machine.fs.write("/home/user/bundle.tar.gz", archive)
        report = Feam().run_target_phase(
            target, bundle_path="/home/user/bundle.tar.gz",
            staging_tag="from-archive")
        # Binary absent at the target: prediction from the bundle alone,
        # with resolution staging the Intel runtime.
        assert report.ready
        assert report.resolution is not None and report.resolution.staged
