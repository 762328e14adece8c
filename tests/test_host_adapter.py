"""Host adapter: FEAM's analysis over the real machine.

Runs only on Linux hosts with real ELF binaries; validates the loader
model against the system's real ``ldd``.
"""

import os
import platform
import re
import shutil
import subprocess

import pytest

from repro.elf.reader import is_elf
from repro.host import HostFilesystem, host_machine, host_toolbox
from repro.sysmodel.fs import FsError


def _find_real_binary():
    for candidate in ("/bin/ls", "/usr/bin/env", "/bin/cat"):
        try:
            with open(candidate, "rb") as fh:
                head = fh.read(4)
        except OSError:
            continue
        if head == b"\x7fELF":
            return candidate
    return None


REAL = _find_real_binary()


def _first_elf_naming(version: str):
    """The first ``/usr/bin`` or ``/usr/lib`` ELF file whose version
    lists name *version*, or None."""
    from repro.elf.reader import ElfError, parse_elf
    needle = version.encode()
    for top in ("/usr/bin", "/usr/lib"):
        for directory, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                if os.path.islink(path) or not os.path.isfile(path):
                    continue
                try:
                    with open(path, "rb") as fh:
                        data = fh.read(4)
                        if not is_elf(data):
                            continue
                        data += fh.read()
                    if needle not in data:
                        continue
                    elf = parse_elf(data)
                except (OSError, ElfError):
                    continue
                names = {d.name.name for d in elf.version_definitions} | {
                    v.name for req in elf.version_requirements
                    for v in req.versions}
                if version in names:
                    return path
    return None


needs_elf_host = pytest.mark.skipif(
    REAL is None or platform.system() != "Linux",
    reason="needs a Linux host with ELF binaries")


class TestHostFilesystem:
    def test_read_and_queries(self, tmp_path):
        fs = HostFilesystem()
        target = tmp_path / "file.txt"
        target.write_text("hello")
        assert fs.is_file(str(target))
        assert fs.read(str(target)) == b"hello"
        assert fs.size(str(target)) == 5
        assert fs.is_dir(str(tmp_path))
        assert "file.txt" in fs.listdir(str(tmp_path))

    def test_missing_file_raises_fs_error(self):
        fs = HostFilesystem()
        with pytest.raises(FsError):
            fs.read("/no/such/file/anywhere")

    def test_mutation_refused(self, tmp_path):
        fs = HostFilesystem()
        with pytest.raises(FsError):
            fs.write(str(tmp_path / "x"), b"data")
        with pytest.raises(FsError):
            fs.remove(str(tmp_path))
        with pytest.raises(FsError):
            fs.makedirs(str(tmp_path / "sub"))

    def test_walk_depth_capped(self, tmp_path):
        deep = tmp_path
        for i in range(12):
            deep = deep / f"d{i}"
        deep.mkdir(parents=True)
        (deep / "toodeep.txt").write_text("x")
        fs = HostFilesystem()
        hits = list(fs.find_files(str(tmp_path),
                                  lambda n: n == "toodeep.txt"))
        assert hits == []  # beyond MAX_WALK_DEPTH

    def test_symlink_resolution(self, tmp_path):
        fs = HostFilesystem()
        target = tmp_path / "real"
        target.write_bytes(b"x")
        link = tmp_path / "link"
        link.symlink_to(target)
        assert fs.is_symlink(str(link))
        assert fs.realpath(str(link)) == str(target)


class TestHostReadElf:
    """``read_elf`` on the host follows the simulated machine's rule: a
    parse is served while the file's content source is unchanged."""

    @staticmethod
    def _write(path, needed, mtime_ns):
        from repro.elf import BinarySpec, write_elf
        path.write_bytes(write_elf(BinarySpec(needed=(needed,))))
        # Coarse filesystem clocks can give two quick writes one mtime;
        # pin distinct ones so the rewrite is visible to stat.
        os.utime(path, ns=(mtime_ns, mtime_ns))

    def test_equal_size_rewrite_parses_afresh(self, tmp_path):
        target = tmp_path / "app"
        machine = host_machine()
        self._write(target, "liba_dep.so.1", 1_000_000_000)
        size = target.stat().st_size
        assert machine.read_elf(str(target)).dynamic.needed == \
            ("liba_dep.so.1",)
        self._write(target, "libb_dep.so.1", 2_000_000_000)
        assert target.stat().st_size == size
        assert machine.read_elf(str(target)).dynamic.needed == \
            ("libb_dep.so.1",)

    def test_unchanged_file_is_parsed_once(self, tmp_path, monkeypatch):
        import repro.sysmodel.machine as machine_mod
        parses = []
        parse_elf = machine_mod.parse_elf

        def counting(data):
            parses.append(len(data))
            return parse_elf(data)

        monkeypatch.setattr(machine_mod, "parse_elf", counting)
        target = tmp_path / "app"
        self._write(target, "liba_dep.so.1", 1_000_000_000)
        machine = host_machine()
        first = machine.read_elf(str(target))
        assert machine.read_elf(str(target)) is first
        assert machine.read_elf(str(tmp_path / "." / "app")) is first
        assert len(parses) == 1


@needs_elf_host
class TestHostMachine:
    def test_identity(self):
        machine = host_machine()
        assert machine.arch == platform.machine()
        assert machine.uname_processor() == machine.arch

    def test_read_elf_real_binary(self):
        machine = host_machine()
        elf = machine.read_elf(REAL)
        assert "libc.so.6" in elf.dynamic.needed
        # Cached on second read.
        assert machine.read_elf(REAL) is elf

    def test_loader_resolves_real_binary(self):
        machine = host_machine()
        with open(REAL, "rb") as fh:
            data = fh.read()
        report = machine.loader.resolve(data, machine.env, origin=REAL)
        assert report.ok, (report.missing_sonames, report.version_errors)

    @pytest.mark.skipif(shutil.which("ldd") is None, reason="no real ldd")
    def test_loader_agrees_with_real_ldd(self):
        machine = host_machine()
        with open(REAL, "rb") as fh:
            data = fh.read()
        report = machine.loader.resolve(data, machine.env, origin=REAL)
        out = subprocess.run(["ldd", REAL], capture_output=True,
                             text=True).stdout
        real_missing = {line.split("=>")[0].strip()
                        for line in out.splitlines() if "not found" in line}
        assert set(report.missing_sonames) == real_missing


@needs_elf_host
class TestHostToolboxAndBdc:
    def test_describe_real_binary(self):
        from repro.core.description import BinaryDescriptionComponent
        toolbox = host_toolbox()
        description = BinaryDescriptionComponent(toolbox).describe(REAL)
        assert description.is_dynamic
        assert "libc.so.6" in description.needed
        assert description.required_glibc is not None
        assert description.mpi_implementation is None

    @pytest.mark.skipif(shutil.which("ldd") is None, reason="no real ldd")
    def test_toolbox_ldd_agrees_with_real_ldd(self):
        result = host_toolbox().ldd(REAL)
        assert result.recognised
        assert "libc.so.6" in {entry.soname for entry in result.entries}
        out = subprocess.run(["ldd", REAL], capture_output=True,
                             text=True).stdout
        real_missing = {line.split("=>")[0].strip()
                        for line in out.splitlines() if "not found" in line}
        assert set(result.missing) == real_missing

    def test_locate_disabled(self):
        from repro.tools.toolbox import ToolUnavailable
        toolbox = host_toolbox()
        with pytest.raises(ToolUnavailable):
            toolbox.locate("libc.so.6")

    def test_loader_visible_library_finds_libc(self):
        toolbox = host_toolbox()
        path = toolbox.loader_visible_library("libc.so.6")
        assert path is not None
        with open(os.path.realpath(path), "rb") as fh:
            assert is_elf(fh.read(4))

    def test_bdc_describes_a_glibc_abi_dt_relr_file(self):
        """glibc 2.36 names ``GLIBC_ABI_DT_RELR`` in its version lists;
        the BDC describes such a file by its numbered versions."""
        from repro.core.description import BinaryDescriptionComponent
        path = _first_elf_naming("GLIBC_ABI_DT_RELR")
        if path is None:
            pytest.skip("no host ELF file names GLIBC_ABI_DT_RELR")
        description = BinaryDescriptionComponent(host_toolbox()).describe(
            path)
        assert description.gathered_via == "objdump"
        names = set(description.version_definitions) | {
            version for _file, version in description.version_references}
        assert "GLIBC_ABI_DT_RELR" in names
        assert re.fullmatch(r"[0-9]+(\.[0-9]+)*",
                            description.required_glibc)

    def test_edc_discovers_host_libc(self):
        """The EDC's libc discovery works on the real machine (via the
        version-definitions fallback; real libc banners need execution)."""
        toolbox = host_toolbox()
        path = toolbox.loader_visible_library("libc.so.6")
        version = toolbox.libc_version_via_api(path)
        assert version is not None
        major = int(version.split(".")[0])
        assert major >= 2
