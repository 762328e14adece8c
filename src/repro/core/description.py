"""The Binary Description Component (BDC).

Gathers the paper's Figure 3 information about an MPI application binary:

* ISA and file format of the binary;
* library name and version, if the binary is itself a shared library;
* required shared libraries, with copies and descriptions when run at a
  guaranteed execution environment;
* C library version requirements;
* MPI stack, operating system and C library version used to build it.

Information is gathered "in multiple ways ... in case some tools are not
present or functioning" (Section V): ``objdump -p`` is primary; ``ldd -v``
is both a fallback source of the dependency list and the locator of
library copies; ``locate``/``find``/a locally compiled hello-world binary
back up the search when ``ldd`` does not cooperate.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

from repro.elf.structs import newest_glibc
from repro.elf.writer import LazyImage
from repro.sysmodel.env import Environment
from repro.sysmodel.fs import FsError
from repro.sysmodel.library import parse_library_name
from repro.sysmodel.machine import shared_image
from repro.tools.toolbox import ObjdumpInfo, Toolbox, ToolUnavailable


class DescriptionError(RuntimeError):
    """The binary could not be described by any available method."""


def required_glibc_from_versions(references: tuple[tuple[str, str], ...],
                                 definitions: tuple[str, ...]) -> Optional[str]:
    """The paper's *required C library version* (Section V.A): the newest
    GLIBC version listed under "Version References" and "Version
    Definitions" (:func:`~repro.elf.structs.newest_glibc`), e.g. ``"2.7"``.
    """
    return newest_glibc([v for _file, v in references] + list(definitions))


def identify_mpi_implementation(needed: tuple[str, ...]) -> Optional[str]:
    """Table I's identification scheme.

    MPI is not a link-level specification, so the implementation shows in
    the dependency list: ``libmpich``/``libmpichf90`` plus the InfiniBand
    userspace libraries means MVAPICH2; ``libmpich`` without them means
    MPICH2; Open MPI links ``libmpi`` (and characteristically ``libnsl`` +
    ``libutil``).
    """
    stems = set()
    for soname in needed:
        parsed = parse_library_name(soname)
        stems.add(parsed.stem if parsed else soname)
    if "libmpich" in stems or "libmpichf90" in stems:
        if "libibverbs" in stems or "libibumad" in stems:
            return "MVAPICH2"
        return "MPICH2"
    if "libmpi" in stems or "libmpi_f77" in stems:
        return "Open MPI"
    return None


def _build_hints(comment: tuple[str, ...]) -> tuple[Optional[str], Optional[str]]:
    """(compiler hint, libc hint) from the .comment banner strings."""
    compiler = None
    libc = None
    for line in comment:
        if line.startswith(("GCC:", "Intel", "PGI")) and compiler is None:
            compiler = line
        if "GNU C Library" in line and libc is None:
            libc = line
    return compiler, libc


@dataclasses.dataclass(frozen=True)
class LibraryRecord:
    """One required shared library: where it was found, its description
    and (source phase only) its copy.

    Each library goes "through the same description process as an
    application binary" (Section V.A): *description* is the BDC's
    ``objdump`` description of the located file -- None when the library
    was not located or ``objdump`` could not describe it -- and is what
    the resolution model's recursive prediction consumes.
    """

    soname: str
    located_path: Optional[str]
    description: Optional[BinaryDescription] = None
    #: The gathered copy (source phase only), held by image identity:
    #: the source file's :class:`~repro.elf.writer.LazyImage` when its
    #: reads may bypass the filesystem
    #: (:func:`~repro.sysmodel.machine.shared_image`), else the bytes
    #: read.  Bytes of a lazy copy are made only where the copy leaves
    #: the process (:func:`repro.core.bundlefile.pack_bundle`).
    image: Union[LazyImage, bytes, None] = None

    @property
    def located(self) -> bool:
        return self.located_path is not None

    @property
    def copied(self) -> bool:
        return self.image is not None

    @property
    def copy_size(self) -> int:
        if isinstance(self.image, LazyImage):
            return self.image.size
        return len(self.image) if self.image is not None else 0

    def copy_data(self) -> bytes:
        """The bytes of a gathered copy, synthesised when it is held as
        an image."""
        if isinstance(self.image, LazyImage):
            return self.image()
        return self.image


@dataclasses.dataclass(frozen=True)
class BinaryDescription:
    """The Figure 3 description of an application binary."""

    path: str
    file_format: str
    isa_name: str
    bits: int
    is_dynamic: bool
    is_shared_library: bool
    soname: Optional[str]
    library_version: tuple[int, ...]
    needed: tuple[str, ...]
    version_references: tuple[tuple[str, str], ...]
    version_definitions: tuple[str, ...]
    required_glibc: Optional[str]
    comment: tuple[str, ...]
    mpi_implementation: Optional[str]
    build_compiler_hint: Optional[str]
    build_libc_hint: Optional[str]
    gathered_via: str  # "objdump" | "ldd"

    @property
    def required_glibc_tuple(self) -> tuple[int, ...]:
        if self.required_glibc is None:
            return ()
        return tuple(int(p) for p in self.required_glibc.split("."))


class BinaryDescriptionComponent:
    """The BDC, bound to one machine's toolbox."""

    def __init__(self, toolbox: Toolbox,
                 env: Optional[Environment] = None) -> None:
        self.toolbox = toolbox
        self.env = env if env is not None else toolbox.machine.env

    # -- describing ---------------------------------------------------------------

    def describe(self, path: str) -> BinaryDescription:
        """Produce the Figure 3 description of the binary at *path*."""
        try:
            return self._describe_via_objdump(path)
        except ToolUnavailable:
            return self._describe_via_ldd(path)

    def _describe_via_objdump(self, path: str) -> BinaryDescription:
        return self._describe_facts(
            path, self.toolbox.objdump_p(path), "objdump")

    def _describe_via_ldd(self, path: str) -> BinaryDescription:
        """Fallback description from ``ldd -v`` when objdump is absent.

        ldd reveals the dependency list and version requirements but not
        the file format; the ISA fields fall back to the machine's own
        (ldd only runs binaries for the host ISA).
        """
        result = self.toolbox.ldd(path, self.env)
        if not result.recognised:
            raise DescriptionError(
                f"{path}: no objdump and ldd does not recognise the binary")
        # ldd only runs binaries the host executes, so the binary's format
        # is the host's primary one -- expressed in the same (objdump)
        # vocabulary the rest of the model uses.
        primary = self.toolbox.machine.isa_support[0]
        isa_name = primary.machine.display_name
        facts = ObjdumpInfo(
            file_format=f"elf{primary.bits}-{isa_name}",
            machine=isa_name,
            bits=primary.bits,
            is_dynamic=True,
            needed=tuple(e.soname for e in result.entries),
            soname=None,
            rpath=None,
            runpath=None,
            # Only the binary's own version block -- the loaded
            # libraries' requirements are theirs, not the application's.
            version_references=result.versions_required_by(path),
            version_definitions=(),
        )
        return self._describe_facts(path, facts, "ldd")

    def _describe_facts(self, path: str, info: ObjdumpInfo,
                        gathered_via: str) -> BinaryDescription:
        """The Figure 3 description of *path* from the facts one tool
        gave: the embedded library version, the required C library, the
        MPI implementation and the build hints are derived here."""
        comment: tuple[str, ...] = ()
        try:
            comment = self.toolbox.readelf_comment(path)
        except ToolUnavailable:
            pass
        soname = info.soname
        embedded = parse_library_name(soname) if soname else None
        compiler_hint, libc_hint = _build_hints(comment)
        return BinaryDescription(
            path=path,
            file_format=info.file_format,
            isa_name=info.machine,
            bits=info.bits,
            is_dynamic=info.is_dynamic,
            is_shared_library=soname is not None,
            soname=soname,
            library_version=embedded.version if embedded else (),
            needed=info.needed,
            version_references=info.version_references,
            version_definitions=info.version_definitions,
            required_glibc=required_glibc_from_versions(
                info.version_references, info.version_definitions),
            comment=comment,
            mpi_implementation=identify_mpi_implementation(info.needed),
            build_compiler_hint=compiler_hint,
            build_libc_hint=libc_hint,
            gathered_via=gathered_via,
        )

    # -- locating libraries ------------------------------------------------------------

    def locate_libraries(self, description: BinaryDescription,
                         hello_path: Optional[str] = None,
                         ) -> dict[str, Optional[str]]:
        """Locate each required shared library in the local filesystem.

        Section V.A's methods, in order: ``ldd`` of the binary itself;
        when it cannot provide locations, ``locate``/``find`` over common
        locations and LD_LIBRARY_PATH; and ``ldd`` of a locally compiled
        hello-world program for the commonly linked libraries.
        """
        locations: dict[str, Optional[str]] = {
            soname: None for soname in description.needed}
        try:
            result = self.toolbox.ldd(description.path, self.env)
        except (ToolUnavailable, FsError):
            result = None
        if result is not None and result.recognised:
            for entry in result.entries:
                if entry.soname in locations and entry.path:
                    locations[entry.soname] = entry.path
        unresolved = [s for s, p in locations.items() if p is None]
        for soname in unresolved:
            hits = self.toolbox.search_library(soname, self.env)
            if hits:
                locations[soname] = hits[0]
        if hello_path is not None and any(
                p is None for p in locations.values()):
            try:
                hello = self.toolbox.ldd(hello_path, self.env)
            except (ToolUnavailable, FsError):
                hello = None
            if hello is not None and hello.recognised:
                for entry in hello.entries:
                    if locations.get(entry.soname) is None and entry.path:
                        locations[entry.soname] = entry.path
        return locations

    # -- describing and copying libraries ----------------------------------------------

    def describe_library(self, soname: str, path: Optional[str],
                         copy: bool = False) -> LibraryRecord:
        """Describe one shared library (optionally gathering a copy).

        The library is described as a binary is, by ``objdump``
        (:meth:`_describe_via_objdump`).  One that ``objdump`` cannot
        describe is neither described nor copied; it gets no ``ldd``
        fallback.
        """
        if path is None:
            return LibraryRecord(soname=soname, located_path=None)
        try:
            description = self._describe_via_objdump(path)
        except (ToolUnavailable, FsError):
            return LibraryRecord(soname=soname, located_path=path)
        image: Union[LazyImage, bytes, None] = None
        if copy:
            fs = self.toolbox.machine.fs
            try:
                real, node = fs.resolve(path)
                image = shared_image(fs, node)
                if image is None:
                    image = fs.read(real)
            except FsError:
                image = None
        return LibraryRecord(soname=soname, located_path=path,
                             description=description, image=image)

    def gather_library_copies(self, description: BinaryDescription,
                              copy_excludes: tuple[str, ...] = ("libc.so.6",),
                              hello_path: Optional[str] = None,
                              ) -> list[LibraryRecord]:
        """Describe and copy every required library (source phase).

        Copies everything except the C library (Section IV; licensing is
        out of scope).  Recursively includes the dependencies of the
        located libraries so the resolution model can satisfy transitive
        requirements.
        """
        locations = self.locate_libraries(description, hello_path=hello_path)
        records: dict[str, LibraryRecord] = {}
        queue = list(description.needed)
        while queue:
            soname = queue.pop(0)
            if soname in records:
                continue
            path = locations.get(soname)
            if path is None:
                hits = self.toolbox.search_library(soname, self.env)
                path = hits[0] if hits else None
            copy = soname not in copy_excludes
            record = self.describe_library(soname, path, copy=copy)
            records[soname] = record
            if record.description is not None:
                queue.extend(dep for dep in record.description.needed
                             if dep not in records)
        return list(records.values())
