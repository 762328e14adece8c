"""The Environment Discovery Component (EDC).

Gathers the paper's Figure 4 information about a computing site:

* ISA format (``uname -p``);
* operating system (``/proc/version`` confirmed by ``/etc/*release``);
* C library version (executing the C library binary; C-library API
  fallback);
* available / currently loaded MPI stacks -- via Environment Modules or
  SoftEnv when present, otherwise by searching for the libraries each
  implementation distributes (``libmpi``, ``libmpich``) and for compiler
  wrappers, mining path names like ``/opt/openmpi-1.4.3-intel`` for the
  implementation/compiler combination (Section V.B);
* missing shared libraries of a migrated application.
"""

from __future__ import annotations

import dataclasses
import posixpath
import re
from typing import Optional

from repro import obs
from repro.core.description import BinaryDescription
from repro.sites.modules import EnvironmentModules
from repro.sites.softenv import SoftEnv
from repro.sysmodel import faults
from repro.sysmodel.env import Environment
from repro.sysmodel.fs import FsError
from repro.sysmodel.library import parse_library_name
from repro.tools.toolbox import Toolbox, ToolUnavailable

#: Implementation names keyed by their path/module slug.
_KIND_BY_SLUG = {
    "openmpi": "Open MPI",
    "mpich2": "MPICH2",
    "mvapich2": "MVAPICH2",
}

_COMPILER_FAMILIES = ("intel", "gnu", "pgi")

_PREFIX_RE = re.compile(
    r"(?P<impl>openmpi|mpich2|mvapich2)-(?P<version>[0-9][0-9a-zA-Z.]*)"
    r"-(?P<compiler>intel|gnu|pgi)")


@dataclasses.dataclass(frozen=True)
class DiscoveredStack:
    """One MPI stack found at a site."""

    label: str
    kind: Optional[str]  # "Open MPI" | "MPICH2" | "MVAPICH2"
    version: Optional[str]
    compiler_family: Optional[str]
    compiler_version: Optional[str]
    prefix: Optional[str]
    via: str  # "modules" | "softenv" | "path-search"
    module_name: Optional[str] = None

    @property
    def bindir(self) -> Optional[str]:
        return posixpath.join(self.prefix, "bin") if self.prefix else None

    @property
    def libdir(self) -> Optional[str]:
        return posixpath.join(self.prefix, "lib") if self.prefix else None

    @property
    def mpiexec_path(self) -> Optional[str]:
        return (posixpath.join(self.prefix, "bin", "mpiexec")
                if self.prefix else None)


@dataclasses.dataclass(frozen=True)
class EnvironmentDescription:
    """The Figure 4 description of a computing environment."""

    hostname: str
    isa: str
    os_type: str
    os_version: Optional[str]
    distro: Optional[str]
    libc_version: Optional[str]
    libc_path: Optional[str]
    libc_via: Optional[str]  # "exec" | "api"
    stacks: tuple[DiscoveredStack, ...]
    env_tool: Optional[str]  # "modules" | "softenv" | None
    loaded_stacks: tuple[str, ...] = ()

    @property
    def libc_version_tuple(self) -> tuple[int, ...]:
        if self.libc_version is None:
            return ()
        return tuple(int(p) for p in self.libc_version.split("."))

    def stacks_of_kind(self, kind: str) -> list[DiscoveredStack]:
        return [s for s in self.stacks if s.kind == kind]

    def to_dict(self) -> dict:
        """The JSON form: the persistent store's discovery records and
        the bundle archive's guaranteed environment."""
        return {
            "hostname": self.hostname,
            "isa": self.isa,
            "os_type": self.os_type,
            "os_version": self.os_version,
            "distro": self.distro,
            "libc_version": self.libc_version,
            "libc_path": self.libc_path,
            "libc_via": self.libc_via,
            "env_tool": self.env_tool,
            "loaded_stacks": list(self.loaded_stacks),
            "stacks": [{
                "label": stack.label,
                "kind": stack.kind,
                "version": stack.version,
                "compiler_family": stack.compiler_family,
                "compiler_version": stack.compiler_version,
                "prefix": stack.prefix,
                "via": stack.via,
                "module_name": stack.module_name,
            } for stack in self.stacks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnvironmentDescription":
        """The inverse of :meth:`to_dict`.  An absent optional field
        decodes to its default; an absent required one raises KeyError."""
        return cls(
            hostname=data["hostname"],
            isa=data["isa"],
            os_type=data["os_type"],
            os_version=data.get("os_version"),
            distro=data.get("distro"),
            libc_version=data.get("libc_version"),
            libc_path=data.get("libc_path"),
            libc_via=data.get("libc_via"),
            stacks=tuple(DiscoveredStack(
                label=stack["label"],
                kind=stack.get("kind"),
                version=stack.get("version"),
                compiler_family=stack.get("compiler_family"),
                compiler_version=stack.get("compiler_version"),
                prefix=stack.get("prefix"),
                via=stack.get("via", "path-search"),
                module_name=stack.get("module_name"),
            ) for stack in data.get("stacks", ())),
            env_tool=data.get("env_tool"),
            loaded_stacks=tuple(data.get("loaded_stacks", ())))


def parse_stack_name(text: str) -> tuple[Optional[str], Optional[str], Optional[str]]:
    """Parse ``openmpi-1.4-intel`` or ``openmpi/1.4-intel`` style names.

    Returns (implementation name, version, compiler family).
    """
    m = _PREFIX_RE.search(text.replace("/", "-"))
    if not m:
        return None, None, None
    return (_KIND_BY_SLUG[m.group("impl")], m.group("version"),
            m.group("compiler"))


class EnvironmentDiscoveryComponent:
    """The EDC, bound to one machine's toolbox."""

    def __init__(self, toolbox: Toolbox,
                 env: Optional[Environment] = None) -> None:
        self.toolbox = toolbox
        self.env = env if env is not None else toolbox.machine.env
        self._fs = toolbox.machine.fs

    # -- full discovery ------------------------------------------------------------

    def discover(self) -> EnvironmentDescription:
        """Gather the full Figure 4 description."""
        # Discovery shells out to slow site commands; under an injected
        # fault plan this is where a site "hangs" (the engine's retry
        # policy decides whether to try again).
        faults.check(self.toolbox.machine.hostname,
                     faults.FaultKind.DISCOVERY_TIMEOUT, key="edc.discover")
        with obs.span("edc.discover",
                      host=self.toolbox.machine.hostname) as sp:
            with obs.span("edc.isa"):
                isa = self._discover_isa()
            with obs.span("edc.os"):
                os_type, os_version, distro = self._discover_os()
            with obs.span("edc.libc") as libc_span:
                libc_path, libc_version, libc_via = self._discover_libc()
                libc_span.set_attrs(version=libc_version, via=libc_via)
            with obs.span("edc.stacks") as stacks_span:
                tool, stacks = self._discover_stacks()
                stacks_span.set_attrs(env_tool=tool, found=len(stacks))
            sp.set_attrs(isa=isa, os=os_type, libc=libc_version,
                         stacks=len(stacks))
        loaded = tuple(self.env.get_list("LOADEDMODULES"))
        return EnvironmentDescription(
            hostname=self.toolbox.machine.hostname,
            isa=isa,
            os_type=os_type,
            os_version=os_version,
            distro=distro,
            libc_version=libc_version,
            libc_path=libc_path,
            libc_via=libc_via,
            stacks=tuple(stacks),
            env_tool=tool,
            loaded_stacks=loaded,
        )

    # -- ISA ------------------------------------------------------------------------

    def _discover_isa(self) -> str:
        try:
            return self.toolbox.uname_p()
        except ToolUnavailable:
            # /proc/version does not carry the ISA; fall back to the
            # machine's report (a real implementation would inspect
            # /proc/cpuinfo).
            return self.toolbox.machine.uname_processor()

    # -- OS ---------------------------------------------------------------------------

    def _discover_os(self) -> tuple[str, Optional[str], Optional[str]]:
        os_type, os_version, distro = "Linux", None, None
        try:
            proc = self.toolbox.cat("/proc/version")
            m = re.match(r"(\S+) version (\S+)", proc)
            if m:
                os_type, os_version = m.group(1), m.group(2)
        except (FsError, ToolUnavailable):
            pass
        for release_path in self.toolbox.list_glob("/etc", "release") + \
                self.toolbox.list_glob("/etc", "-release"):
            try:
                text = self.toolbox.cat(release_path).strip()
            except (FsError, ToolUnavailable):
                continue
            if text:
                distro = text.splitlines()[0]
                break
        return os_type, os_version, distro

    # -- C library ---------------------------------------------------------------------

    def _discover_libc(self) -> tuple[Optional[str], Optional[str], Optional[str]]:
        """Locate libc and determine its version (exec, then API fallback).

        Location sources, in order: the ld.so.cache (``ldconfig -p``),
        the standard directories, then the generic library search.
        """
        path: Optional[str] = self.toolbox.cache_lookup("libc.so.6")
        if path is None:
            for candidate_dir in ("/lib64", "/lib", "/usr/lib64", "/usr/lib"):
                candidate = posixpath.join(candidate_dir, "libc.so.6")
                if self._fs.is_file(candidate):
                    path = candidate
                    break
        if path is None:
            hits = self.toolbox.search_library("libc.so.6", self.env)
            path = hits[0] if hits else None
        if path is None:
            return None, None, None
        banner = self.toolbox.run_libc_binary(path)
        if banner is not None:
            from repro.toolchain.libc import parse_banner
            version = parse_banner(banner)
            if version is not None:
                return path, version, "exec"
        version = self.toolbox.libc_version_via_api(path)
        if version is not None:
            return path, version, "api"
        return path, None, None

    # -- MPI stacks -----------------------------------------------------------------------

    def _discover_stacks(self) -> tuple[Optional[str], list[DiscoveredStack]]:
        modules = EnvironmentModules(self._fs)
        if modules.is_present():
            return "modules", self._stacks_from_names(
                modules.avail(), via="modules")
        softenv = SoftEnv(self._fs)
        if softenv.is_present():
            return "softenv", self._stacks_from_names(
                softenv.avail(), via="softenv")
        return None, self._stacks_from_path_search()

    def _stacks_from_names(self, names: list[str],
                           via: str) -> list[DiscoveredStack]:
        stacks = []
        for name in names:
            kind, version, compiler = parse_stack_name(name)
            if kind is None:
                continue
            prefix = self._prefix_for_stack(kind, version, compiler)
            compiler_version = self._compiler_version_from_wrapper(prefix)
            stacks.append(DiscoveredStack(
                label=name, kind=kind, version=version,
                compiler_family=compiler,
                compiler_version=compiler_version,
                prefix=prefix, via=via, module_name=name))
        return stacks

    def _prefix_for_stack(self, kind: str, version: Optional[str],
                          compiler: Optional[str]) -> Optional[str]:
        """Find the conventional install prefix for a named stack."""
        slug_kind = next(
            (slug for slug, name in _KIND_BY_SLUG.items() if name == kind),
            None)
        if slug_kind is None or version is None or compiler is None:
            return None
        candidate = f"/opt/{slug_kind}-{version}-{compiler}"
        return candidate if self._fs.is_dir(candidate) else None

    def _stacks_from_path_search(self) -> list[DiscoveredStack]:
        """Section V.B fallback: search for MPI libraries and wrappers."""
        stacks: dict[str, DiscoveredStack] = {}
        hits: list[str] = []
        for stem in ("libmpi", "libmpich"):
            try:
                hits.extend(self.toolbox.search_library_stem(stem, self.env))
            except ToolUnavailable:
                continue
        for hit in hits:
            prefix = posixpath.dirname(posixpath.dirname(hit))
            if prefix in stacks or prefix in ("/", "/usr"):
                continue
            kind, version, compiler = parse_stack_name(
                posixpath.basename(prefix))
            if kind is None:
                # Disambiguate MPICH2 vs MVAPICH2 from the library's own
                # dependencies (Table I identifiers).
                kind = self._kind_from_library(hit)
            if kind is None:
                continue
            has_wrapper = self._fs.is_file(
                posixpath.join(prefix, "bin", "mpicc"))
            if not has_wrapper:
                continue
            compiler_version = self._compiler_version_from_wrapper(prefix)
            stacks[prefix] = DiscoveredStack(
                label=posixpath.basename(prefix), kind=kind, version=version,
                compiler_family=compiler,
                compiler_version=compiler_version,
                prefix=prefix, via="path-search")
        return list(stacks.values())

    def _kind_from_library(self, library_path: str) -> Optional[str]:
        try:
            info = self.toolbox.objdump_p(library_path)
        except (FsError, ToolUnavailable):
            return None
        parsed = parse_library_name(posixpath.basename(library_path))
        stem = parsed.stem if parsed else ""
        dep_stems = set()
        for soname in info.needed:
            dep = parse_library_name(soname)
            dep_stems.add(dep.stem if dep else soname)
        if stem.startswith("libmpich"):
            if "libibverbs" in dep_stems or "libibumad" in dep_stems:
                return "MVAPICH2"
            return "MPICH2"
        if stem.startswith("libmpi"):
            return "Open MPI"
        return None

    def _compiler_version_from_wrapper(self,
                                       prefix: Optional[str]) -> Optional[str]:
        """``mpicc -V``: identify the wrapped compiler's version."""
        if prefix is None:
            return None
        driver = self.toolbox.wrapper_compiler(
            posixpath.join(prefix, "bin", "mpicc"))
        if driver is None:
            return None
        banner = self.toolbox.compiler_banner(driver)
        if banner is None:
            return None
        m = re.search(r"(\d+(?:\.\d+)+)", banner)
        return m.group(1) if m else banner

    # -- environment composition ----------------------------------------------------------

    def env_for_stack(self, stack: DiscoveredStack,
                      base: Optional[Environment] = None) -> Environment:
        """Compose an environment with *stack* selected.

        Uses the module system when the stack came from one; otherwise
        reproduces what the module would do from the discovered layout
        (including the wrapped compiler's runtime directories).
        """
        env = (base if base is not None else self.env).copy()
        if stack.module_name is not None:
            modules = EnvironmentModules(self._fs)
            if modules.is_present():
                modules.load(stack.module_name, env)
                return env
            softenv = SoftEnv(self._fs)
            if softenv.is_present():
                softenv.load(stack.module_name, env)
                return env
        if stack.prefix is None:
            return env
        env.prepend_path("PATH", posixpath.join(stack.prefix, "bin"))
        env.prepend_path("LD_LIBRARY_PATH",
                         posixpath.join(stack.prefix, "lib"))
        driver = self.toolbox.wrapper_compiler(
            posixpath.join(stack.prefix, "bin", "mpicc"))
        if driver is not None:
            comp_prefix = posixpath.dirname(posixpath.dirname(driver))
            for libname in ("lib", "lib64", "libso"):
                libdir = posixpath.join(comp_prefix, libname)
                if self._fs.is_dir(libdir) and libdir not in (
                        "/usr/lib", "/usr/lib64"):
                    env.prepend_path("LD_LIBRARY_PATH", libdir)
            env.prepend_path("PATH", posixpath.dirname(driver))
        return env

    # -- missing libraries -------------------------------------------------------------------

    def missing_libraries(self, description: BinaryDescription,
                          env: Environment,
                          binary_path: Optional[str] = None,
                          ) -> tuple[list[str], list[tuple[str, str]]]:
        """Identify missing libraries and unsatisfied version references.

        Uses ``ldd`` when the binary is present (Section V.B); otherwise
        searches for each library from the description (both-phases mode,
        where the binary need not be at the target).

        Returns ``(missing sonames, [(library, version)] unsatisfied)``.
        """
        if binary_path is not None:
            try:
                result = self.toolbox.ldd(binary_path, env)
            except (ToolUnavailable, FsError):
                result = None
            if result is not None and result.recognised:
                located = {e.soname: e.path for e in result.entries}
                missing = [s for s, p in located.items() if p is None]
                # ldd -v verifies symbol versions itself; trust it over a
                # re-derivation (and it works when objdump is absent).
                return missing, list(result.unsatisfied_versions)
        located = {
            soname: self.toolbox.loader_visible_library(soname, env)
            for soname in description.needed}
        missing = [s for s, p in located.items() if p is None]
        unsatisfied = self._unsatisfied_versions(description, located)
        return missing, unsatisfied

    def _unsatisfied_versions(self, description: BinaryDescription,
                              located: dict[str, Optional[str]],
                              ) -> list[tuple[str, str]]:
        """Check each version reference against the located library."""
        unsatisfied = []
        defs_cache: dict[str, Optional[set[str]]] = {}
        for library, version in description.version_references:
            path = located.get(library)
            if path is None:
                continue  # already reported missing
            if path not in defs_cache:
                try:
                    info = self.toolbox.objdump_p(path)
                    defs_cache[path] = set(info.version_definitions)
                except (FsError, ToolUnavailable):
                    # Cannot inspect the library: the check is
                    # inconclusive, not failed.
                    defs_cache[path] = None
            if defs_cache[path] is not None and \
                    version not in defs_cache[path]:
                unsatisfied.append((library, version))
        return unsatisfied
