"""The resolution model (paper Section IV).

When required shared libraries are missing at a target site, FEAM
determines whether the copies gathered at the guaranteed execution
environment can stand in.  "Our prediction methods are applied recursively
to determine if a shared library copy is able to execute at a target
site": a copy is usable when

* it was compiled for an ISA the target executes,
* its own required C library version is satisfied by the target's C
  library (copies of the C library itself are never made), and
* each of its own required shared libraries is either present at the
  target or recursively resolvable from the bundle.

Usable copies are staged into a per-binary directory at the target and
made reachable at runtime through the dynamic loader's environment (the
generated activation script; Section V.C).
"""

from __future__ import annotations

import dataclasses
import posixpath
from typing import Optional

from repro import obs
from repro.core.bundle import SourceBundle
from repro.core.config import FeamConfig
from repro.core.description import LibraryRecord
from repro.core.discovery import EnvironmentDescription
from repro.elf.writer import LazyImage
from repro.sysmodel import faults
from repro.sysmodel.env import Environment
from repro.sysmodel.fs import FsError
from repro.tools.toolbox import Toolbox


@dataclasses.dataclass(frozen=True)
class CopyDecision:
    """Whether one library copy can be used at the target."""

    soname: str
    usable: bool
    reason: str
    record: Optional[LibraryRecord] = None
    staged_path: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class ResolutionPlan:
    """The staging plan for one binary at one target site."""

    decisions: tuple[CopyDecision, ...]
    staging_dir: str
    resolved_all: bool
    #: Environment additions ((variable, path) pairs) to activate staging.
    env_additions: tuple[tuple[str, str], ...] = ()

    @property
    def staged(self) -> tuple[CopyDecision, ...]:
        return tuple(d for d in self.decisions if d.usable)

    @property
    def unresolved(self) -> tuple[CopyDecision, ...]:
        return tuple(d for d in self.decisions if not d.usable)

    @property
    def staged_bytes(self) -> int:
        return sum(d.record.copy_size for d in self.staged
                   if d.record is not None)

    def activation_script(self) -> str:
        """The shell script FEAM hands the user (Section V.C)."""
        lines = ["#!/bin/sh",
                 "# FEAM site configuration: library copies staged at",
                 f"#   {self.staging_dir}"]
        for var, path in self.env_additions:
            lines.append(f'export {var}="{path}:${{{var}}}"')
        for decision in self.unresolved:
            lines.append(f"# UNRESOLVED: {decision.soname}: {decision.reason}")
        return "\n".join(lines) + "\n"


class ResolutionModel:
    """Recursive copy-usability analysis + staging for one target site."""

    def __init__(self, toolbox: Toolbox, environment: EnvironmentDescription,
                 config: Optional[FeamConfig] = None) -> None:
        self.toolbox = toolbox
        self.environment = environment
        self.config = config or FeamConfig()

    # -- usability ---------------------------------------------------------------

    def copy_usable(self, record: LibraryRecord, bundle: SourceBundle,
                    env: Environment,
                    _depth: int = 0,
                    _visiting: Optional[frozenset[str]] = None,
                    ) -> CopyDecision:
        """Recursively decide whether *record*'s copy runs at the target."""
        visiting = _visiting or frozenset()
        if record.soname in visiting:
            # Dependency cycle: treat the in-progress ancestor as satisfied.
            return CopyDecision(record.soname, True, "dependency cycle",
                                record=record)
        if _depth > self.config.max_resolution_depth:
            return CopyDecision(
                record.soname, False,
                f"resolution depth exceeds {self.config.max_resolution_depth}",
                record=record)
        if not record.copied:
            return CopyDecision(
                record.soname, False,
                "no copy was gathered at the guaranteed environment",
                record=record)
        # Judged on the copy's own description: an undescribed copy has
        # no ISA, C library requirement or dependency to fail.
        description = record.description
        # ISA: the copy must execute at the target.
        if description is not None and not self._isa_ok(description.isa_name):
            return CopyDecision(
                record.soname, False,
                f"copy is {description.isa_name}/{description.bits}-bit; "
                f"target is {self.environment.isa}", record=record)
        # C library: the copy's own requirement must be satisfied.
        required = description.required_glibc_tuple if description else ()
        available = self.environment.libc_version_tuple
        if required and available and required > available:
            return CopyDecision(
                record.soname, False,
                f"copy requires GLIBC_{description.required_glibc}; target "
                f"has {self.environment.libc_version}", record=record)
        # Recursive shared-library requirements of the copy.
        visiting = visiting | {record.soname}
        for dep in description.needed if description else ():
            if dep in self.config.copy_excludes:
                continue  # satisfied by the target's own C library
            if self._present_at_target(dep, env):
                continue
            dep_record = bundle.library(dep)
            if dep_record is None:
                return CopyDecision(
                    record.soname, False,
                    f"dependency {dep} is missing at the target and absent "
                    f"from the bundle", record=record)
            sub = self.copy_usable(dep_record, bundle, env,
                                   _depth=_depth + 1, _visiting=visiting)
            if not sub.usable:
                return CopyDecision(
                    record.soname, False,
                    f"dependency {dep} unusable: {sub.reason}",
                    record=record)
        return CopyDecision(record.soname, True, "copy is usable",
                            record=record)

    def _isa_ok(self, isa_name: str) -> bool:
        target = self.environment.isa
        if isa_name == target:
            return True
        # 64-bit x86 executes 32-bit x86 libraries only for 32-bit
        # binaries; for staging purposes require an exact match except
        # for the x86-64 alias spellings.
        aliases = {"x86_64": {"x86-64", "x86_64"},
                   "i686": {"i386", "i686"}}
        return isa_name in aliases.get(target, {target})

    def _present_at_target(self, soname: str, env: Environment) -> bool:
        """Presence means *loader-visible* presence.

        A library sitting in an unloaded ``/opt`` prefix does not satisfy
        a staged copy's dependency at run time.
        """
        return self.toolbox.loader_visible_library(soname, env) is not None

    # -- staging -----------------------------------------------------------------------

    def resolve(self, needed: list[str], bundle: SourceBundle,
                env: Environment, staging_dir: str) -> ResolutionPlan:
        """Decide and stage copies for every soname in *needed*.

        Stages the transitive closure: a usable copy's bundle-satisfied
        dependencies are staged with it.  Returns the plan; the
        environment additions make the staging directory visible to the
        dynamic loader.
        """
        decisions: list[CopyDecision] = []
        to_stage: dict[str, LibraryRecord] = {}
        fs = self.toolbox.machine.fs
        with obs.span("resolution.resolve", needed=len(needed),
                      staging_dir=staging_dir) as sp:
            for soname in needed:
                with obs.span("resolution.copy", soname=soname) as copy_span:
                    record = bundle.library(soname)
                    if record is None:
                        decision = CopyDecision(
                            soname, False,
                            "not present in the source-phase bundle")
                    else:
                        decision = self.copy_usable(record, bundle, env)
                    copy_span.set_attrs(usable=decision.usable,
                                        reason=decision.reason)
                decisions.append(decision)
                obs.counter("resolution.copies."
                            + ("usable" if decision.usable
                               else "unusable")).inc()
                if decision.usable and record is not None:
                    self._collect_closure(record, bundle, env, to_stage)
            staged_paths: dict[str, str] = {}
            hostname = self.toolbox.machine.hostname
            try:
                for soname, record in to_stage.items():
                    path = posixpath.join(staging_dir, soname)
                    faults.check(hostname, faults.FaultKind.COPY_FAILURE,
                                 key=path)
                    # A copy held by image identity is installed the way
                    # site builds install libraries, so the target's
                    # loader reads it through the image's one parse.
                    image = record.image
                    if isinstance(image, LazyImage):
                        fs.write_lazy(path, image, image.size, mode=0o755)
                    else:
                        fs.write(path, image, mode=0o755)
                    staged_paths[soname] = path
                    obs.event("resolution.staged", soname=soname,
                              bytes=record.copy_size, path=path)
                    obs.counter("resolution.staged_bytes").inc(
                        record.copy_size)
            except Exception as exc:
                # A copy died mid-plan: a half-staged directory would be
                # found by the loader and mask the failure.  Roll back
                # what this plan staged, then let the caller decide.
                self._rollback(staged_paths, staging_dir, exc)
                raise
            sp.set_attrs(staged=len(to_stage))
        decisions = [
            dataclasses.replace(d, staged_path=staged_paths.get(d.soname))
            if d.usable else d
            for d in decisions]
        resolved_all = all(d.usable for d in decisions)
        env_additions: tuple[tuple[str, str], ...] = ()
        if to_stage:
            # The loader finds the copies through LD_LIBRARY_PATH; PATH is
            # also extended as in the paper's Section V.C description.
            env_additions = (("LD_LIBRARY_PATH", staging_dir),
                             ("PATH", staging_dir))
        return ResolutionPlan(
            decisions=tuple(decisions),
            staging_dir=staging_dir,
            resolved_all=resolved_all,
            env_additions=env_additions)

    def _rollback(self, staged_paths: dict[str, str], staging_dir: str,
                  cause: Exception) -> None:
        fs = self.toolbox.machine.fs
        removed = 0
        for path in staged_paths.values():
            try:
                fs.remove(path)
                removed += 1
            except FsError:
                pass  # never let cleanup mask the original failure
        obs.event("resolution.rollback", staging_dir=staging_dir,
                  rolled_back=removed, reason=str(cause))
        obs.counter("resolution.rollbacks").inc()

    def _collect_closure(self, record: LibraryRecord, bundle: SourceBundle,
                         env: Environment,
                         acc: dict[str, LibraryRecord],
                         _depth: int = 0) -> None:
        if record.soname in acc or _depth > self.config.max_resolution_depth:
            return
        if not record.copied:
            return
        acc[record.soname] = record
        for dep in record.description.needed if record.description else ():
            if dep in self.config.copy_excludes:
                continue
            if self._present_at_target(dep, env):
                continue
            dep_record = bundle.library(dep)
            if dep_record is not None:
                self._collect_closure(dep_record, bundle, env, acc,
                                      _depth=_depth + 1)
