"""Site self-diagnosis.

:func:`diagnose_site` verifies a built site's internal consistency -- the
invariants everything downstream assumes.  It exists for two reasons:
catalog regressions (a refactor that silently breaks a site's layout
would skew every reproduced number) and as a library feature for users
defining custom sites.

Checks:

* every installed stack's application link footprint resolves under that
  stack's environment (hello-world compilability);
* module/SoftEnv entries exist for every stack (when the site has a
  user-environment tool) and load to the right prefixes;
* the ld.so.cache is fresh (matches a rescan of the trusted directories);
* the C library is discoverable and matches the spec;
* every stack's wrapper names a compiler driver that exists;
* launchers exist for every stack.

Intentional states (misconfigured stacks, compute-node divergence) are
reported as notes, not failures.
"""

from __future__ import annotations

import dataclasses
import posixpath
from typing import TYPE_CHECKING

from repro.toolchain.compilers import Language

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sites.site import Site


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnosis result."""

    severity: str  # "error" | "note"
    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.check}: {self.detail}"


def diagnose_site(site: "Site") -> list[Finding]:
    """Run every check; returns the findings (empty = fully healthy)."""
    findings: list[Finding] = []
    findings += _check_stacks_resolve(site)
    findings += _check_env_tool_entries(site)
    findings += _check_ldconfig_fresh(site)
    findings += _check_libc(site)
    findings += _check_wrappers(site)
    findings += _check_launchers(site)
    findings += _notes(site)
    return findings


def errors(findings: list[Finding]) -> list[Finding]:
    """Only the error-severity findings."""
    return [f for f in findings if f.severity == "error"]


def _check_stacks_resolve(site: "Site") -> list[Finding]:
    findings = []
    for stack in site.stacks:
        try:
            env = site.env_with_stack(stack)
        except KeyError as exc:
            findings.append(Finding(
                "error", "stack-environment",
                f"{stack.spec.slug}: cannot compose environment ({exc})"))
            continue
        for language in (Language.C, Language.FORTRAN):
            try:
                linked = site.compile_mpi_program(
                    f"doctor-{stack.spec.slug}-{language.value}",
                    language, stack, payload_size=64)
            except Exception as exc:  # compile machinery itself broke
                findings.append(Finding(
                    "error", "stack-compile",
                    f"{stack.spec.slug}/{language.value}: {exc}"))
                continue
            failure, report = site.machine.check_loadable(linked.image, env)
            # The site's own target always passes the ISA check, so a
            # failure here is the loader's and comes with its report.
            if failure is not None:
                findings.append(Finding(
                    "error", "stack-resolution",
                    f"{stack.spec.slug}/{language.value}: missing "
                    f"{report.missing_sonames}, version errors "
                    f"{[e.message() for e in report.version_errors]}"))
    return findings


def _check_env_tool_entries(site: "Site") -> list[Finding]:
    findings = []
    if site.modules is not None:
        available = set(site.modules.avail())
        for stack in site.stacks:
            if stack.module_name not in available:
                findings.append(Finding(
                    "error", "modulefile",
                    f"no modulefile for {stack.spec.slug}"))
    elif site.softenv is not None:
        available = set(site.softenv.avail())
        for stack in site.stacks:
            key = stack.module_name.replace("/", "-")
            if key not in available:
                findings.append(Finding(
                    "error", "softenv-key",
                    f"no softenv key for {stack.spec.slug}"))
    return findings


def _check_ldconfig_fresh(site: "Site") -> list[Finding]:
    from repro.sysmodel.ldconfig import read_cache, scan_trusted_directories
    cached = read_cache(site.machine.fs)
    if cached is None:
        return [Finding("error", "ldconfig", "no ld.so.cache")]
    fresh = scan_trusted_directories(site.machine)
    if set(cached) != set(fresh):
        return [Finding("error", "ldconfig",
                        "ld.so.cache is stale (rerun ldconfig)")]
    return []


def _check_libc(site: "Site") -> list[Finding]:
    toolbox = site.toolbox()
    path = toolbox.loader_visible_library("libc.so.6")
    if path is None:
        return [Finding("error", "libc", "libc.so.6 not loader-visible")]
    version = toolbox.libc_version_via_api(path)
    if version != site.spec.libc_version:
        return [Finding(
            "error", "libc",
            f"installed libc reports {version}, spec says "
            f"{site.spec.libc_version}")]
    return []


def _check_wrappers(site: "Site") -> list[Finding]:
    findings = []
    toolbox = site.toolbox()
    for stack in site.stacks:
        driver = toolbox.wrapper_compiler(stack.wrapper_path("mpicc"))
        if driver is None:
            findings.append(Finding(
                "error", "wrapper",
                f"{stack.spec.slug}: mpicc wrapper has no CC= line"))
        elif not site.machine.fs.is_executable(driver):
            findings.append(Finding(
                "error", "wrapper",
                f"{stack.spec.slug}: wrapper names missing driver "
                f"{driver}"))
    return findings


def _check_launchers(site: "Site") -> list[Finding]:
    findings = []
    for stack in site.stacks:
        for name in stack.launcher_names:
            path = posixpath.join(stack.bindir, name)
            if not site.machine.fs.is_executable(path):
                findings.append(Finding(
                    "error", "launcher",
                    f"{stack.spec.slug}: {name} missing"))
    return findings


def _notes(site: "Site") -> list[Finding]:
    notes = []
    for slug in site.spec.misconfigured:
        notes.append(Finding(
            "note", "misconfigured",
            f"{slug} is intentionally advertised-but-unusable"))
    if site.compute_machine is not site.machine:
        notes.append(Finding(
            "note", "compute-divergence",
            f"compute nodes lack {len(site.spec.compute_node_missing)} "
            f"file(s) present on the login node"))
    return notes
