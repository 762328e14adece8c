"""Human-readable FEAM output files.

"If at any point we determine that execution cannot occur, the reasons are
detailed to the user via an output file" and, when execution is predicted
possible, "we provide a description of the matching configuration details
to the user along with a script that will set them up automatically on
execution" (Section V.C).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.prediction import Outcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.evaluation import TargetReport


def _mark(passed) -> str:
    """Render a probe's tri-bool (hello-world tests: no probe = SKIP)."""
    if passed is True:
        return "PASS"
    if passed is False:
        return "FAIL"
    return "SKIP"


def _outcome_mark(outcome: Outcome) -> str:
    """Render a determinant's tri-state outcome.

    UNKNOWN is rendered as such -- an undeterminable check (e.g. the
    site's libc version could not be read) must not look like a pass.
    """
    return {Outcome.PASS: "PASS", Outcome.FAIL: "FAIL",
            Outcome.UNKNOWN: "UNKNOWN"}[outcome]


def render_target_report(report: "TargetReport") -> str:
    """Render a target phase's verdict as FEAM's output file."""
    p = report.prediction
    env = report.environment
    lines = [
        "FEAM target phase report",
        "========================",
        f"site:        {env.hostname} ({env.distro or env.os_type})",
        f"isa:         {env.isa}",
        f"c library:   {env.libc_version or 'unknown'}",
        f"mode:        {p.mode.value}",
        f"prediction:  {'READY' if p.ready else 'NOT READY'}",
        "",
        "determinants:",
    ]
    for result in p.determinants:
        lines.append(f"  [{_outcome_mark(result.outcome)}] "
                     f"{result.key}: {result.detail}")
    unknown = [r.key for r in p.determinants
               if r.outcome is Outcome.UNKNOWN]
    if unknown:
        lines.append("  note: outcome unknown for " + ", ".join(unknown)
                     + " (not verified, not counted as a failure)")
    if p.stack_assessments:
        lines.append("")
        lines.append("mpi stack tests:")
        for a in p.stack_assessments:
            lines.append(
                f"  {a.stack.label}: native="
                f"{_mark(a.native_hello_ok)} imported="
                f"{_mark(a.imported_hello_ok)}"
                + (f" ({a.notes})" if a.notes else ""))
    if p.selected_stack is not None:
        lines.append("")
        lines.append(f"selected stack: {p.selected_stack.label} "
                     f"({p.selected_stack.prefix})")
    if report.resolution is not None:
        lines.append("")
        lines.append("resolution:")
        for decision in report.resolution.decisions:
            status = "staged" if decision.usable else "UNRESOLVED"
            lines.append(f"  {decision.soname}: {status} -- {decision.reason}")
        lines.append(f"  staging dir: {report.resolution.staging_dir}")
    if p.reasons:
        lines.append("")
        lines.append("reasons execution may not occur:")
        for reason in p.reasons:
            lines.append(f"  - {reason}")
    lines.append("")
    lines.append(f"feam cpu time: {report.feam_seconds:.0f} s")
    if report.cache is not None:
        lines.append(f"engine cache: {report.cache.render()}")
    return "\n".join(lines) + "\n"


def render_source_summary(bundle) -> str:
    """Render a source phase's bundle summary."""
    d = bundle.description
    lines = [
        "FEAM source phase bundle",
        "========================",
        f"binary:      {d.path}",
        f"format:      {d.file_format} ({d.isa_name}/{d.bits}-bit)",
        f"mpi:         {d.mpi_implementation or 'not detected'}",
        f"requires:    GLIBC_{d.required_glibc or '?'}",
        f"created at:  {bundle.created_at}",
        f"libraries:   {len(bundle.libraries)} described, "
        f"{bundle.copied_count} copied "
        f"({bundle.copy_bytes / 1_000_000:.1f} MB)",
    ]
    if bundle.hello is not None:
        langs = ", ".join(sorted(bundle.hello.images))
        lines.append(f"hello tests: {langs} (stack {bundle.hello.stack_label})")
    lines.append("")
    lines.append("library records:")
    for record in bundle.libraries:
        status = "copied" if record.copied else (
            "described" if record.located else "NOT FOUND")
        required = (record.description.required_glibc
                    if record.description else None)
        glibc = f", needs GLIBC_{required}" if required else ""
        lines.append(f"  {record.soname}: {status}"
                     f" ({record.located_path or 'no path'}{glibc})")
    return "\n".join(lines) + "\n"
