"""Multi-site readiness surveys.

The paper's use case in one call: a scientist with a binary at a
guaranteed execution environment asks which of many sites can run it.
:func:`survey_sites` runs the source phase once and a target phase per
site, returning one :class:`SiteVerdict` per target -- the programmatic
version of ``examples/survey_sites.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.core.bundle import SourceBundle
from repro.core.feam import Feam
from repro.core.evaluation import TargetReport
from repro.sysmodel.env import Environment


@dataclasses.dataclass(frozen=True)
class SiteVerdict:
    """FEAM's verdict for one target site."""

    site_name: str
    basic: Optional[TargetReport]
    extended: TargetReport

    @property
    def ready(self) -> bool:
        return self.extended.ready

    @property
    def reasons(self) -> tuple[str, ...]:
        return self.extended.prediction.reasons

    def summary_line(self) -> str:
        basic_word = self.basic.outcome_word if self.basic else "--"
        extended_word = self.extended.outcome_word
        note = "; ".join(self.reasons) or extended_word
        return (f"{self.site_name:<12}{basic_word:>8}{extended_word:>10}"
                f"  {note}")


@dataclasses.dataclass(frozen=True)
class SurveyResult:
    """The full survey: the bundle plus one verdict per target."""

    bundle: SourceBundle
    verdicts: tuple[SiteVerdict, ...]

    @property
    def ready_sites(self) -> tuple[str, ...]:
        return tuple(v.site_name for v in self.verdicts if v.ready)

    def render(self) -> str:
        header = f"{'site':<12}{'basic':>8}{'extended':>10}  notes"
        lines = [header, "-" * len(header)]
        lines += [v.summary_line() for v in self.verdicts]
        return "\n".join(lines) + "\n"


def survey_sites(source_site, binary_path: str, targets: Sequence,
                 env: Optional[Environment] = None,
                 feam: Optional[Feam] = None,
                 run_basic: bool = True) -> SurveyResult:
    """Survey *targets* for the binary at *source_site*.

    The binary is copied to each target (so the basic prediction and
    ldd-based checks can run); the source-phase bundle enables the
    extended prediction and resolution everywhere.
    """
    feam = feam or Feam()
    bundle = feam.run_source_phase(source_site, binary_path, env=env)
    image = source_site.machine.fs.read(binary_path)
    name = binary_path.rsplit("/", 1)[-1]
    verdicts = []
    for target in targets:
        if target.name == source_site.name:
            continue
        migrated = f"/home/user/survey/{name}"
        target.machine.fs.write(migrated, image, mode=0o755)
        basic = None
        if run_basic:
            basic = feam.run_target_phase(
                target, binary_path=migrated,
                staging_tag=f"survey-{name}-basic")
        extended = feam.run_target_phase(
            target, binary_path=migrated, bundle=bundle,
            staging_tag=f"survey-{name}-ext")
        verdicts.append(SiteVerdict(
            site_name=target.name, basic=basic, extended=extended))
    return SurveyResult(bundle=bundle, verdicts=tuple(verdicts))
