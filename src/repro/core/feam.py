"""FEAM orchestration: the source and target phases.

* The **source phase** (optional, once per binary) runs the BDC and EDC at
  a guaranteed execution environment: it describes the binary, gathers
  copies and descriptions of its shared libraries, confirms the currently
  selected MPI stack matches the BDC's identification, and compiles MPI
  hello-world programs for later compatibility testing.  Its output is a
  :class:`~repro.core.bundle.SourceBundle`.

* The **target phase** (required, once per target site) runs the BDC (when
  the binary is present), the EDC and the TEC at the target and produces a
  :class:`~repro.core.evaluation.TargetReport`: the readiness prediction,
  the reasons, and -- when the source phase ran -- the resolution staging
  and an activation script.

Running both phases enables the resolution model and the extended
compatibility tests, and removes the need for the binary to be present at
the target (Section V).
"""

from __future__ import annotations

import posixpath
from typing import Optional

from repro import obs
from repro.core.bundle import HelloPrograms, SourceBundle
from repro.core.config import FeamConfig
from repro.core.description import (
    BinaryDescription,
    BinaryDescriptionComponent,
)
from repro.core.discovery import EnvironmentDiscoveryComponent
from repro.core.evaluation import TargetReport
from repro.sysmodel.env import Environment
from repro.sysmodel.fs import FsError
from repro.toolchain.compilers import Language


class Feam:
    """The framework entry point."""

    def __init__(self, config: Optional[FeamConfig] = None,
                 engine: Optional["EvaluationEngine"] = None) -> None:
        self.config = config or FeamConfig()
        if engine is None:
            from repro.core.engine import EvaluationEngine
            engine = EvaluationEngine(self.config)
        #: The batch evaluation engine: caches TECs (so environment
        #: discovery runs once per site), content-addressed descriptions,
        #: and whole evaluation cells.
        self.engine = engine

    # -- source phase -----------------------------------------------------------

    def run_source_phase(self, site, binary_path: str,
                         env: Optional[Environment] = None,
                         write_archive: bool = False) -> SourceBundle:
        """Run the optional source phase at a guaranteed environment.

        *env* is the environment in which the binary runs successfully
        (with its MPI stack selected); the default is the site login
        environment.  With ``write_archive=True`` the bundle is also
        serialized to ``<output_root>/bundle-<name>.tar.gz`` in the site's
        filesystem -- the artifact the user copies to each target site.
        """
        toolbox = site.toolbox()
        effective_env = env if env is not None else site.machine.env
        with obs.span("feam.source_phase", site=site.name,
                      binary=binary_path) as sp:
            bdc = BinaryDescriptionComponent(toolbox, effective_env)
            with obs.span("bdc.describe", binary=binary_path):
                description = bdc.describe(binary_path)
            with obs.span("bdc.gather_copies") as gather_span:
                libraries = bdc.gather_library_copies(
                    description, copy_excludes=self.config.copy_excludes)
                gather_span.set_attrs(
                    libraries=len(libraries),
                    copied=sum(1 for r in libraries if r.copied))
            edc = EnvironmentDiscoveryComponent(toolbox, effective_env)
            guaranteed_env = edc.discover()
            hello = self._compile_hellos(site, description, effective_env)
            sp.set_attrs(libraries=len(libraries),
                         hello=(sorted(hello.images) if hello else []))
        bundle = SourceBundle(
            description=description,
            libraries=tuple(libraries),
            hello=hello,
            guaranteed_environment=guaranteed_env,
            created_at=site.name,
        )
        from repro.core.report import render_source_summary
        summary_path = posixpath.join(
            self.config.output_root,
            f"source-{posixpath.basename(binary_path)}.txt")
        site.machine.fs.write_text(summary_path,
                                   render_source_summary(bundle))
        if write_archive:
            from repro.core.bundlefile import pack_bundle
            archive_path = posixpath.join(
                self.config.output_root,
                f"bundle-{posixpath.basename(binary_path)}.tar.gz")
            site.machine.fs.write(archive_path, pack_bundle(bundle))
        return bundle

    def _compile_hellos(self, site, description: BinaryDescription,
                        env: Environment) -> Optional[HelloPrograms]:
        """Compile hello-world programs with the currently selected stack.

        The wrapper is taken from PATH (the stack the environment has
        loaded) -- FEAM confirms it matches the BDC's identification of the
        binary's MPI implementation.
        """
        wrapper = self._wrapper_on_path(site, env, "mpicc")
        if wrapper is None:
            return None
        images: dict[str, bytes] = {}
        label = posixpath.basename(posixpath.dirname(
            posixpath.dirname(wrapper)))
        for language, name in ((Language.C, "c"),
                               (Language.FORTRAN, "fortran")):
            lang_wrapper = wrapper if language is Language.C else \
                posixpath.join(posixpath.dirname(wrapper), "mpif90")
            if not site.machine.fs.is_file(lang_wrapper):
                continue
            try:
                linked = site.compile_with_wrapper(
                    lang_wrapper, f"feam-hello-{name}", language)
            except (FsError, KeyError):
                continue
            images[name] = linked.image
        if not images:
            return None
        return HelloPrograms(images=images, stack_label=label,
                             compiled_at=site.name)

    @staticmethod
    def _wrapper_on_path(site, env: Environment,
                         name: str) -> Optional[str]:
        for directory in env.path:
            candidate = posixpath.join(directory, name)
            if site.machine.fs.is_file(candidate):
                return candidate
        return None

    # -- target phase --------------------------------------------------------------

    def run_target_phase(self, site,
                         binary_path: Optional[str] = None,
                         bundle: Optional[SourceBundle] = None,
                         bundle_path: Optional[str] = None,
                         staging_tag: Optional[str] = None) -> TargetReport:
        """Run the required target phase at *site*.

        Either the binary must be present at the target (*binary_path*) or
        a source-phase bundle must be supplied (or both -- which enables
        every method the paper describes).  The bundle may be given as an
        object (*bundle*) or as the path of a ``bundle-*.tar.gz`` archive
        the user copied into the target site (*bundle_path*).

        Evaluation goes through the engine: the site's discovery, the
        binary's (content-addressed) description and the full cell are
        all memoised, so repeating a target phase is near-free.
        """
        if bundle is None and bundle_path is not None:
            from repro.core.bundlefile import unpack_bundle
            bundle = unpack_bundle(site.machine.fs.read(bundle_path))
        if binary_path is None and bundle is None:
            raise ValueError(
                "target phase needs a binary at the site or a source bundle")
        return self.engine.evaluate_cell(
            site, binary_path=binary_path, bundle=bundle,
            staging_tag=staging_tag)
