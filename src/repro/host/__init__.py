"""Run FEAM's analysis against the real host machine.

The simulation exists because the paper's five sites do not; but nothing
in FEAM's Binary Description Component or the dynamic-loader model is
simulation-specific.  This package adapts them to the machine the code is
running on:

* :class:`~repro.host.adapter.HostFilesystem` -- a read-only view of the
  real filesystem behind the virtual-filesystem interface;
* :class:`~repro.host.adapter.HostMachine` -- a ``Machine`` supplying
  only its construction (identity from the real ``/proc`` and ``/etc``
  files) and a memo-free closure step: ``read_elf``, the ISA profile and
  the loader resolving against the real ``/etc/ld.so.conf`` and trusted
  directories are the simulated machine's own;
* :func:`~repro.host.adapter.host_toolbox` -- a toolbox whose ``objdump``
  / ``readelf`` / ``ldd`` equivalents parse the real ELF bytes on disk.

``examples/describe_host_binary.py`` uses this to produce the paper's
Figure 3 description of any real binary and to cross-check our loader's
resolution against the system's real ``ldd``.
"""

from repro.host.adapter import (
    HostFilesystem,
    HostMachine,
    host_machine,
    host_toolbox,
)

__all__ = [
    "HostFilesystem",
    "HostMachine",
    "host_machine",
    "host_toolbox",
]
