"""Layer tracing for the readiness benchmark.

:class:`LayerTracer` wraps the public entry points of each FEAM layer
from outside the program: it rebinds functions and methods in the
already-imported ``repro`` modules, records one span per call and
restores everything on :meth:`LayerTracer.uninstall`.  Nothing under
``src/`` is edited.

A function imported by name (``from repro.elf.writer import write_elf``)
is bound in every importing module, so module-level functions are
rebound wherever the same object appears in a loaded ``repro`` module,
not only where it is defined.

Spans are kept in memory (one row per call in compact arrays) and
written out once, by :meth:`LayerTracer.write_tsv`, after the run.
Self time is a span's duration minus the time its child spans cover.
The benchmark runs serially (``workers=1``), so spans nest on one
stack and children never overlap.
"""

from __future__ import annotations

import array
import collections
import contextlib
import functools
import importlib
import sys
import time

READER = "elf.reader"


class Totals:
    """Aggregates of one span name within one phase."""

    __slots__ = ("calls", "bytes", "items", "unparsed", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        #: Bytes produced or consumed, per the entry's measure.
        self.bytes = 0
        #: Entry-specific item count (libraries, copies, disk hits).
        self.items = 0
        #: Calls that finished without a nested ELF parse.
        self.unparsed = 0
        self.total_s = 0.0
        self.self_s = 0.0


def _result_bytes(args, result):
    return len(result), 0


def _arg_bytes(args, result):
    return len(args[0]), 0


def _loader_libs(args, result):
    return 0, len(result.entries)


def _gathered_copies(args, result):
    return 0, len(result)


def _staged_copies(args, result):
    return 0, len(result.staged)


def _disk_hit(args, result):
    return 0, int(result is not None)


#: (span name, module, attribute path, measure).  A measure maps a
#: call's arguments and result to ``(bytes, items)``.
LAYER_ENTRIES = (
    ("elf.writer", "repro.elf.writer", "write_elf", _result_bytes),
    (READER, "repro.elf.reader", "parse_elf", _arg_bytes),
    ("sysmodel.fs.read", "repro.sysmodel.fs", "VirtualFilesystem.read",
     _result_bytes),
    ("sysmodel.machine.read_elf", "repro.sysmodel.machine",
     "Machine.read_elf", None),
    ("sysmodel.loader.resolve", "repro.sysmodel.loader",
     "DynamicLoader.resolve", _loader_libs),
    ("tools.toolbox.ldd", "repro.tools.toolbox", "Toolbox.ldd", None),
    ("core.discovery", "repro.core.discovery",
     "EnvironmentDiscoveryComponent.discover", None),
    ("core.description.describe", "repro.core.description",
     "BinaryDescriptionComponent.describe", None),
    ("core.description.gather", "repro.core.description",
     "BinaryDescriptionComponent.gather_library_copies", _gathered_copies),
    ("core.determinants.isa", "repro.core.determinants.isa",
     "IsaCheck.run", None),
    ("core.determinants.libc", "repro.core.determinants.libc",
     "CLibraryCheck.run", None),
    ("core.determinants.mpi", "repro.core.determinants.mpi",
     "MpiStackCheck.run", None),
    ("core.determinants.libraries", "repro.core.determinants.libraries",
     "SharedLibrariesCheck.run", None),
    ("core.resolution", "repro.core.resolution", "ResolutionModel.resolve",
     _staged_copies),
    ("mpi.runtime.run", "repro.mpi.runtime", "ExecutionSimulator.run",
     None),
    ("core.engine.evaluate_matrix", "repro.core.engine",
     "EvaluationEngine.evaluate_matrix", None),
    ("core.engine.evaluate_cell", "repro.core.engine",
     "EvaluationEngine.evaluate_cell", None),
    ("core.persist.load", "repro.core.persist", "PersistentStore.load",
     _disk_hit),
    ("core.persist.store", "repro.core.persist", "PersistentStore.store",
     None),
)


class NullTracer:
    """Stands in for :class:`LayerTracer` in untraced runs."""

    phase = "setup"

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


class LayerTracer:
    """Span recorder over wrapped layer entry points.

    :attr:`phase` labels the spans that close while it is set
    (``"setup"`` or ``"pass"``); :meth:`get` reads the aggregates.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.totals: dict[tuple[str, str], Totals] = \
            collections.defaultdict(Totals)
        self._labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        # One row per finished span, in close order.
        self._rows = {key: array.array(code) for key, code in (
            ("row", "q"), ("parent", "q"), ("phase", "i"), ("name", "i"),
            ("start", "d"), ("end", "d"))}
        # Open spans: [row id, parent row id, start, child time, parsed].
        self._stack: list[list] = []
        self._next_row = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _label(self, text: str) -> int:
        index = self._label_ids.get(text)
        if index is None:
            index = self._label_ids[text] = len(self._labels)
            self._labels.append(text)
        return index

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body (the benchmark's own steps)."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)

    def _open(self) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_row, parent, time.perf_counter(), 0.0, False]
        self._next_row += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> Totals:
        end = time.perf_counter()
        self._stack.pop()
        row, parent, start, children, parsed = frame
        duration = end - start
        if self._stack:
            outer = self._stack[-1]
            outer[3] += duration
            if name == READER:
                outer[4] = True
        totals = self.totals[(self.phase, name)]
        totals.calls += 1
        totals.total_s += duration
        totals.self_s += duration - children
        totals.unparsed += not parsed
        rows = self._rows
        rows["row"].append(row)
        rows["parent"].append(parent)
        rows["phase"].append(self._label(self.phase))
        rows["name"].append(self._label(name))
        rows["start"].append(start)
        rows["end"].append(end)
        return totals

    def _wrap(self, name: str, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                totals = tracer._close(name, frame)
            if measure is not None:
                nbytes, items = measure(args, result)
                totals.bytes += nbytes
                totals.items += items
            return result

        return traced

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Wrap every entry in :data:`LAYER_ENTRIES`."""
        for name, module_name, path, measure in LAYER_ENTRIES:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._rebind(owner, attr,
                             self._wrap(name, owner.__dict__[attr], measure))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, measure)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name == "repro" or loaded_name.startswith("repro."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._rebind(loaded, key, wrapped)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def get(self, name: str, phase: str = "pass") -> Totals:
        return self.totals.get((phase, name)) or Totals()

    @property
    def span_count(self) -> int:
        return len(self._rows["row"])

    def write_tsv(self, path: str) -> None:
        """Write every span as one ``row parent phase name start end``
        line (seconds on the run's ``perf_counter`` clock)."""
        rows = self._rows
        labels = self._labels
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("row\tparent\tphase\tname\tstart\tend\n")
            for row, parent, phase, name, start, end in zip(
                    rows["row"], rows["parent"], rows["phase"],
                    rows["name"], rows["start"], rows["end"]):
                handle.write(f"{row}\t{parent}\t{labels[phase]}\t"
                             f"{labels[name]}\t{start:.6f}\t{end:.6f}\n")
