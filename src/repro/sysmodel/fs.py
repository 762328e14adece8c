"""Virtual filesystem.

A small in-memory POSIX-flavoured filesystem: directories, regular files and
symbolic links, absolute paths, mode bits, and lazy file contents.

Lazy contents matter because simulated sites hold hundreds of multi-megabyte
ELF libraries; a :class:`FileNode` may carry a ``provider`` callable instead
of inline bytes, in which case the bytes are regenerated on every
:meth:`VirtualFilesystem.read` (deterministically -- see
:func:`repro.elf.writer._payload_bytes`) and only the size is kept resident.
Library providers are :class:`~repro.elf.writer.LazyImage` objects: the
size is layout arithmetic, and one object serves every live site holding
an equal library (clones included).  It keeps the image's parse for
:meth:`Machine.read_elf <repro.sysmodel.machine.Machine.read_elf>`, so
reading a library's headers costs one synthesis per fleet, not one per
site.

Path semantics: paths are absolute and ``/``-separated, and are walked
the way the kernel walks them.  ``.`` and empty components are no-ops;
a symlink met along the way is replaced by its target; ``..`` climbs
from wherever the walk has got to.  So ``..`` after a symlink climbs
from the directory the link points to: with ``/a/link -> /b/c`` and a
file ``/b/x``, ``exists("/a/link/../x")`` is True, as on Linux, and
``realpath`` of it is ``/b/x``.  A missing component, or ``..`` under a
regular file, fails the walk (``realpath`` alone goes on by name, as
:func:`os.path.realpath` does).  Paths given to the mutating calls
(``write``, ``symlink``, ``makedirs``, ``remove``) are normalised
lexically instead; no simulated site writes through ``..``.

Change stamps: every mutator that changes a directory's entries
(``makedirs`` when it creates a directory, ``write``, ``write_lazy``,
``symlink``, ``remove``, ``copy_file``, ``install_from``) advances the
filesystem's :attr:`~VirtualFilesystem.generation` counter and stamps
that directory with it.  While :attr:`~VirtualFilesystem.visits` is a
set, every directory a walk or ``listdir`` looks into is added to it.
The two give callers an exact validity rule for anything computed from
walks: a walk's outcome depends only on the entries of the directories
it looks into, because a file node never changes once written (apart
from ``chmod``'s mode), so a result stays valid while none of those
directories' stamps is newer than the generation it was computed at.
:meth:`Machine.resolve <repro.sysmodel.machine.Machine.resolve>`
memoises closures by it.
"""

from __future__ import annotations

import dataclasses
import posixpath
from typing import Callable, Iterator, Optional


class FsError(OSError):
    """Raised for filesystem errors (missing paths, type mismatches, loops)."""


_MAX_SYMLINK_DEPTH = 40  # Linux SYMLOOP_MAX is 40.


@dataclasses.dataclass
class FileNode:
    """A regular file: inline bytes or a (provider, size) pair.

    A provider is called on every :meth:`read` and nothing it returns is
    kept; *size* is recorded when the file is written, and every read
    checks the provider's output against it.
    """

    content: Optional[bytes] = None
    provider: Optional[Callable[[], bytes]] = None
    size: int = 0
    mode: int = 0o644

    def __post_init__(self) -> None:
        if self.content is not None:
            self.size = len(self.content)
        elif self.provider is None:
            self.content = b""
            self.size = 0

    def read(self) -> bytes:
        if self.content is not None:
            return self.content
        assert self.provider is not None
        data = self.provider()
        if len(data) != self.size:
            raise FsError(
                f"lazy provider produced {len(data)} bytes, expected {self.size}")
        return data

    @property
    def executable(self) -> bool:
        return bool(self.mode & 0o111)


@dataclasses.dataclass
class SymlinkNode:
    """A symbolic link holding its (possibly relative) target path."""

    target: str


@dataclasses.dataclass(eq=False)
class DirNode:
    """A directory mapping entry names to child nodes.

    Compared and hashed by identity, so a set of visited directories
    holds the nodes themselves.  *stamp* is the filesystem's
    :attr:`~VirtualFilesystem.generation` when the entries last changed
    (0 until then).
    """

    entries: dict[str, object] = dataclasses.field(default_factory=dict)
    mode: int = 0o755
    stamp: int = 0


def _split(path: str) -> list[str]:
    if not path.startswith("/"):
        raise FsError(f"path must be absolute: {path!r}")
    return [p for p in path.split("/") if p not in ("", ".")]


def _components(path: str) -> list[str]:
    """*path*'s components with ``.`` and empty ones dropped, last first
    (a stack for :meth:`VirtualFilesystem._walk` to pop)."""
    return [p for p in reversed(path.split("/")) if p and p != "."]


def _join(names: list[str]) -> str:
    """The absolute path of *names*."""
    return "/" + "/".join(names)


class VirtualFilesystem:
    """An in-memory filesystem rooted at ``/``."""

    def __init__(self) -> None:
        self._root = DirNode()
        #: Optional read perturbation, installed by
        #: :meth:`repro.sysmodel.faults.FaultPlan.arm`: called as
        #: ``hook(path, data)`` after a successful read; may raise
        #: :class:`FsError` or return mutated bytes.  None (the default)
        #: costs one attribute check per read.
        self.fault_hook: Optional[Callable[[str, bytes], bytes]] = None
        #: Counts changes to directory entries; each change stamps its
        #: directory with the new value (see :meth:`_changed`).
        self.generation = 0
        #: None, or the set every directory a walk or :meth:`listdir`
        #: looks into is added to.  One attribute rather than a
        #: collector passed down every call, because the loader reaches
        #: the filesystem through several query methods.  Safe because
        #: a site's filesystem is walked by one thread at a time (the
        #: engine runs each site's cells on one worker), so a recording
        #: never picks up another thread's walks.
        self.visits: Optional[set[DirNode]] = None

    # -- node resolution ------------------------------------------------------

    def _walk(self, path: str, follow: bool = True,
              strict: bool = True) -> tuple[object, str]:
        """Resolve *path* to ``(node, canonical path)`` the way the kernel
        walks it.

        Components are taken left to right.  A symlink met before the
        last component -- or at it, with *follow* -- is replaced by its
        target's components: an absolute target restarts from the root,
        a relative one goes on from the link's directory.  ``..`` climbs
        from wherever the walk has got to, so after a symlink it climbs
        from the directory the link points to.  The canonical path is
        where the walk ends, every symlink resolved.  With
        ``follow=False`` a trailing symlink is returned as the
        :class:`SymlinkNode` itself (lstat semantics).

        Non-*strict* walks are :meth:`realpath`'s: a missing component
        (or one under a regular file) yields a None node and the walk
        goes on by name, as :func:`os.path.realpath` does.
        """
        if not path.startswith("/"):
            raise FsError(f"path must be absolute: {path!r}")
        names: list[str] = []
        # The node at each proper prefix of names (the root first).
        parents: list[object] = []
        here: object = self._root
        pending = _components(path)
        links = 0
        visits = self.visits
        while pending:
            part = pending.pop()
            if part == "..":
                if strict and not isinstance(here, DirNode):
                    raise FsError(f"not a directory: {_join(names)!r}")
                if names:
                    names.pop()
                    here = parents.pop()
                continue
            if isinstance(here, DirNode):
                if visits is not None:
                    visits.add(here)
                child = here.entries.get(part)
                if child is None and strict:
                    raise FsError(f"no such file or directory: "
                                  f"{_join(names + [part])!r}")
            elif strict:
                raise FsError(f"not a directory: {_join(names)!r}")
            else:
                child = None
            if isinstance(child, SymlinkNode) and (follow or pending):
                links += 1
                if links > _MAX_SYMLINK_DEPTH:
                    raise FsError(
                        f"too many levels of symbolic links: {path!r}")
                if child.target.startswith("/"):
                    names.clear()
                    parents.clear()
                    here = self._root
                pending.extend(_components(child.target))
                continue
            names.append(part)
            parents.append(here)
            here = child
        return here, _join(names)

    def _lookup(self, path: str, follow: bool = True) -> object:
        """Resolve *path* to a node (see :meth:`_walk`)."""
        return self._walk(path, follow)[0]

    def _parent_dir(self, path: str, create: bool = False) -> tuple[DirNode, str]:
        parts = _split(posixpath.normpath(path))
        if not parts:
            raise FsError("cannot operate on the root directory")
        name = parts[-1]
        parent_path = "/" + "/".join(parts[:-1])
        if create:
            self.makedirs(parent_path)
        node = self._lookup(parent_path)
        if not isinstance(node, DirNode):
            raise FsError(f"not a directory: {parent_path!r}")
        return node, name

    # -- queries --------------------------------------------------------------

    def exists(self, path: str) -> bool:
        """True when *path* resolves (following symlinks)."""
        try:
            self._lookup(path)
            return True
        except FsError:
            return False

    def lexists(self, path: str) -> bool:
        """True when *path* exists, without following a trailing symlink."""
        try:
            self._lookup(path, follow=False)
            return True
        except FsError:
            return False

    def is_file(self, path: str) -> bool:
        try:
            return isinstance(self._lookup(path), FileNode)
        except FsError:
            return False

    def is_dir(self, path: str) -> bool:
        try:
            return isinstance(self._lookup(path), DirNode)
        except FsError:
            return False

    def is_symlink(self, path: str) -> bool:
        try:
            return isinstance(self._lookup(path, follow=False), SymlinkNode)
        except FsError:
            return False

    def readlink(self, path: str) -> str:
        node = self._lookup(path, follow=False)
        if not isinstance(node, SymlinkNode):
            raise FsError(f"not a symlink: {path!r}")
        return node.target

    def resolve(self, path: str) -> tuple[str, FileNode]:
        """``(realpath(path), node)`` of the regular file *path* names, in
        one walk; raises :class:`FsError` when it names none."""
        node, real = self._walk(path)
        if not isinstance(node, FileNode):
            raise FsError(f"not a regular file: {path!r}")
        return real, node

    def size(self, path: str) -> int:
        """Size in bytes of the file at *path*."""
        node = self._lookup(path)
        if not isinstance(node, FileNode):
            raise FsError(f"not a regular file: {path!r}")
        return node.size

    def is_executable(self, path: str) -> bool:
        try:
            node = self._lookup(path)
        except FsError:
            return False
        return isinstance(node, FileNode) and node.executable

    def read(self, path: str) -> bytes:
        node = self._lookup(path)
        if not isinstance(node, FileNode):
            raise FsError(f"not a regular file: {path!r}")
        data = node.read()
        if self.fault_hook is not None:
            data = self.fault_hook(path, data)
        return data

    def read_text(self, path: str) -> str:
        return self.read(path).decode("utf-8", errors="replace")

    def listdir(self, path: str) -> list[str]:
        node = self._lookup(path)
        if not isinstance(node, DirNode):
            raise FsError(f"not a directory: {path!r}")
        if self.visits is not None:
            self.visits.add(node)
        return sorted(node.entries)

    def walk(self, top: str = "/") -> Iterator[tuple[str, list[str], list[str]]]:
        """Depth-first traversal like :func:`os.walk` (symlinked dirs not
        descended into, mirroring ``os.walk`` defaults)."""
        try:
            node = self._lookup(top)
        except FsError:
            return
        if not isinstance(node, DirNode):
            return
        dirs, files = [], []
        for name in sorted(node.entries):
            child = node.entries[name]
            if isinstance(child, DirNode):
                dirs.append(name)
            else:
                files.append(name)
        yield top, dirs, files
        for name in dirs:
            yield from self.walk(posixpath.join(top, name))

    def find_files(self, top: str = "/",
                   name_filter: Optional[Callable[[str], bool]] = None,
                   ) -> Iterator[str]:
        """Yield file and symlink paths under *top* (find-like)."""
        for dirpath, _dirs, files in self.walk(top):
            for fname in files:
                if name_filter is None or name_filter(fname):
                    yield posixpath.join(dirpath, fname)

    def realpath(self, path: str) -> str:
        """Canonical path with every symlink resolved, as
        :func:`os.path.realpath` computes it: missing components are kept
        by name, and only a symlink loop raises."""
        return self._walk(path, strict=False)[1]

    # -- mutation ---------------------------------------------------------------

    def _changed(self, directory: DirNode) -> None:
        """Stamp *directory*, whose entries just changed."""
        self.generation += 1
        directory.stamp = self.generation

    def makedirs(self, path: str) -> None:
        """Create directory *path* and any missing ancestors (mkdir -p)."""
        parts = _split(posixpath.normpath(path))
        node = self._root
        for part in parts:
            child = node.entries.get(part)
            if child is None:
                child = DirNode()
                node.entries[part] = child
                self._changed(node)
            if isinstance(child, SymlinkNode):
                raise FsError(f"symlink in makedirs path: {path!r}")
            if not isinstance(child, DirNode):
                raise FsError(f"file exists: {path!r}")
            node = child

    def write(self, path: str, content: bytes, mode: int = 0o644) -> None:
        """Create or replace the file at *path* with inline *content*."""
        parent, name = self._parent_dir(path, create=True)
        parent.entries[name] = FileNode(content=content, mode=mode)
        self._changed(parent)

    def write_text(self, path: str, text: str, mode: int = 0o644) -> None:
        self.write(path, text.encode("utf-8"), mode=mode)

    def write_lazy(self, path: str, provider: Callable[[], bytes],
                   size: int, mode: int = 0o644) -> None:
        """Create a file whose bytes are produced on demand by *provider*."""
        parent, name = self._parent_dir(path, create=True)
        parent.entries[name] = FileNode(provider=provider, size=size, mode=mode)
        self._changed(parent)

    def symlink(self, link_path: str, target: str) -> None:
        """Create a symlink at *link_path* pointing at *target*."""
        parent, name = self._parent_dir(link_path, create=True)
        parent.entries[name] = SymlinkNode(target=target)
        self._changed(parent)

    def chmod(self, path: str, mode: int) -> None:
        node = self._lookup(path, follow=True)
        if isinstance(node, FileNode):
            node.mode = mode
        elif isinstance(node, DirNode):
            node.mode = mode
        else:
            raise FsError(f"cannot chmod: {path!r}")

    def remove(self, path: str) -> None:
        """Remove the file or symlink at *path*."""
        parent, name = self._parent_dir(path)
        node = parent.entries.get(name)
        if node is None:
            raise FsError(f"no such file or directory: {path!r}")
        if isinstance(node, DirNode):
            raise FsError(f"is a directory: {path!r}")
        del parent.entries[name]
        self._changed(parent)

    def copy_file(self, src: str, dst: str) -> None:
        """Copy a regular file (content/provider and mode) from src to dst."""
        node = self._lookup(src)
        if not isinstance(node, FileNode):
            raise FsError(f"not a regular file: {src!r}")
        parent, name = self._parent_dir(dst, create=True)
        parent.entries[name] = FileNode(
            content=node.content, provider=node.provider,
            size=node.size, mode=node.mode)
        self._changed(parent)

    def install_from(self, other: "VirtualFilesystem", src: str, dst: str) -> None:
        """Copy a regular file across filesystems (site-to-site migration)."""
        node = other._lookup(src)
        if not isinstance(node, FileNode):
            raise FsError(f"not a regular file: {src!r}")
        parent, name = self._parent_dir(dst, create=True)
        parent.entries[name] = FileNode(
            content=node.content, provider=node.provider,
            size=node.size, mode=node.mode)
        self._changed(parent)

    # -- cloning -----------------------------------------------------------------

    def clone(self) -> "VirtualFilesystem":
        """An independent copy of the whole tree.

        Every directory, file and symlink node is a fresh object, so
        mutations on either side never show through; file *contents*
        (immutable bytes or deterministic lazy providers) are shared,
        which is what makes cloning a fully-installed site filesystem
        cheap -- hundreds of multi-megabyte ELF images cost one node
        object each, not a copy of their bytes.  The fault hook is not
        carried over: a clone starts unperturbed.  Stamps start again
        from 0 on the clone's fresh directory nodes.
        """
        copy = VirtualFilesystem()
        copy._root = _clone_node(self._root)
        return copy


def _clone_node(node: object) -> object:
    if isinstance(node, DirNode):
        return DirNode(entries={name: _clone_node(child)
                                for name, child in node.entries.items()},
                       mode=node.mode)
    if isinstance(node, FileNode):
        return FileNode(content=node.content, provider=node.provider,
                        size=node.size, mode=node.mode)
    assert isinstance(node, SymlinkNode)
    return SymlinkNode(target=node.target)
