"""Virtual filesystem tests."""

import os

import pytest

from repro.sysmodel.fs import FsError, VirtualFilesystem


@pytest.fixture
def fs():
    return VirtualFilesystem()


def test_write_and_read(fs):
    fs.write("/a/b/c.txt", b"hello")
    assert fs.read("/a/b/c.txt") == b"hello"
    assert fs.read_text("/a/b/c.txt") == "hello"


def test_write_creates_parents(fs):
    fs.write("/deep/nested/dir/file", b"x")
    assert fs.is_dir("/deep/nested/dir")
    assert fs.is_file("/deep/nested/dir/file")


def test_missing_file_raises(fs):
    with pytest.raises(FsError):
        fs.read("/nope")


def test_relative_path_rejected(fs):
    with pytest.raises(FsError):
        fs.write("relative/path", b"x")


def test_exists_and_types(fs):
    fs.write("/f", b"")
    fs.makedirs("/d")
    assert fs.exists("/f") and fs.is_file("/f") and not fs.is_dir("/f")
    assert fs.exists("/d") and fs.is_dir("/d") and not fs.is_file("/d")
    assert not fs.exists("/missing")


def test_overwrite_replaces_content(fs):
    fs.write("/f", b"one")
    fs.write("/f", b"two")
    assert fs.read("/f") == b"two"


def test_listdir_sorted(fs):
    fs.write("/d/z", b"")
    fs.write("/d/a", b"")
    fs.write("/d/m", b"")
    assert fs.listdir("/d") == ["a", "m", "z"]


def test_listdir_of_file_raises(fs):
    fs.write("/f", b"")
    with pytest.raises(FsError):
        fs.listdir("/f")


def test_symlink_resolution(fs):
    fs.write("/lib/libfoo.so.1.2.3", b"ELF")
    fs.symlink("/lib/libfoo.so.1", "libfoo.so.1.2.3")
    assert fs.is_symlink("/lib/libfoo.so.1")
    assert fs.read("/lib/libfoo.so.1") == b"ELF"
    assert fs.realpath("/lib/libfoo.so.1") == "/lib/libfoo.so.1.2.3"


def test_absolute_symlink_target(fs):
    fs.write("/real/file", b"data")
    fs.symlink("/alias", "/real/file")
    assert fs.read("/alias") == b"data"


def test_symlink_chain(fs):
    fs.write("/a", b"end")
    fs.symlink("/b", "/a")
    fs.symlink("/c", "/b")
    assert fs.read("/c") == b"end"
    assert fs.realpath("/c") == "/a"


def test_symlink_loop_detected(fs):
    fs.symlink("/x", "/y")
    fs.symlink("/y", "/x")
    with pytest.raises(FsError):
        fs.read("/x")
    with pytest.raises(FsError):
        fs.realpath("/x")


def test_dangling_symlink(fs):
    fs.symlink("/dangling", "/nowhere")
    assert fs.lexists("/dangling")
    assert not fs.exists("/dangling")
    assert not fs.is_file("/dangling")


def test_readlink(fs):
    fs.symlink("/link", "target")
    assert fs.readlink("/link") == "target"
    fs.write("/plain", b"")
    with pytest.raises(FsError):
        fs.readlink("/plain")


def test_mode_and_executable(fs):
    fs.write("/bin/tool", b"#!", mode=0o755)
    assert fs.is_executable("/bin/tool")
    fs.write("/doc.txt", b"", mode=0o644)
    assert not fs.is_executable("/doc.txt")
    fs.chmod("/doc.txt", 0o755)
    assert fs.is_executable("/doc.txt")


def test_size(fs):
    fs.write("/f", b"12345")
    assert fs.size("/f") == 5


def test_lazy_file(fs):
    calls = []

    def provider():
        calls.append(1)
        return b"generated!"

    fs.write_lazy("/lazy", provider, size=10)
    assert fs.size("/lazy") == 10
    assert not calls  # nothing generated yet
    assert fs.read("/lazy") == b"generated!"
    assert fs.read("/lazy") == b"generated!"
    assert len(calls) == 2  # regenerated per read, never cached


def test_lazy_size_mismatch_raises(fs):
    fs.write_lazy("/bad", lambda: b"short", size=100)
    with pytest.raises(FsError):
        fs.read("/bad")


def test_remove(fs):
    fs.write("/f", b"")
    fs.remove("/f")
    assert not fs.exists("/f")
    with pytest.raises(FsError):
        fs.remove("/f")


def test_remove_directory_rejected(fs):
    fs.makedirs("/d")
    with pytest.raises(FsError):
        fs.remove("/d")


def test_copy_file_shares_provider(fs):
    fs.write_lazy("/src", lambda: b"abc", size=3)
    fs.copy_file("/src", "/dst/copy")
    assert fs.read("/dst/copy") == b"abc"


def test_install_from_other_fs(fs):
    other = VirtualFilesystem()
    other.write("/bin/app", b"binary", mode=0o755)
    fs.install_from(other, "/bin/app", "/migrated/app")
    assert fs.read("/migrated/app") == b"binary"
    assert fs.is_executable("/migrated/app")


def test_walk(fs):
    fs.write("/top/a/x", b"")
    fs.write("/top/a/y", b"")
    fs.write("/top/b", b"")
    walked = list(fs.walk("/top"))
    assert walked[0] == ("/top", ["a"], ["b"])
    assert walked[1] == ("/top/a", [], ["x", "y"])


def test_walk_missing_top_is_empty(fs):
    assert list(fs.walk("/missing")) == []


def test_find_files(fs):
    fs.write("/u/lib/libm.so.6", b"")
    fs.write("/u/lib64/libm.so.6", b"")
    fs.write("/u/lib/other", b"")
    hits = list(fs.find_files("/u", lambda n: n == "libm.so.6"))
    assert hits == ["/u/lib/libm.so.6", "/u/lib64/libm.so.6"]


def test_makedirs_idempotent(fs):
    fs.makedirs("/a/b")
    fs.makedirs("/a/b")
    assert fs.is_dir("/a/b")


def test_makedirs_over_file_rejected(fs):
    fs.write("/a", b"")
    with pytest.raises(FsError):
        fs.makedirs("/a/b")


def test_dot_and_dotdot_normalised(fs):
    fs.write("/a/b/file", b"x")
    assert fs.read("/a/./b/../b/file") == b"x"


class TestDotDotAfterSymlinks:
    """``..`` climbs from where a symlink points, as on Linux: the same
    tree is built in the virtual filesystem and under ``tmp_path``, and
    every answer is checked against :mod:`os.path` on the real one."""

    #: (kind, path, content or symlink target); absolute targets are
    #: rooted at the tree on disk.
    TREE = (
        ("dir", "/a"),
        ("file", "/b/x"),
        ("dir", "/b/c"),
        ("link", "/a/link", "/b/c"),
        # A chain of two links.
        ("file", "/d/y"),
        ("dir", "/d/e"),
        ("link", "/a/l2", "/d/e"),
        ("link", "/a/l1", "/a/l2"),
        # Relative targets climbing with "..".
        ("file", "/p/r/f"),
        ("dir", "/p/q"),
        ("link", "/p/q/rel", "../r/f"),
        ("link", "/p/q/reldir", "../r"),
    )

    CASES = (
        "/a/link/../x",          # the module docstring's example
        "/a/link/..",
        "/a/./link/./../x",
        "/a/l1/../y",            # ".." after a chain of two links
        "/a/l1/../e",
        "/a/l1",
        "/p/q/rel",              # ".." inside a relative link target
        "/p/q/reldir/f",
        "/p/q/reldir/../q/rel",
        "/a/missing/../link",    # the kernel fails where normpath would not
        "/b/x/..",
        "/nope/../a",
    )

    @pytest.fixture
    def trees(self, fs, tmp_path):
        root = os.path.realpath(tmp_path)
        for kind, path, *rest in self.TREE:
            real = root + path
            if kind == "dir":
                fs.makedirs(path)
                os.makedirs(real, exist_ok=True)
                continue
            os.makedirs(os.path.dirname(real), exist_ok=True)
            if kind == "file":
                fs.write(path, path.encode())
                with open(real, "wb") as handle:
                    handle.write(path.encode())
            else:
                target = rest[0]
                fs.symlink(path, target)
                os.symlink(root + target if target.startswith("/")
                           else target, real)
        return fs, root

    @pytest.mark.parametrize("path", CASES)
    def test_walk_agrees_with_the_kernel(self, trees, path):
        fs, root = trees
        real = root + path
        assert fs.exists(path) == os.path.exists(real)
        assert fs.is_file(path) == os.path.isfile(real)
        assert fs.is_dir(path) == os.path.isdir(real)
        assert root + fs.realpath(path) == os.path.realpath(real)
        if os.path.isfile(real):
            with open(real, "rb") as handle:
                assert fs.read(path) == handle.read()
            assert fs.resolve(path)[0] == fs.realpath(path)

    def test_docstring_example(self, fs):
        fs.makedirs("/a")
        fs.makedirs("/b/c")
        fs.write("/b/x", b"x")
        fs.symlink("/a/link", "/b/c")
        assert fs.exists("/a/link/../x")
        assert fs.realpath("/a/link/../x") == "/b/x"
        assert not fs.exists("/a/x")
