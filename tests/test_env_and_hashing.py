"""Environment mapping and stable-hash utilities."""

from hypothesis import given, settings, strategies as st

from repro.sysmodel.env import Environment
from repro.util.hashing import stable_hash, stable_uniform


class TestEnvironment:
    def test_default_path(self):
        env = Environment()
        assert env["PATH"] == "/usr/bin:/bin"

    def test_prepend_and_dedup(self):
        env = Environment()
        env.prepend_path("PATH", "/opt/bin")
        env.prepend_path("PATH", "/usr/bin")
        assert env.path == ["/usr/bin", "/opt/bin", "/bin"]

    def test_append_path(self):
        env = Environment({"LD_LIBRARY_PATH": "/a"})
        env.append_path("LD_LIBRARY_PATH", "/b")
        assert env.ld_library_path == ["/a", "/b"]

    def test_append_moves_existing_to_end(self):
        env = Environment({"X": "/a:/b"})
        env.append_path("X", "/a")
        assert env.get_list("X") == ["/b", "/a"]

    def test_remove_path(self):
        env = Environment({"X": "/a:/b:/c"})
        env.remove_path("X", "/b")
        assert env.get_list("X") == ["/a", "/c"]
        env.remove_path("X", "/a")
        env.remove_path("X", "/c")
        assert "X" not in env

    def test_copy_is_independent(self):
        env = Environment()
        clone = env.copy()
        clone["NEW"] = "1"
        assert "NEW" not in env

    def test_empty_entries_dropped(self):
        env = Environment({"X": ":/a::"})
        assert env.get_list("X") == ["/a"]

    def test_mapping_protocol(self):
        env = Environment()
        env["FOO"] = "bar"
        assert env["FOO"] == "bar"
        assert "FOO" in env
        del env["FOO"]
        assert "FOO" not in env
        assert len(Environment({"A": "1"})) == 2  # A + default PATH


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)

    def test_sensitive_to_order_and_type(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(None) != stable_hash("")
        assert stable_hash(True) != stable_hash(1)

    def test_no_concat_ambiguity(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_known_range(self):
        assert 0 <= stable_hash("x") < 2 ** 64

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.text(max_size=20),
                              st.integers(-10**9, 10**9),
                              st.floats(allow_nan=False,
                                        allow_infinity=False),
                              st.booleans(), st.none()),
                    max_size=5))
    def test_uniform_in_unit_interval(self, parts):
        value = stable_uniform(*parts)
        assert 0.0 <= value < 1.0

    def test_uniform_distribution_rough(self):
        draws = [stable_uniform("dist", i) for i in range(2000)]
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55
        assert 0.08 < sum(1 for d in draws if d < 0.1) / len(draws) < 0.12
