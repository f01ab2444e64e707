"""Tests for atomic and compound names (paper section 2)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NameSyntaxError
from repro.model.names import (
    PARENT,
    ROOT_NAME,
    CompoundName,
    check_atomic_name,
    is_atomic_name,
    name,
)


class TestAtomicNames:
    def test_simple_string_is_atomic(self):
        assert is_atomic_name("usr")

    def test_empty_string_is_not_atomic(self):
        assert not is_atomic_name("")

    def test_separator_not_allowed(self):
        assert not is_atomic_name("usr/bin")

    def test_root_name_is_not_an_atomic_component(self):
        assert not is_atomic_name(ROOT_NAME)

    def test_non_string_is_not_atomic(self):
        assert not is_atomic_name(42)
        assert not is_atomic_name(None)

    def test_dotdot_is_atomic(self):
        assert is_atomic_name(PARENT)

    def test_check_returns_the_name(self):
        assert check_atomic_name("etc") == "etc"

    def test_check_raises_on_bad_name(self):
        with pytest.raises(NameSyntaxError):
            check_atomic_name("a/b")


class TestParsing:
    def test_parse_relative(self):
        parsed = CompoundName.parse("usr/bin/cc")
        assert parsed.parts == ("usr", "bin", "cc")
        assert not parsed.rooted

    def test_parse_rooted(self):
        parsed = CompoundName.parse("/etc/passwd")
        assert parsed.parts == ("etc", "passwd")
        assert parsed.rooted

    def test_parse_collapses_doubled_separators(self):
        assert CompoundName.parse("a//b").parts == ("a", "b")

    def test_parse_drops_self_components(self):
        assert CompoundName.parse("a/./b").parts == ("a", "b")

    def test_parse_trailing_separator(self):
        assert CompoundName.parse("a/b/").parts == ("a", "b")

    def test_parse_bare_slash_is_empty_rooted(self):
        parsed = CompoundName.parse("/")
        assert parsed.parts == ()
        assert parsed.rooted

    def test_parse_keeps_dotdot(self):
        assert CompoundName.parse("../m2/usr").parts == ("..", "m2", "usr")

    def test_parse_rejects_non_string(self):
        with pytest.raises(NameSyntaxError):
            CompoundName.parse(123)  # type: ignore[arg-type]

    @given(st.text(alphabet=st.sampled_from("ab./ \u00e9"), max_size=24)
           | st.text(max_size=24))
    def test_parse_is_the_checked_constructor(self, text):
        """Building the parsed name without re-checking its parts gives
        exactly what the validating constructor gives."""
        parts = [p for p in text.split("/") if p not in ("", ".")]
        expected = CompoundName(parts, rooted=text.startswith("/"))
        parsed = CompoundName.parse(text)
        assert parsed == expected
        assert (parsed.parts, parsed.rooted) == (expected.parts,
                                                 expected.rooted)

    def test_str_roundtrip(self):
        for text in ("/etc/passwd", "usr/bin/cc", "../m2/x", "/"):
            assert str(CompoundName.parse(text)) == text

    def test_coerce_accepts_all_forms(self):
        a = CompoundName.coerce("a/b")
        b = CompoundName.coerce(["a", "b"])
        c = CompoundName.coerce(a)
        assert a == b == c
        assert c is a


class TestStructure:
    def test_first_rest(self):
        parsed = CompoundName.parse("a/b/c")
        assert parsed.first == "a"
        assert parsed.rest == CompoundName.parse("b/c")

    def test_rest_of_rooted_is_relative(self):
        assert not CompoundName.parse("/a/b").rest.rooted

    def test_last_and_parent(self):
        parsed = CompoundName.parse("/a/b/c")
        assert parsed.last == "c"
        assert parsed.parent == CompoundName.parse("/a/b")

    def test_parent_keeps_rootedness(self):
        assert CompoundName.parse("/a/b").parent.rooted
        assert not CompoundName.parse("a/b").parent.rooted

    def test_empty_name_has_no_first(self):
        with pytest.raises(NameSyntaxError):
            _ = CompoundName().first

    def test_require_nonempty(self):
        with pytest.raises(NameSyntaxError):
            CompoundName().require_nonempty()
        assert CompoundName(["a"]).require_nonempty().parts == ("a",)

    def test_is_simple(self):
        assert CompoundName(["a"]).is_simple()
        assert not CompoundName(["a", "b"]).is_simple()

    def test_sequence_protocol(self):
        parsed = CompoundName.parse("a/b/c")
        assert len(parsed) == 3
        assert list(parsed) == ["a", "b", "c"]
        assert parsed[1] == "b"
        assert parsed[1:].parts == ("b", "c")
        assert "b" in parsed


class TestAlgebra:
    def test_child(self):
        assert CompoundName.parse("/a").child("b") == \
            CompoundName.parse("/a/b")

    def test_join_relative(self):
        joined = CompoundName.parse("/a").join("b/c")
        assert joined == CompoundName.parse("/a/b/c")

    def test_join_rooted_replaces(self):
        joined = CompoundName.parse("/a").join("/x")
        assert joined == CompoundName.parse("/x")

    def test_relative_and_as_rooted(self):
        rooted = CompoundName.parse("/a/b")
        assert not rooted.relative().rooted
        assert rooted.relative().as_rooted() == rooted
        # Idempotence returns self.
        assert rooted.as_rooted() is rooted
        relative = CompoundName.parse("a")
        assert relative.relative() is relative

    def test_starts_with(self):
        assert CompoundName.parse("/vice/usr").starts_with("/vice")
        assert not CompoundName.parse("vice/usr").starts_with("/vice")
        assert CompoundName.parse("a/b/c").starts_with("a/b")
        assert not CompoundName.parse("a/b").starts_with("a/b/c")

    def test_strip_prefix(self):
        stripped = CompoundName.parse("/vice/usr/f").strip_prefix("/vice")
        assert stripped == CompoundName.parse("usr/f")
        with pytest.raises(NameSyntaxError):
            CompoundName.parse("/a/b").strip_prefix("/x")

    def test_with_prefix(self):
        prefixed = CompoundName.parse("/users/bob").with_prefix("/org2")
        assert str(prefixed) == "/org2/users/bob"

    def test_normalized_collapses_dotdot(self):
        assert CompoundName.parse("a/b/../c").normalized() == \
            CompoundName.parse("a/c")

    def test_normalized_preserves_leading_dotdot_when_relative(self):
        assert CompoundName.parse("../../x").normalized().parts == \
            ("..", "..", "x")

    def test_normalized_drops_leading_dotdot_when_rooted(self):
        assert CompoundName.parse("/../x").normalized() == \
            CompoundName.parse("/x")


class TestIdentity:
    def test_equality_distinguishes_rootedness(self):
        assert CompoundName.parse("/a") != CompoundName.parse("a")

    def test_hashable(self):
        names = {CompoundName.parse("/a"), CompoundName.parse("a"),
                 CompoundName.parse("/a")}
        assert len(names) == 2

    def test_ordering_is_total_on_mixed_sets(self):
        names = [CompoundName.parse(t) for t in ("/b", "a", "/a", "b")]
        ordered = sorted(names)
        assert [str(n) for n in ordered] == ["/a", "/b", "a", "b"]

    def test_eq_other_type_is_not_implemented(self):
        assert CompoundName.parse("a").__eq__(42) is NotImplemented

    def test_repr_is_evalable_form(self):
        assert repr(CompoundName.parse("/a/b")) == \
            "CompoundName.parse('/a/b')"

    def test_module_level_name_helper(self):
        assert name("a/b") == CompoundName.parse("a/b")
