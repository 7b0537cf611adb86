"""Namespace fast paths agree with their slow references on any path.

``normalize`` returns an already-canonical path unchanged instead of
rebuilding it, and ``try_resolve`` walks the tree without raising.  Both
must be indistinguishable from the straightforward versions: the rebuild
below, and ``resolve`` with its exceptions caught.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FileNotFound, InvalidArgument, NotADirectory
from repro.pfs.namespace import Namespace, normalize


def reference_normalize(path: str) -> str:
    """Canonicalisation by rebuilding: drop '' and '.' parts, reject '..'."""
    parts = [p for p in path.split("/") if p not in ("", ".")]
    if ".." in parts:
        raise InvalidArgument(path, "'..' is not supported in simulated paths")
    return "/" + "/".join(parts)


# Components that stress the canonical-form check: empty parts ('//'),
# '.', '..', and names that merely start or end with dots.
COMPONENTS = ["", ".", "..", "a", "b", ".a", "..a", "a.", "...", ".plfsaccess1"]

paths = st.builds(
    lambda lead, parts, trail: lead + "/".join(parts) + trail,
    st.sampled_from(["", "/", "//"]),
    st.lists(st.sampled_from(COMPONENTS), max_size=5),
    st.sampled_from(["", "/", "//"]),
)


@given(paths)
@settings(max_examples=500, deadline=None)
def test_normalize_matches_reference(path):
    try:
        expected = reference_normalize(path)
    except InvalidArgument:
        with pytest.raises(InvalidArgument):
            normalize(path)
        return
    assert normalize(path) == expected
    assert normalize(expected) == expected  # canonical is a fixed point


@pytest.mark.parametrize("path,expected", [
    ("", "/"), ("/", "/"), ("//", "/"), (".", "/"), ("/.", "/"),
    ("/a/", "/a"), ("a/b", "/a/b"), ("/a//b", "/a/b"), ("/a/./b", "/a/b"),
    ("/.a", "/.a"), ("/a/..b", "/a/..b"), ("/a/b.", "/a/b."),
])
def test_normalize_examples(path, expected):
    assert normalize(path) == expected


@pytest.mark.parametrize("path", ["..", "/..", "/a/..", "/a/../b", "a/../", "/../a"])
def test_dotdot_still_rejected(path):
    with pytest.raises(InvalidArgument):
        normalize(path)


def small_tree() -> Namespace:
    ns = Namespace()
    ns.makedirs("/d/e")
    ns.makedirs("/.hidden")
    ns.create("/d/f")
    ns.create("/g")
    return ns


NAMES = ["d", "e", "f", "g", ".hidden", "x"]

tree_paths = st.builds(
    lambda parts, trail: "/" + "/".join(parts) + trail,
    st.lists(st.sampled_from(NAMES), max_size=4),
    st.sampled_from(["", "/"]),
)


def resolve_or_none(ns: Namespace, path: str):
    try:
        return ns.resolve(path)
    except (FileNotFound, NotADirectory):
        return None


@given(tree_paths)
@settings(max_examples=300, deadline=None)
def test_try_resolve_is_none_exactly_where_resolve_raises(path):
    ns = small_tree()
    assert ns.try_resolve(path) is resolve_or_none(ns, path)
    assert ns.exists(path) == (resolve_or_none(ns, path) is not None)


@pytest.mark.parametrize("path,error", [
    ("/d/missing", FileNotFound),      # a missing leaf
    ("/x/e", FileNotFound),            # a missing middle component
    ("/g/e", NotADirectory),           # through a regular file
    ("/d/f/anything", NotADirectory),  # through a regular file, deeper
])
def test_try_resolve_misses(path, error):
    ns = small_tree()
    with pytest.raises(error):
        ns.resolve(path)
    assert ns.try_resolve(path) is None
    assert not ns.exists(path)


def test_try_resolve_hits():
    ns = small_tree()
    assert ns.try_resolve("/") is ns.root
    assert ns.try_resolve("") is ns.root
    assert ns.try_resolve("/d/e/") is ns.resolve("/d/e")
    assert ns.try_resolve("/d/f").is_dir is False
