"""The event-stream YAML reader against yaml.load with the same loader."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from aamcba.ingest import default_scenario_path, read_yaml

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _outcome(read):
    """repr of the document (so 1, 1.0 and True differ), or the error."""
    try:
        return "ok", repr(read())
    except yaml.YAMLError as err:
        return type(err).__name__, str(err)


def assert_reads_like_yaml_load(text: str, loader) -> None:
    assert _outcome(lambda: read_yaml(text, loader)) == _outcome(
        lambda: yaml.load(text, Loader=loader)
    )


# Plain scalars whose type YAML 1.1 decides: the reader converts the
# decimal ones itself and hands the rest to the loader's resolver.
_SPECIAL = (
    "yes", "No", "on", "OFF", "~", "null", "Null", "6.5e9", "1.5e+3", "1.5E-3",
    "012", "0x1f", "0b101", "1_000", "1_000.5", "190:20:30", ".inf", "-.Inf",
    ".nan", "+12", "-0", "+0.5", "-0.0", "1.", "0.0", "007", "2001-12-14",
    "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10", "=",
    "!!str 12", "!!float 1", "!!int '3'", "!custom x", "! 5",
)
_WORD = st.text("abcdefxyzXYZ0123456789_.+-", min_size=1, max_size=8).filter(
    lambda w: w[0].isalnum()
)
_PLAIN = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(_SPECIAL),
    _WORD,
)
# Quoted scalars are strings whatever they spell, numbers included.
_QUOTABLE = st.one_of(
    _PLAIN, st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
)
_SCALAR = st.one_of(
    _PLAIN,
    _QUOTABLE.map(lambda s: "'" + s.replace("'", "''") + "'"),
    _QUOTABLE.map(lambda s: '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'),
)
_KEY = st.one_of(_WORD, st.integers(1900, 2100).map(str), st.sampled_from(_SPECIAL))
# A tree of ("map", [(key, child)]), ("seq", [child]) and ("scalar", token).
_TREE = st.recursive(
    _SCALAR.map(lambda t: ("scalar", t)),
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(lambda c: ("seq", c)),
        st.lists(st.tuples(_KEY, children), max_size=4).map(lambda c: ("map", c)),
    ),
    max_leaves=20,
)


class _Renderer:
    """Writes a tree as YAML, drawing anchors, aliases and merge keys."""

    def __init__(self, data, flow: bool) -> None:
        self.data = data
        self.flow = flow
        self.anchors: list[tuple[str, str]] = []  # (name, kind)

    def _prefix(self, kind: str) -> str:
        if self.data.draw(st.integers(0, 4)) == 0:
            name = f"a{len(self.anchors)}"
            self.anchors.append((name, kind))
            return f"&{name} "
        return ""

    def _alias(self) -> str | None:
        if self.anchors and self.data.draw(st.integers(0, 5)) == 0:
            return "*" + self.data.draw(st.sampled_from(self.anchors))[0]
        return None

    def _merge(self) -> str | None:
        maps = [name for name, kind in self.anchors if kind == "map"]
        if maps and self.data.draw(st.integers(0, 3)) == 0:
            return "*" + self.data.draw(st.sampled_from(maps))
        return None

    def inline(self, tree) -> str:
        alias = self._alias()
        if alias is not None:
            return alias
        kind, body = tree
        # Registered before the children are written, so a child can alias
        # the node that holds it.
        anchor = self._prefix(kind)
        if kind == "scalar":
            return anchor + body
        if kind == "seq":
            return anchor + "[" + ", ".join(self.inline(c) for c in body) + "]"
        items = [f"{k}: {self.inline(v)}" for k, v in body]
        merge = self._merge()
        if merge is not None:
            items.append(f"<<: {merge}")
        return anchor + "{" + ", ".join(items) + "}"

    def block(self, tree, indent: int = 0) -> list[str]:
        kind, body = tree
        pad = " " * indent
        if self.flow or kind == "scalar" or not body:
            return [pad + self.inline(tree)]
        lines = []
        for entry in body:
            head, child = (f"{entry[0]}:", entry[1]) if kind == "map" else ("-", entry)
            if child[0] == "scalar" or not child[1]:
                lines.append(f"{pad}{head} {self.inline(child)}")
            else:
                lines.append(f"{pad}{head} {self._prefix(child[0])}".rstrip())
                lines.extend(self.block(child, indent + 2))
        if kind == "map":
            merge = self._merge()
            if merge is not None:
                lines.append(f"{pad}<<: {merge}")
        return lines


@settings(max_examples=300, deadline=None)
@given(data=st.data(), tree=_TREE, flow=st.booleans(),
       loader=st.sampled_from(LOADERS))
def test_reader_equals_yaml_load(data, tree, flow, loader):
    text = "\n".join(_Renderer(data, flow).block(tree)) + "\n"
    assert_reads_like_yaml_load(text, loader)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", [
    "",  # empty stream
    "---\n...\n",  # empty document
    "a: 1\n---\nb: 2\n",  # two documents
    "base: &b {x: 1.5, y: 2}\nmore:\n  <<: *b\n  y: 3\n",  # merge key
    "? [1, 2]\n: x\n",  # non-scalar key
    "{a: 1}: x\n",  # non-scalar flow key
    "a: &x 1\nb: &x 2\n",  # duplicate anchor
    "a: *nowhere\n",  # undefined alias
    "a: &r [1, *r]\n",  # a node that holds itself
    "&k key: 1\nother: *k\n",  # anchored key
    "a: !!float 1\nb: !!binary aGk=\nc: !!set {x, y}\n",  # explicit tags
    "a: [1, 2\n",  # syntax error
    "a: b: c\n",  # syntax error
    "a: x\n\tb: y\n",  # tab indentation
])
def test_reader_cases_that_need_the_composer(text, loader):
    assert_reads_like_yaml_load(text, loader)


def test_aliases_share_one_object():
    doc = read_yaml("a: &x [1.5, 2]\nb: *x\n")
    assert doc == {"a": [1.5, 2], "b": [1.5, 2]}
    assert doc["a"] is doc["b"]


@pytest.mark.parametrize("loader", LOADERS)
def test_reader_on_bundled_scenario(loader):
    assert_reads_like_yaml_load(default_scenario_path().read_text(encoding="utf-8"), loader)


@pytest.mark.parametrize("loader", LOADERS)
def test_reader_on_benchmark_sweep_variants(loader, tmp_path):
    if not BENCH_WORKLOADS.is_file():
        pytest.skip("no bench/ in this checkout")
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    root = Path(__file__).resolve().parents[1]
    ops = workloads.write_sweep_inputs(root, 1, tmp_path)
    yaml_files = [tmp_path / op["path"] for op in ops if op["path"].endswith(".yaml")]
    assert len(yaml_files) == 16
    for path in yaml_files:
        assert_reads_like_yaml_load(path.read_text(encoding="utf-8"), loader)
