"""The line reader for the scenario YAML subset against yaml.load.

``read_yaml`` reads a subset of YAML itself and hands every other text to
``yaml.load``. Under both PyYAML loaders, every text must give the same
document (compared by repr, so 1, 1.0 and True differ) or an error.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from aamcba.ingest import InvalidYAML, default_scenario_path, read_yaml

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


# The loader read_yaml falls back to.
FALLBACK_LOADER = LOADERS[-1]


def _outcome(read):
    """repr of the document, or "error"; the two loaders word errors apart.
    (A ValueError is a constructor's, such as float() on a bad !!float.)"""
    try:
        return repr(read())
    except (yaml.YAMLError, ValueError):  # InvalidYAML is a ValueError
        return "error"


def read_without_pyyaml(text: str):
    """read_yaml(text); ImportError if it falls back to yaml.load."""
    with mock.patch.dict(sys.modules, {"yaml": None}):  # import yaml fails
        return read_yaml(text)


def assert_reads_like_yaml_load(text: str, loader) -> None:
    """What the line reader reads, ``loader`` reads alike; what it leaves
    to yaml.load reads as with the fallback loader, errors included. (The
    two loaders disagree on a few texts, such as a tab before a comment.)"""
    expected = _outcome(lambda: yaml.load(text, Loader=loader))
    try:
        document = read_without_pyyaml(text)
    except ImportError:
        if loader is FALLBACK_LOADER:
            assert _outcome(lambda: read_yaml(text)) == expected
    else:
        assert repr(document) == expected


# Plain scalars whose type YAML 1.1 decides: the reader converts the
# decimal ones itself and hands the rest to yaml.load.
_SPECIAL = tuple(
    spelling
    for word in ("yes", "no", "true", "false", "on", "off", "null")
    for spelling in (word, word.title(), word.upper())
) + (
    "~", "y", "n", "nULL", "6.5e9", "1.5e+3", "1.5E-3",
    "012", "0x1f", "0b101", "1_000", "1_000.5", "190:20:30", ".inf", "-.Inf",
    ".nan", "+12", "-0", "+0.5", "-0.0", "1.", "0.0", "007", "2001-12-14",
    "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10", "=",
    "!!str 12", "!!float 1", "!!int '3'", "!custom x", "! 5",
    "4.11e11", "65e9", "-1e5", "<<", "a - b", "p q", "x(1)/y$", "-", "{}", "[]",
)
# '#' is part of a plain scalar unless a space comes before it.
_WORD = st.text("abcdefxyzXYZ0123456789_.+-#", min_size=1, max_size=8).filter(
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
    """Writes a tree as YAML in a drawn layout.

    Some documents get anchors, aliases and merge keys, which only yaml.load
    reads. Every document may get what the line reader must get right:
    full-line and trailing comments, blank lines, sequences at their key's
    indent, flow sequences broken over lines at any indent, and lines
    indented too far or not far enough.
    """

    def __init__(self, data, flow: bool) -> None:
        self.data = data
        self.flow = flow
        self.use_anchors = data.draw(st.booleans())
        self.anchors: list[tuple[str, str]] = []  # (name, kind)

    def _one_in(self, n: int) -> bool:
        return self.data.draw(st.integers(1, n)) == 1

    def _prefix(self, kind: str) -> str:
        if self.use_anchors and self._one_in(5):
            name = f"a{len(self.anchors)}"
            self.anchors.append((name, kind))
            return f"&{name} "
        return ""

    def _alias(self) -> str | None:
        if self.anchors and self._one_in(6):
            return "*" + self.data.draw(st.sampled_from(self.anchors))[0]
        return None

    def _merge(self) -> str | None:
        maps = [name for name, kind in self.anchors if kind == "map"]
        if maps and self._one_in(4):
            return "*" + self.data.draw(st.sampled_from(maps))
        return None

    def _break(self) -> str:
        """A separator inside a flow sequence: a space or a line break."""
        if self._one_in(3):
            pad = " " * self.data.draw(st.integers(0, 8))
            return "\n" + pad + ("# c\n" + pad if self._one_in(4) else "")
        return " "

    def _comment(self) -> str:
        return self.data.draw(st.sampled_from(("", "", "", " # c", "  #: c", "\t# c")))

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
            items = [self.inline(c) for c in body]
            return anchor + "[" + ",".join(self._break() + i for i in items) + self._break() + "]"
        items = [f"{k}: {self.inline(v)}" for k, v in body]
        merge = self._merge()
        if merge is not None:
            items.append(f"<<: {merge}")
        return anchor + "{" + ", ".join(items) + "}"

    def _indent(self, indent: int, sequence: bool) -> int:
        """A child's indent: usually deeper, sometimes not (a sequence at
        its key's indent is valid; a mapping there, or less, is not)."""
        step = self.data.draw(st.sampled_from((2, 2, 2, 1, 4, 0 if sequence else 2, -1)))
        return max(indent + step, 0)

    def block(self, tree, indent: int = 0) -> list[str]:
        kind, body = tree
        pad = " " * indent
        if self.flow or kind == "scalar" or not body:
            return [pad + self.inline(tree) + self._comment()]
        lines = []
        for entry in body:
            head, child = (f"{entry[0]}:", entry[1]) if kind == "map" else ("-", entry)
            if self._one_in(6):
                lines.append(" " * self.data.draw(st.integers(0, 6)) + "# note: x")
            if self._one_in(8):
                lines.append(" " * self.data.draw(st.integers(0, 3)))
            if child[0] == "scalar" or not child[1]:
                lines.append(f"{pad}{head} {self.inline(child)}{self._comment()}")
            else:
                head = f"{pad}{head} {self._prefix(child[0])}".rstrip()
                lines.append(head + self._comment())
                deeper = self._indent(indent, kind == "map" and child[0] == "seq")
                lines.extend(self.block(child, deeper))
        if kind == "map":
            merge = self._merge()
            if merge is not None:
                lines.append(f"{pad}<<: {merge}")
        return lines


@settings(max_examples=300, deadline=None)
@given(data=st.data(), tree=_TREE, flow=st.booleans(),
       loader=st.sampled_from(LOADERS))
def test_reader_equals_yaml_load(data, tree, flow, loader):
    lines = _Renderer(data, flow).block(tree)
    if lines and data.draw(st.integers(0, 4)) == 0:  # one line moved by a space
        at = data.draw(st.integers(0, len(lines) - 1))
        if lines[at][:1] == " " and data.draw(st.booleans()):
            lines[at] = lines[at][1:]
        else:
            lines[at] = " " + lines[at]
    assert_reads_like_yaml_load("\n".join(lines) + "\n", loader)


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
    "a: |\n  x\n  y\nb: >\n  z\n",  # block scalars
    "a: 1\na: 2\n",  # duplicate key
    "a: x\r\nb: y\r\n",  # CR line ends
    "a: [[1, 2], [3]]\n",  # nested flow sequences
    "a: 'it''s'\nb: \"tab\\there\"\n",  # quoted scalars with escapes
    "a: hello\n  world\n",  # multi-line plain scalar
    "a: [x\n  y]\n",  # multi-line plain scalar in a flow sequence
    "a: ['x\n  y']\n",  # multi-line quoted scalars
    "a: [\"x\n  y\"]\n",
    "a: 1 # c\x85b: 2\n",  # NEL, a line break to YAML 1.1
    "a: 'x\u2028y'\n",
    "a: 'x\x01'\n",  # a control character
    "a: 1 # \x7f\n",
    "a: 012\nb: 0x1f\nc: 1_000\nd: 190:20:30\ne: .inf\nf: 2001-12-14\n",
    "a: 1\n  - b\n",  # a sequence under a scalar
    "- a: 1\n  b: 2\n",  # a mapping inside a sequence entry
    "a: [1,]\n",  # trailing comma
    "a: [1,, 2]\n",  # empty entries
    "a: [, 1]\n",
    "a: [1, 2] x\n",  # text after a flow sequence
    "k" * 1030 + ": long key\n",  # longer than a simple key may be
    "name: caf\u00e9\n",  # beyond ASCII
])
def test_reader_cases_that_need_the_composer(text, loader):
    assert_reads_like_yaml_load(text, loader)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", [
    "a: 1\nb: [\n  1, 2.5,\n  3\n]\nc: 4\n",  # a flow sequence closed at its key's indent
    "s:\n  v: [1,\n2\n      ]\n  w: x\n",  # continuation and ']' at other indents
    "a:\n- 1\n- 2\nb:\n  - x\n",  # a sequence at its key's indent, and deeper
    "a: 6.5e9\nb: 4.11e11\nc: 8.89e-3\nd: -0.0\ne: +12\nf: 1.\n",
    "t: {}\nu: []\nv: ~\nw:\nx: Off\ny: yes\nz: NULL\n",
    "# head\n\na: 1  # trailing\n  # indented comment\nb: 'q#r'  #c\nd: \"s: t\"\n",
    "-\n  a: 1\n-\n  - 2\n- [3]\n",  # nested under bare block entries
    "2022: 1\n1.5: 2\ntrue: 3\n~: 4\n'5': 5\n",  # keys resolve as values do
    "a b: c d\nx: a - b\n",  # spaces inside plain scalars
    "[1, a, 'b']\n",  # a flow sequence as the document
    "plain\n",  # a scalar as the document
])
def test_subset_is_read_without_pyyaml(text, loader):
    assert repr(read_without_pyyaml(text)) == repr(yaml.load(text, Loader=loader))


@pytest.mark.parametrize("loader", LOADERS)
def test_special_tokens_as_keys_and_values(loader):
    for token in _SPECIAL:
        for text in (f"{token}: v\n", f"k: {token}\n", f"- {token}\n", f"[{token}, 1]\n"):
            assert_reads_like_yaml_load(text, loader)


def test_aliases_share_one_object():
    doc = read_yaml("a: &x [1.5, 2]\nb: *x\n")
    assert doc == {"a": [1.5, 2], "b": [1.5, 2]}
    assert doc["a"] is doc["b"]


def test_errors_name_the_line():
    with pytest.raises(InvalidYAML) as err:
        read_yaml("a: 1\nb: [1, 2\nc: 3\n")
    line, problem = err.value.args
    assert line == 3
    assert problem


@pytest.mark.parametrize("loader", LOADERS)
def test_reader_on_bundled_scenario(loader):
    text = default_scenario_path().read_text(encoding="utf-8")
    assert repr(read_without_pyyaml(text)) == repr(yaml.load(text, Loader=loader))


@pytest.mark.parametrize("loader", LOADERS)
def test_reader_on_benchmark_sweep_variants(loader, tmp_path):
    if not BENCH_WORKLOADS.is_file():
        pytest.skip("no bench/ in this checkout")
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    root = Path(__file__).resolve().parents[1]
    for seed in (1, 2, 3):
        ops = workloads.write_sweep_inputs(root, seed, tmp_path / str(seed))
        paths = [tmp_path / str(seed) / op["path"] for op in ops]
        yaml_files = [path for path in paths if path.suffix == ".yaml"]
        assert len(yaml_files) == 16
        for path in yaml_files:
            text = path.read_text(encoding="utf-8")
            assert repr(read_without_pyyaml(text)) == repr(yaml.load(text, Loader=loader))
