"""The CLI contract on generated YAML: every config exits 0, 1 or 2, and 1 or 2 with one line.

Each case is one of the shipped configs, written back as YAML with one to
three structural edits: keys of every scalar type inserted at any depth,
anchors and aliases (recursive ones and doubling chains among them), merge
keys, explicit tags (`!!int x`, `!!set`, `!!omap`, an unknown tag) and deep
nesting. No number of a config is changed, so every run is at most as large
as a shipped one; mutating the numeric leaves is left to a later test. The
cases are derandomized, so every run checks the same ones.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repmech.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TREES = {path.stem: yaml.safe_load(path.read_text()) for path in sorted(CONFIGS.glob("*.yaml"))}

# keys and values of every scalar type, plain and quoted
SCALARS = ["1", "-7", "0x1f", "2.5", "1e3", ".inf", ".nan", "true", "False", "null", "~", "''",
           "'1'", "2001-12-14", "x", "seed", "kind", "!!binary aGk="]
VALUES = SCALARS + ["[]", "{}", "[1, [2.5, x]]", "{a: 1, b: [null]}"]
# what a node may be replaced by: aliases, tagged scalars, deep nesting and a chain of
# forty doubling aliases
REPLACEMENTS = (["*a", "*b", "!!int x", "!!float x", "!!bool x", "!!timestamp x", "!!str 1",
                 "!!null ''", "!unknown 1", "!!set {1, 2}", "!!omap [a: 1, b: 2]",
                 "!!pairs [a: 1, a: 2]", "!!set [1]", "!!omap {a: 1}"]
                + ["[" * n + "1" + "]" * n for n in (3, 900, 5000)]
                + ["{a: " * n + "1" + "}" * n for n in (3, 2000)]
                + ["{<<: " * n + "{b: 1}" + "}" * n for n in (3, 3000)]
                + ["[&c0 [1, 1], " + ", ".join(f"&c{i} [*c{i - 1}, *c{i - 1}]"
                                               for i in range(1, 41)) + "]"])
TAGS = ["!!map", "!!seq", "!!set", "!!omap", "!!pairs", "!!str", "!!int", "!!float", "!!null",
        "!unknown"]
MERGES = ["*a", "*b", "[*a, *b]", "{kind: euclidean, extra: 1}", "1", "[1]"]


def _nodes(node, path=()):
    """(path, node) of node and of everything under it."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _nodes(item, path + (i,))


def _scalar(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


class _Emitter:
    """YAML text of a config tree with edits: block mappings and flow lists.

    edits maps a node's path to its anchor, tag, replacement text, inserted
    (key, value) entries and merge sources.
    """

    def __init__(self, edits):
        self.edits = edits

    def props(self, path):
        edit = self.edits.get(path, {})
        return "".join(f"{p} " for p in (edit.get("anchor"), edit.get("tag")) if p)

    def extra(self, path):
        edit = self.edits.get(path, {})
        return [("<<", src) for src in edit.get("merge", [])] + edit.get("insert", [])

    def flow(self, node, path):
        replacement = self.edits.get(path, {}).get("replace")
        if replacement is not None:
            return replacement
        if isinstance(node, dict):
            items = [f"{k}: {self.flow(v, path + (k,))}" for k, v in node.items()]
            items += [f"{k}: {v}" for k, v in self.extra(path)]
            body = "{" + ", ".join(items) + "}"
        elif isinstance(node, list):
            body = "[" + ", ".join(self.flow(v, path + (i,)) for i, v in enumerate(node)) + "]"
        else:
            body = _scalar(node)
        return self.props(path) + body

    def block(self, node, path, indent):
        """The lines of the mapping node at path, its keys at indent."""
        pad = " " * indent
        lines = []
        for key, value in node.items():
            child = path + (key,)
            if isinstance(value, dict) and value and "replace" not in self.edits.get(child, {}):
                lines.append(f"{pad}{key}: {self.props(child)}".rstrip())
                lines += self.block(value, child, indent + 2)
            else:
                lines.append(f"{pad}{key}: {self.flow(value, child)}")
        return lines + [f"{pad}{key}: {value}" for key, value in self.extra(path)]

    def text(self, tree):
        root = self.edits.get((), {})
        if "replace" in root:
            return root["replace"] + "\n"
        head = [self.props(()).rstrip()] if self.props(()) else []
        return "\n".join(head + self.block(tree, (), 0)) + "\n"


@st.composite
def configs(draw):
    """(subcommand, YAML text): a shipped config with one to three edits."""
    subcommand = draw(st.sampled_from(sorted(TREES)))
    tree = TREES[subcommand]
    paths = [path for path, _ in _nodes(tree)]
    mappings = [path for path, node in _nodes(tree) if isinstance(node, dict)]
    edits = {}
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["insert", "alias", "anchor", "replace", "merge", "tag",
                                     "recursive"]))
        path = draw(st.sampled_from(mappings if kind in ("insert", "merge", "recursive")
                                    else paths))
        edit = edits.setdefault(path, {})
        if kind == "alias":  # to an anchor anywhere, before or after the alias
            edits.setdefault(draw(st.sampled_from(paths)), {})["anchor"] = "&a"
            edit["replace"] = "*a"
        elif kind == "insert":
            edit.setdefault("insert", []).append((draw(st.sampled_from(SCALARS)),
                                                  draw(st.sampled_from(VALUES))))
        elif kind == "anchor":
            edit["anchor"] = draw(st.sampled_from(["&a", "&b"]))
        elif kind == "replace":
            edit["replace"] = draw(st.sampled_from(REPLACEMENTS))
        elif kind == "merge":
            edit.setdefault("merge", []).append(draw(st.sampled_from(MERGES)))
        elif kind == "tag":
            edit["tag"] = draw(st.sampled_from(TAGS))
        else:  # the mapping holds an alias to itself
            edit["anchor"] = "&r"
            edit.setdefault("insert", []).append(("self", "*r"))
    return subcommand, _Emitter(edits).text(tree)


def _shipped(subcommand, *replacements):
    """(subcommand, its shipped config with each (old, new) replacement made)."""
    text = (CONFIGS / f"{subcommand}.yaml").read_text()
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    return subcommand, text


@settings(derandomize=True, database=None, max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=configs())
# keys that are not strings ended in a traceback from Section.where
@example(case=("check", "seed: 0\n1: 2\n"))
@example(case=_shipped("extremize", ("seed: 0\n", "seed: 0\nnull: 1\n")))
@example(case=("signature", "metric: {kind: minkowski, dim: 4, 3: 1}\n"))
# inputs past the float range ended in a traceback or a numpy warning
@example(case=_shipped("simulate", ("mass: 1.0", "mass: 1.0e+300")))
@example(case=_shipped("simulate", ("charge: 1.0\n", "charge: 1.0e+300\n"),
                       ("strength: 1.0", "strength: -1.0e+300")))
@example(case=_shipped("signature", ("[1.0, 1.0, -1.0, -1.0]", "[1.0, 1.0, 1.0e+300, -1.0e+300]")))
@example(case=_shipped("extremize", ("mass: 1.0", "mass: 1.0e+300")))
def test_every_config_exits_0_1_or_2_with_one_line(case):
    subcommand, text = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.yaml"
        config.write_text(text)
        argv = [subcommand, "--config", str(config), "--out", str(Path(tmp) / "out")]
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 1, 2)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning: ")]
    assert len(lines) == (code != 0), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
