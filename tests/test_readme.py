"""README drift: its config examples load, and its grammar block lists each
section's keys, which of them are required, and the defaults of the others,
as the grammar tables hold them."""

import re
from pathlib import Path

from qkdnet.model import REQUIRED, TOPOLOGY_GRAMMAR, ByKind, load_topology
from qkdnet.scenarios import SCENARIO_GRAMMAR, parse_scenario

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
LIBRARY = README[README.index("## Library use"):README.index("## Config formats")]
CONFIG = README[README.index("## Config formats"):README.index("## Model notes")]
EXAMPLE, GRAMMAR = re.findall(r"```\n(.*?)```", CONFIG, re.S)


def test_readme_topology_loads():
    topo = load_topology(EXAMPLE)
    assert sorted(topo.nodes) == ["SIE", "alice"] and len(topo.qan_links()) == 1


def test_readme_library_scenario_parses():
    (text,) = re.findall(r'parse_scenario\("""(.*?)"""\)', LIBRARY, re.S)
    assert len(parse_scenario(text).events) == 2


def _tables() -> dict:
    """(section, kind or None) -> table, over both grammars."""
    out = {}
    for grammar in (TOPOLOGY_GRAMMAR, SCENARIO_GRAMMAR):
        for section, table in grammar.items():
            if type(table) is ByKind:
                out.update({(section, kind): kt for kind, (_, kt) in table.items()})
            else:
                out[section, None] = table
    return out


def test_readme_grammar_matches_tables():
    tables = _tables()
    listed = {}
    for line in GRAMMAR.splitlines():
        section, *tokens = line.split()
        section, kind, shown = section.strip("[]"), None, {}
        for tok in tokens:
            key, text = tok.strip("[]").split("=", 1)
            if key == "kind" and (section, text) in tables:
                kind = text
            else:
                shown[key] = text, tok[0] != "["     # the text, and whether required
        listed[section, kind] = shown
    assert listed.keys() == tables.keys()
    for where, table in tables.items():
        shown = listed[where]
        assert shown.keys() == table.keys(), where
        for key, (_, convert, default) in table.items():
            text, required = shown[key]
            assert required == (default is REQUIRED), (where, key)
            if required:
                if text[0] != "<":      # named values, such as qbb|user
                    for name in text.split("|"):
                        convert(name)
            elif default is None:
                assert text == "none", (where, key)
            else:
                assert convert(text) == default, (where, key)
