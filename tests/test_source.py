import ast
import re
from pathlib import Path

import membrane
from membrane import cli

# a timing belongs in CHANGES.md with its machine, not in the source
TIMING = re.compile(r"[0-9] ?ms\b|took|medians? of|fresh process")


def test_no_docstring_or_comment_states_a_timing():
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(Path(membrane.__file__).parent.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if TIMING.search(line)
    ]
    assert not hits, "\n".join(hits)


def test_cli_reads_flags_and_config_keys_only_through_its_reader():
    """Outside `cli.Options` no code reads an option of `args`, the config
    mapping or the reader's own copies of them, so every value a recipe uses
    passes the reader, which echoes it in the manifest."""
    tree = ast.parse(Path(cli.__file__).read_text())
    reader = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Options")
    inside = {id(n) for n in ast.walk(reader)}
    hits = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and node.id == "cfg":
            hits.append(f"line {node.lineno}: the config mapping")
        elif isinstance(node, ast.Attribute) and node.attr in ("_args", "_cfg"):
            hits.append(f"line {node.lineno}: the reader's {node.attr}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            if node.attr not in ("func", "config"):  # main picks the recipe and loads the config file
                hits.append(f"line {node.lineno}: args.{node.attr}")
    assert not hits, "\n".join(hits)
