import re
from pathlib import Path

import membrane

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
