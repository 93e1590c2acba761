"""README examples run as written."""

import os
import re

import numpy as np

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def readme_block(heading, lang):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(monkeypatch):
    # the block reads data/toy/ relative to the repository root
    monkeypatch.chdir(ROOT)
    names = {}
    exec(readme_block("Library use", "python"), names)
    combined, words = names["combined"], names["words"]
    assert len(combined) > 0 and combined.dim == words.dim
    assert names["hownet"].get("房租").shape == (words.dim,)
    assert all(np.isfinite(vec).all() for _, vec in combined.items())
