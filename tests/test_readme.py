"""README examples run as written."""

import hashlib
import json
import pathlib
import re

import numpy as np
import pytest

from conftest import ROOT, readme_blocks

GOLDEN = pathlib.Path(__file__).with_name("walkthrough_golden.json")


def test_library_use_block_runs(monkeypatch):
    # the block reads data/toy/ relative to the repository root
    monkeypatch.chdir(ROOT)
    names = {}
    [block] = readme_blocks("Library use", "python")
    exec(block, names)
    combined, words = names["combined"], names["words"]
    assert len(combined) > 0 and combined.dim == words.dim
    assert names["hownet"].get("房租").shape == (words.dim,)
    assert all(np.isfinite(vec).all() for _, vec in combined.items())


@pytest.mark.two_blas_threads
def test_walkthrough_matches_its_golden_record(walkthrough, tmp_path):
    # a change that moves the record on purpose copies the new one over GOLDEN
    out, record = walkthrough
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.iterdir())}
    new = tmp_path / GOLDEN.name
    new.write_text(json.dumps({"record": record, "out": digests}, ensure_ascii=False,
                              indent=1) + "\n", encoding="utf-8")
    assert new.read_text(encoding="utf-8") == GOLDEN.read_text(encoding="utf-8"), (
        f"the walkthrough moved; its new record is {new}")


def test_readme_quotes_the_walkthrough_scores(walkthrough):
    # the last eval-ner scores the tagger's own training sentences
    quote = re.search(r"`(overall [0-9. ]+)`", (ROOT / "README.md").read_text(encoding="utf-8"))
    [out] = [e[2] for e in walkthrough[1] if e[0].startswith("sememevec eval-ner ")]
    assert out.splitlines()[0] == quote[1]
