"""Docs stay truthful: intra-repo links resolve, README tracks the registries,
and the ``>>>`` examples in package docstrings still run.

The CI docs leg runs ``tools/check_docs.py``, the examples and this module;
tier-1 runs it too, so a broken link, a stale docstring example or a README
that forgot a newly registered algorithm/scenario fails locally as well.
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_readme_exists_at_repo_root():
    assert (REPO_ROOT / "README.md").is_file()


def test_intra_repo_links_resolve():
    errors = []
    for path in check_docs.default_files():
        errors.extend(check_docs.check_file(path))
    assert not errors, "\n".join(errors)


def test_default_set_holds_every_guide_and_record():
    """A new guide or benchmark record is link-checked without being listed."""
    checked = set(check_docs.default_files())
    for pattern in ("docs/*.md", "benchmarks/results/*.md"):
        files = set(REPO_ROOT.glob(pattern))
        assert files, pattern
        assert files <= checked, sorted(str(p) for p in files - checked)
    assert {REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md"} <= checked


def test_checker_flags_broken_links(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text(
        "[gone](missing.md) and [no anchor](#nowhere)\n\n# Real Heading\n",
        encoding="utf-8",
    )
    errors = check_docs.check_file(bad)
    assert len(errors) == 2
    assert check_docs.main([str(bad)]) == 1
    good = tmp_path / "good.md"
    good.write_text("# Title\n[self](#title)\n", encoding="utf-8")
    assert check_docs.main([str(good)]) == 0


@pytest.mark.parametrize(
    "module", ["repro", "repro.bench", "repro.runtime", "repro.runtime.registry"]
)
def test_docstring_examples_run(module):
    result = doctest.testmod(importlib.import_module(module))
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_names_every_registered_algorithm():
    from repro.runtime import list_algorithms

    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    missing = [name for name in list_algorithms() if f"`{name}`" not in text]
    assert not missing, f"README algorithm table is missing: {missing}"


def test_readme_mentions_churn_scenarios():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for name in ("rebalance_midrun", "churn_storm", "worst_case_storm"):
        assert name in text, f"README scenario overview is missing {name}"


def test_design_has_epoch_section():
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert "## 8. Dynamic adversary" in text
    assert "epoch:migrate" in text


def test_corpus_guide_example_runs(tmp_path, monkeypatch):
    """The corpus guide's §2 listing and its §4 Python example hold as written."""
    from repro.corpus import CorpusManager, parse_spec

    text = (REPO_ROOT / "docs" / "corpus.md").read_text(encoding="utf-8")
    listing = text.split("## 2.")[1].split("## 3.")[0]
    spec = re.search(r'repro corpus gen "([^"]+)"', listing).group(1)
    entry_id, digest = re.search(r"# (\S+_0)\s+n=\d+ m=\d+ digest=([0-9a-f]+)", listing).groups()
    entry = CorpusManager(tmp_path / "corpus").generate(*parse_spec(spec), 0)
    assert entry.entry_id == entry_id
    assert entry.digest.startswith(digest)

    (example,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(example, scope)
    assert scope["report"].result["certified"]
