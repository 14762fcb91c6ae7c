"""CLI surface of the corpus: list / gen / verify / info, and run --corpus."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.corpus.families import CORPUS_FAMILIES, parse_spec
from repro.corpus.manager import CorpusManager
from repro.runtime import RunReport


@pytest.fixture
def root(tmp_path):
    return str(tmp_path / "corpus")


class TestList:
    def test_lists_every_family_in_parseable_form(self, capsys):
        assert main(["corpus", "list"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert len(lines) == len(CORPUS_FAMILIES)
        seen = set()
        for line in lines:
            fam, params = parse_spec(line)  # list output IS the gen language
            assert params == fam.normalize({})
            seen.add(fam.name)
        assert seen == set(CORPUS_FAMILIES)

    def test_entries_listing_empty_and_populated(self, root, capsys):
        assert main(["corpus", "list", "--entries", "--root", root]) == 0
        assert "no materialized entries" in capsys.readouterr().out
        assert main(["corpus", "gen", "path n=40", "--root", root]) == 0
        capsys.readouterr()
        assert main(["corpus", "list", "--entries", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "path/" in out and "n=40" in out


class TestGenVerifyInfo:
    def test_gen_spec_then_verify_then_info(self, root, capsys):
        assert main(["corpus", "gen", "gnm n=48 m=96 weighted=true", "--seeds", "0,2", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert main(["corpus", "verify", "--root", root]) == 0
        assert "2 entries verified" in capsys.readouterr().out
        entry_id = CorpusManager(root).entries()[0].entry_id
        assert main(["corpus", "info", entry_id, "--root", root]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entry_id"] == entry_id
        assert info["params"] == {"n": 48, "m": 96, "weighted": True}
        assert info["format"] == "repro-corpus-v1"

    def test_gen_default_grid_covers_every_family(self, root, capsys):
        assert main(["corpus", "gen", "--root", root]) == 0
        capsys.readouterr()
        families = {e.family for e in CorpusManager(root).entries()}
        assert families == set(CORPUS_FAMILIES)
        assert main(["corpus", "verify", "--root", root]) == 0

    def test_verify_fails_on_corruption(self, root, capsys):
        assert main(["corpus", "gen", "gnm n=48 m=96", "--root", root]) == 0
        manager = CorpusManager(root)
        entry = manager.entries()[0]
        manifest = manager.manifest_path(entry.entry_id)
        data = json.loads(manifest.read_text())
        data["digest"] = "0" * 64
        manifest.write_text(json.dumps(data, sort_keys=True))
        capsys.readouterr()
        assert main(["corpus", "verify", "--root", root]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_without_entries_is_usage_error(self, root, capsys):
        assert main(["corpus", "verify", "--root", root]) == 2

    def test_gen_rejects_bad_specs(self, root, capsys):
        assert main(["corpus", "gen", "moebius n=10", "--root", root]) == 2
        assert main(["corpus", "gen", "gnm bogus=1", "--root", root]) == 2


class TestRunCorpus:
    def test_run_on_materialized_entry_matches_direct_build(self, root, tmp_path, capsys):
        assert main(["corpus", "gen", "gnm n=64 m=192 weighted=true", "--root", root]) == 0
        entry = CorpusManager(root).entries()[0]
        out_path = tmp_path / "report.json"
        code = main([
            "run", "mst", "--corpus", entry.entry_id, "--corpus-root", root,
            "--k", "4", "--seed", "2", "--json", str(out_path),
        ])
        assert code == 0
        report = RunReport.from_json(out_path.read_text())
        assert report.algorithm == "mst"
        assert report.graph["n"] == 64 and report.graph["m"] == 192
        assert report.graph["weighted"] is True

    @pytest.mark.parametrize(
        "argv",
        [["mst"], ["rep", "--param", "mst=true"], ["connectivity", "--weighted"]],
        ids=["mst", "rep-mst", "weighted-flag"],
    )
    def test_run_rejects_unweighted_entry_for_weighted_algorithm(self, root, capsys, argv):
        assert main(["corpus", "gen", "path n=40", "--root", root]) == 0
        entry = CorpusManager(root).entries()[0]
        code = main(["run", *argv, "--corpus", entry.entry_id, "--corpus-root", root])
        assert code == 2
        assert "unweighted" in capsys.readouterr().err

    def test_run_unknown_entry_is_usage_error(self, root, capsys):
        code = main(["run", "connectivity", "--corpus", "gnm/nope_0", "--corpus-root", root])
        assert code == 2

    def test_sweep_on_corpus_entry(self, root, capsys):
        assert main(["corpus", "gen", "gnm n=48 m=144", "--root", root]) == 0
        entry = CorpusManager(root).entries()[0]
        capsys.readouterr()
        code = main([
            "sweep", "connectivity", "--corpus", entry.entry_id,
            "--corpus-root", root, "--ks", "2,4",
        ])
        assert code == 0
        assert capsys.readouterr().out.count("connectivity") == 2

    def test_sweep_corpus_excludes_ns(self, root, capsys):
        assert main(["corpus", "gen", "gnm n=48 m=144", "--root", root]) == 0
        entry = CorpusManager(root).entries()[0]
        code = main([
            "sweep", "connectivity", "--corpus", entry.entry_id,
            "--corpus-root", root, "--ns", "32,64",
        ])
        assert code == 2
