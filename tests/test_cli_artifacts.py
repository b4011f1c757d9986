"""Model-dir artifacts + CLI smoke (subprocess-free: main() called directly
except one true end-to-end subprocess run)."""

import json
import os
import subprocess
import sys

import pytest

from post_ocr_corrector_ray.model.artifacts import (
    load_dictionary,
    load_hparams,
    load_model_dir,
    read_alphabet,
    save_model_dir,
    whitespace_indices,
)
from post_ocr_corrector_ray.model.dictionary import DictionaryCorrector
from post_ocr_corrector_ray.model.neural import NeuralCorrectorModel

ALPHA = " .abcdefghij"
# the checkout this test file belongs to: subprocesses import its package
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestArtifacts:
    def test_model_dir_round_trip(self, tmp_path, tiny_hparams):
        model = NeuralCorrectorModel.from_seed(ALPHA, seed=3, **tiny_hparams)
        d = DictionaryCorrector({"abc": 3}, min_frequency=1)
        mdir = str(tmp_path / "m")
        save_model_dir(mdir, model, dictionary=d, extra_hparams={"note": "x"})
        hp = load_hparams(mdir)
        assert hp["max_len"] == tiny_hparams["max_len"] and hp["note"] == "x"
        assert read_alphabet(mdir) == ALPHA
        loaded = load_model_dir(mdir)
        text = "a bad cafe hid a jig."
        assert loaded.correct_document(text) == model.correct_document(text)
        assert load_dictionary(mdir).vocabulary == {"abc": 3}

    def test_alphabet_newline_stripped(self, tmp_path):
        # get_alphabet semantics: \n in the file never enters the alphabet
        mdir = tmp_path / "m2"
        mdir.mkdir()
        (mdir / "alphabet.txt").write_text("ab\ncd\n")
        assert read_alphabet(str(mdir)) == "abcd"

    def test_whitespace_indices(self):
        assert whitespace_indices(" a\tb") == {0, 2}


@pytest.mark.usefixtures("ray_session")
class TestCli:
    def test_synth_and_run_null(self, tmp_path):
        from post_ocr_corrector_ray.cli import main

        pages = str(tmp_path / "pages.parquet")
        # synth runs without ray
        assert main(["synth", pages, "--n", "40"]) == 0
        # the heavier subcommands share the session fixture's Ray
        out = str(tmp_path / "out")
        assert main(["run", pages, out, "--corrector", "null",
                     "--partitions", "4"]) == 0
        from post_ocr_corrector_ray.state.lineage import committed_partitions

        assert len(committed_partitions(out)) > 0

    def test_eval_subcommand(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.cli import main

        f = str(tmp_path / "pairs.parquet")
        pq.write_table(pa.table({"corrected_text": ["ab", "xyz"],
                                 "clean": ["abcd", "xyz"]}), f)
        assert main(["eval", f]) == 0

    def test_reused_session_left_running(self, tmp_path):
        """``main`` reuses the caller's Ray session and leaves it up: the
        session fixture's 4-CPU cluster survives an in-process command."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray

        from post_ocr_corrector_ray.cli import main

        f = str(tmp_path / "pairs.parquet")
        pq.write_table(pa.table({"corrected_text": ["ab"], "clean": ["ab"]}), f)
        assert main(["eval", f]) == 0
        assert ray.is_initialized()
        assert ray.cluster_resources()["CPU"] == 4

    def test_feed_subcommand(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.cli import main

        f = str(tmp_path / "corpus.parquet")
        pq.write_table(pa.table({
            "url": [f"u{i}" for i in range(12)],
            "clean": ["ab cd"] * 12, "messy": ["ab ce"] * 12,
            "split": ["train"] * 12}), f)
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("abcde ")
        out = str(tmp_path / "feed_out")
        assert main(["feed", f, out, "--alphabet-file", str(alpha),
                     "--batch-size", "4"]) == 0
        got = pq.read_table(out)
        assert got.num_rows == 3 and set(got.column("size").to_pylist()) == {4}

    def test_convert_ckpt_subcommand(self, tmp_path):
        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.functions.alphabet import build_alphabet
        from post_ocr_corrector_ray.model import ckpt_compat as cc
        from post_ocr_corrector_ray.model.artifacts import load_model_dir
        from post_ocr_corrector_ray.model.neural import NeuralCorrectorModel

        alphabet = build_alphabet(set("abc "))
        hp = dict(max_len=8, d_model=8, n_head=2, n_layers=1, d_linear=8)
        m = NeuralCorrectorModel.from_seed(alphabet, seed=3, **hp)
        sd = cc.params_to_state_dict(
            {k: v for k, v in m.net.w.items() if not k.startswith("_")}, 1)
        ckpt = str(tmp_path / "ref.ckpt")
        cc.write_fake_torch_ckpt(ckpt, sd, dict(hp, batch_size=4))
        af = tmp_path / "alpha.txt"
        af.write_text(alphabet)
        out = str(tmp_path / "mdir")
        assert main(["convert-ckpt", ckpt, str(af), out]) == 0
        m2 = load_model_dir(out)
        assert m2.correct_document("ab c") == m.correct_document("ab c")

    def test_dedup_incremental_sigstore(self, tmp_path):
        """Two-wave ingest: wave 1 persists its LSH signature store; wave 2
        --against reuses it (meta.json present) and must keep exactly the
        survivors the store-text recompute fallback keeps."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.state.lineage import read_output

        base = ("the quick brown fox jumps over the lazy dog and then "
                "runs far away toward the distant hills today")
        other = "completely different content about database engines and arrow"

        def _write(path, ids, texts):
            pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                     "text": pa.array(texts, pa.string())}),
                           path)

        w1 = str(tmp_path / "wave1.parquet")
        _write(w1, [0, 1, 2], [base, other,
                               "unrelated text regarding mountains and rivers"])
        out1 = str(tmp_path / "out1")
        assert main([
            "dedup", w1, out1, "--threshold", "0.5", "--partitions", "2"]) == 0
        assert (tmp_path / "out1" / "_sigstore" / "meta.json").exists()

        w2 = str(tmp_path / "wave2.parquet")
        _write(w2, [100, 101, 102],
               [base.replace("lazy", "hazy"),   # dup of store 0 → drops
                other,                           # exact dup of store 1 → drops
                "fresh novel text with nothing shared at all whatsoever"])
        out2 = str(tmp_path / "out2")
        assert main(["dedup", w2, out2, "--against", out1,
                     "--threshold", "0.5", "--partitions", "2"]) == 0
        got = sorted(read_output(out2)["doc_id"].to_pylist())

        # fallback recompute path (no meta.json → store text re-read)
        (tmp_path / "out1" / "_sigstore" / "meta.json").unlink()
        out3 = str(tmp_path / "out3")
        assert main(["dedup", w2, out3, "--against", out1,
                     "--threshold", "0.5", "--partitions", "2"]) == 0
        assert got == sorted(read_output(out3)["doc_id"].to_pylist()) == [102]

    def test_subprocess_end_to_end(self, tmp_path):
        """One real subprocess run proving the CLI owns its own session."""
        pages = str(tmp_path / "p.parquet")
        out = str(tmp_path / "o")
        r1 = subprocess.run([sys.executable, "-m", "post_ocr_corrector_ray.cli",
                             "synth", pages, "--n", "30"],
                            capture_output=True, text=True, cwd=REPO_ROOT)
        assert r1.returncode == 0, r1.stderr[-500:]
        r2 = subprocess.run([sys.executable, "-m", "post_ocr_corrector_ray.cli",
                             "--num-cpus", "2", "run", pages, out,
                             "--corrector", "null", "--partitions", "2"],
                            capture_output=True, text=True, cwd=REPO_ROOT)
        assert r2.returncode == 0, r2.stderr[-500:]
        assert json.loads(r2.stdout.strip().splitlines()[-1])["rows"] == 30


@pytest.mark.usefixtures("ray_session")
class TestTiersCli:
    def test_tiers_pages_e2e_and_resume(self, tmp_path, capsys):
        """pages → extract → per-lang tiers → committed (lang, tier) store;
        a second identical run resumes (0 partitions re-committed); tier
        values match the library flagship composition."""
        import __ray_entry__ as entry
        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.state.lineage import read_output

        pages = str(tmp_path / "pages.parquet")
        assert main(["synth", pages, "--n", "600"]) == 0
        out = str(tmp_path / "tiers_store")
        assert main(["tiers", pages, out, "--partitions", "8"]) == 0
        first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert first["partitions_committed"] > 0 and first["rows"] > 500

        got = read_output(out).to_pandas().sort_values("url") \
            .reset_index(drop=True)
        assert set(got["tier"].unique()) == {1, 2, 3}
        # composite partition key is (lang, tier, id-hash shard)
        assert got["lang_tier"].str.match(r"^[a-z]+/tier-[123]/s[0-3]$").all()
        prefix = got["lang_tier"].str.rsplit("/s", n=1).str[0]
        assert (prefix == got["lang"] + "/tier-"
                + got["tier"].astype(str)).all()
        # sub-sharding actually splits tiers (the 100-TB partition-count fix)
        assert got["lang_tier"].nunique() > got["lang"].nunique() * 3
        want = entry.queries()["flagship_tiered"]("unused").to_pandas() \
            .sort_values("url").reset_index(drop=True)
        import pandas as pd
        pd.testing.assert_frame_equal(
            got[["url", "lang", "quality", "tier"]], want,
            check_dtype=False, check_exact=True)

        # resume: nothing re-commits
        assert main(["tiers", pages, out, "--partitions", "8"]) == 0
        second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert second["partitions_committed"] == 0

    def test_tiers_documents_mode_matches_pipeline(self, tmp_path, capsys):
        import __ray_entry__ as entry
        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.state.lineage import read_output

        out = str(tmp_path / "doc_tiers")
        assert main(["tiers", "/root/testdata/sf0.001/documents.parquet",
                     out, "--mode", "documents", "--partitions", "4"]) == 0
        capsys.readouterr()
        got = read_output(out).to_pandas().sort_values("doc_id") \
            .reset_index(drop=True)
        want = entry.queries()["doc_quality_tiers"]("/root/testdata/sf0.001") \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        import pandas as pd
        pd.testing.assert_frame_equal(
            got[["doc_id", "lang", "quality", "tier"]],
            want[["doc_id", "lang", "quality", "tier"]],
            check_dtype=False, check_exact=True)


class TestCliUsageErrors:
    @pytest.mark.parametrize("corrector", ["neural", "dictionary"])
    def test_run_without_model_dir(self, tmp_path, capsys, corrector):
        """A missing --model-dir is a usage error (exit 2), not an assert
        that ``python -O`` strips."""
        from post_ocr_corrector_ray.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", str(tmp_path / "pages.parquet"), str(tmp_path / "o"),
                  "--corrector", corrector])
        assert exc.value.code == 2
        assert "--model-dir" in capsys.readouterr().err


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _write_pages(tmp_path, ids):
    """Synthetic pages ``ids`` (seed 42) written as one parquet file."""
    import numpy as np
    import pyarrow.parquet as pq

    from post_ocr_corrector_ray.sources.synth import pages_batch

    pages = pages_batch(np.asarray(ids), seed=42)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pages, path)
    return pages, path


def _committed_url_map(out_dir, col="corrected_text") -> dict:
    from post_ocr_corrector_ray.state.lineage import read_output

    t = read_output(out_dir)
    urls = t.column("url").to_pylist()
    assert len(set(urls)) == len(urls)
    return dict(zip(urls, t.column(col).to_pylist()))


@pytest.mark.usefixtures("ray_session")
class TestCliSubcommands:
    """Each shipped subcommand's artifact against the single-process oracle
    or the kernel the subcommand wraps."""

    def test_alphabet(self, tmp_path, capsys):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.functions.alphabet import build_alphabet
        from post_ocr_corrector_ray.oracle import oracle_alphabet

        texts = ["Ünïcode and ascii.", None, "", "tab\tand\nnewline", "zz"]
        f = str(tmp_path / "t.parquet")
        pq.write_table(pa.table({"body": pa.array(texts, pa.string())}), f)
        out = tmp_path / "alphabet.txt"
        assert main(["alphabet", f, "--column", "body", "--out", str(out)]) == 0
        want = build_alphabet(oracle_alphabet([t for t in texts if t]))
        assert out.read_text(encoding="utf-8") == want
        assert "\n" not in want and "Ü" in want
        assert _last_json(capsys) == {"alphabet_size": len(want),
                                      "alphabet": want}

    def test_corpus(self, tmp_path):
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.oracle import oracle_extract, oracle_messy
        from post_ocr_corrector_ray.pipelines.corpus import add_split_column

        pages, path = _write_pages(tmp_path, range(30))
        out = str(tmp_path / "corpus")
        good = "abcdefghijklmnopqrstuvwxyz "
        assert main(["corpus", path, out, "--good-chars", good]) == 0
        got = pq.read_table(out).to_pandas().set_index("url").sort_index()
        clean = oracle_extract(pages)
        splits = add_split_column(pages.select(["url"])).to_pandas()
        assert sorted(got.index) == sorted(clean)
        for url, row in got.iterrows():
            assert row["clean"] == clean[url]
            assert row["messy"] == oracle_messy(url, clean[url].strip(), good)
        assert got["split"].to_dict() == dict(zip(splits["url"], splits["split"]))
        assert (got["messy"] != got["clean"]).any()

    def test_build_dictionary(self, tmp_path, capsys):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.oracle import oracle_token_counts

        clean = ["the fox and the dog", "a fox ran", "", None, "the  end dog"]
        f = str(tmp_path / "c.parquet")
        pq.write_table(pa.table({"clean": pa.array(clean, pa.string())}), f)
        out = tmp_path / "dictionary.json"
        assert main(["build-dictionary", f, str(out)]) == 0
        counts = oracle_token_counts([t for t in clean if t])
        want = {w: n for w, n in counts.items() if n >= 2}
        state = json.loads(out.read_text(encoding="utf-8"))
        assert state == {"min_frequency": 2, "vocabulary": want}
        assert _last_json(capsys) == {"vocab_size": len(want)}

    def test_parse_markup(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.sources.markup import markup_to_sentences_batch

        src = tmp_path / "markup"
        src.mkdir()
        blobs = {
            "a.vert": "\n".join(["<s>", "Hello\tH\tX\t0", "<g/>", ",\t,\tX\t0",
                                 "world\tw\tX\t0", "</s>", "<s>",
                                 "Again\ta\tX\t0", "</s>"]),
            "b.vert": "\n".join(["</s>", "<s>", "only\to\tX\t0", "bad", "</s>"]),
        }
        for name, blob in blobs.items():
            (src / name).write_text(blob, encoding="utf-8")
        out = str(tmp_path / "sentences")
        assert main(["parse-markup", str(src), out]) == 0
        got = pq.read_table(out).to_pandas()
        got["path"] = got["path"].map(os.path.basename)
        want = markup_to_sentences_batch(pa.table({
            "path": list(blobs), "markup": list(blobs.values())})).to_pandas()
        key = ["path", "sentence_idx"]
        assert got.sort_values(key).reset_index(drop=True).equals(
            want.sort_values(key).reset_index(drop=True))
        assert len(want) == 4   # the orphan </s> closes an empty sentence

    def test_commit_and_resume(self, tmp_path, capsys):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.state.lineage import read_output

        src = pa.table({"k": pa.array([f"key{i}" for i in range(60)]),
                        "v": pa.array(range(60), pa.int64())})
        f = str(tmp_path / "in.parquet")
        pq.write_table(src, f)
        out = str(tmp_path / "store")
        argv = ["commit", f, out, "--key-col", "k", "--partitions", "5"]
        assert main(argv) == 0
        first = _last_json(capsys)
        assert first["rows"] == 60 and 0 < first["partitions_committed"] <= 5
        assert read_output(out).sort_by("v").equals(src)
        assert main(argv) == 0
        assert _last_json(capsys) == {"partitions_committed": 0, "rows": 0}

    def test_run_no_resume_after_partitions_change(self, tmp_path):
        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.state.lineage import read_lineage, read_output

        _, path = _write_pages(tmp_path, range(40))
        out = str(tmp_path / "store")
        assert main(["run", path, out, "--partitions", "16"]) == 0
        assert main(["run", path, out, "--partitions", "8", "--no-resume"]) == 0
        urls = read_output(out).column("url").to_pylist()
        assert len(urls) == len(set(urls)) == 40
        assert {r["num_partitions"] for r in read_lineage(out)} == {8}

    def test_run_dictionary_corrector(self, tmp_path):
        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.oracle import oracle_extract_correct

        pages, path = _write_pages(tmp_path, range(40))
        corpus = str(tmp_path / "corpus")
        mdir = tmp_path / "model"
        mdir.mkdir()
        assert main(["corpus", path, corpus]) == 0
        assert main(["build-dictionary", corpus,
                     str(mdir / "dictionary.json")]) == 0
        out = str(tmp_path / "store")
        assert main(["--num-cpus", "4", "run", path, out,
                     "--corrector", "dictionary", "--model-dir", str(mdir),
                     "--concurrency", "1", "--partitions", "4"]) == 0
        want = oracle_extract_correct(pages, load_dictionary(str(mdir)))
        assert _committed_url_map(out) == want
        assert len(load_dictionary(str(mdir)).vocabulary) > 10

    def test_run_neural_corrector(self, tmp_path):
        from __ray_entry__ import FLAGSHIP_ALPHABET, TINY_HPARAMS

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.oracle import oracle_extract_correct

        # page 7 is the generator's 26k-char page: skipped for speed
        pages, path = _write_pages(tmp_path, range(8, 20))
        mdir = str(tmp_path / "model")
        save_model_dir(mdir, NeuralCorrectorModel.from_seed(
            FLAGSHIP_ALPHABET, seed=7, **TINY_HPARAMS))
        out = str(tmp_path / "store")
        assert main(["--num-cpus", "4", "run", path, out,
                     "--corrector", "neural", "--model-dir", mdir,
                     "--concurrency", "1", "--partitions", "4"]) == 0
        want = oracle_extract_correct(pages, load_model_dir(mdir))
        assert _committed_url_map(out) == want
        assert any(want.values())


DOCS = "/root/testdata/sf0.001/documents.parquet"
_TIER_COLS = ["doc_id", "lang", "quality", "tier", "lang_tier"]


def _renamed_copy(src: str, dst: str, names: dict) -> str:
    import pyarrow.parquet as pq

    t = pq.read_table(src)
    pq.write_table(t.rename_columns([names.get(n, n) for n in t.column_names]), dst)
    return dst


def _tier_rows(out_dir: str, names: dict | None = None):
    from post_ocr_corrector_ray.state.lineage import read_output

    df = read_output(out_dir).to_pandas().rename(columns=names or {})
    return df[_TIER_COLS].sort_values("doc_id").reset_index(drop=True)


@pytest.fixture(scope="module")
def default_doc_tiers(tmp_path_factory):
    """``tiers --mode documents`` over the documents fixture, default options."""
    from post_ocr_corrector_ray.cli import main

    out = str(tmp_path_factory.mktemp("tiers") / "store")
    assert main(["tiers", DOCS, out, "--mode", "documents", "--partitions", "4"]) == 0
    return _tier_rows(out)


@pytest.mark.usefixtures("ray_session")
class TestCliOptions:
    """Options of the shipped subcommands that change what they read or
    write, each against the default run or the library call it maps to."""

    def test_dedup_against_refuses_mismatched_sigstore(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.cli import main

        w1, w2 = str(tmp_path / "w1.parquet"), str(tmp_path / "w2.parquet")
        pq.write_table(pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                                 "text": ["alpha beta gamma delta", "epsilon zeta"]}), w1)
        pq.write_table(pa.table({"doc_id": pa.array([100], pa.int64()),
                                 "text": ["alpha beta gamma delta"]}), w2)
        out1 = tmp_path / "out1"
        assert main(["dedup", w1, str(out1), "--partitions", "2"]) == 0
        meta = out1 / "_sigstore" / "meta.json"
        params = json.loads(meta.read_text(encoding="utf-8"))
        meta.write_text(json.dumps({**params, "n_hashes": 32}), encoding="utf-8")
        out2 = tmp_path / "out2"
        with pytest.raises(SystemExit, match="not comparable"):
            main(["dedup", w2, str(out2), "--against", str(out1),
                  "--partitions", "2"])
        # refused before the wave is shingled: no temp signature store left
        assert not (out2 / "_sigstore.tmp").exists()

    def test_dedup_custom_columns(self, tmp_path):
        """``--id-col``/``--text-col`` keep the survivors of the default
        column names, and the signature store records the id column."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.state.lineage import read_output

        base = "the quick brown fox jumps over the lazy dog near the river bank"
        texts = [base, base.replace("lazy", "hazy"), "an unrelated sentence on arrow",
                 base, "another different line about parquet files"]
        ids = pa.array([3, 5, 8, 13, 21], pa.int64())
        plain, renamed = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
        pq.write_table(pa.table({"doc_id": ids, "text": texts}), plain)
        pq.write_table(pa.table({"id": ids, "body": texts}), renamed)
        assert main(["dedup", plain, str(tmp_path / "oa"), "--partitions", "2"]) == 0
        assert main(["dedup", renamed, str(tmp_path / "ob"), "--partitions", "2",
                     "--id-col", "id", "--text-col", "body"]) == 0
        want = sorted(read_output(str(tmp_path / "oa")).column("doc_id").to_pylist())
        assert want == [3, 8, 21]
        assert sorted(read_output(str(tmp_path / "ob")).column("id").to_pylist()) == want
        meta = json.loads((tmp_path / "ob" / "_sigstore" / "meta.json").read_text())
        assert meta["id_col"] == "id"

    def test_tiers_text_col(self, tmp_path, default_doc_tiers):
        import pandas as pd

        from post_ocr_corrector_ray.cli import main

        src = _renamed_copy(DOCS, str(tmp_path / "d.parquet"), {"text": "body"})
        out = str(tmp_path / "store")
        assert main(["tiers", src, out, "--mode", "documents", "--partitions", "4",
                     "--text-col", "body"]) == 0
        pd.testing.assert_frame_equal(_tier_rows(out), default_doc_tiers)

    def test_tiers_id_and_lang_cols(self, tmp_path, default_doc_tiers):
        import pandas as pd

        from post_ocr_corrector_ray.cli import main

        names = {"doc_id": "id", "lang": "language"}
        src = _renamed_copy(DOCS, str(tmp_path / "d.parquet"), names)
        out = str(tmp_path / "store")
        assert main(["tiers", src, out, "--mode", "documents", "--partitions", "4",
                     "--id-col", "id", "--lang-col", "language"]) == 0
        got = _tier_rows(out, {v: k for k, v in names.items()})
        pd.testing.assert_frame_equal(got, default_doc_tiers)

    def test_tiers_no_resume(self, tmp_path, capsys, default_doc_tiers):
        """A ``--no-resume`` rerun over a complete store commits every
        partition again and writes the same rows."""
        import pandas as pd

        from post_ocr_corrector_ray.cli import main

        out = str(tmp_path / "store")
        argv = ["tiers", DOCS, out, "--mode", "documents", "--partitions", "4"]
        assert main(argv) == 0
        first = _last_json(capsys)
        assert main(argv + ["--no-resume"]) == 0
        second = _last_json(capsys)
        assert second == first and first["partitions_committed"] > 0
        pd.testing.assert_frame_equal(_tier_rows(out), default_doc_tiers)

    @pytest.mark.parametrize("shards", [1, 4, 7])
    def test_tiers_shards_per_tier(self, tmp_path, shards, default_doc_tiers):
        """Sub-sharding moves rows between partitions only: the tiers are
        the default run's, and each row's key ends in its id-hash shard."""
        import pandas as pd

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.functions.hashing import polyhash_u64

        out = str(tmp_path / "store")
        assert main(["tiers", DOCS, out, "--mode", "documents", "--partitions", "4",
                     "--shards-per-tier", str(shards)]) == 0
        got = _tier_rows(out)
        cols = ["doc_id", "lang", "quality", "tier"]
        pd.testing.assert_frame_equal(got[cols], default_doc_tiers[cols])
        want = [f"{lang}/tier-{tier}/s{polyhash_u64(str(i).encode()) % shards}"
                for i, lang, tier in zip(got["doc_id"], got["lang"], got["tier"])]
        assert got["lang_tier"].tolist() == want
        assert got["lang_tier"].str.rsplit("/s", n=1).str[1].nunique() == shards

    def test_tiers_count(self, tmp_path):
        """``--tiers 5``: per-language NTILE(5) over (quality, doc_id)."""
        import duckdb
        import pandas as pd
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.stages.textstats import quality_score_batch

        out = str(tmp_path / "store")
        assert main(["tiers", DOCS, out, "--mode", "documents", "--partitions", "4",
                     "--tiers", "5"]) == 0
        docs = pq.read_table(DOCS, columns=["doc_id", "text", "lang"])
        q = quality_score_batch(docs.select(["doc_id", "text"])).to_pandas()
        q["lang"] = docs.column("lang").to_pylist()
        want = duckdb.query(
            "SELECT doc_id, lang, quality, CAST(NTILE(5) OVER (PARTITION BY "
            "lang ORDER BY quality, doc_id) AS BIGINT) AS tier FROM q"
        ).fetchdf().sort_values("doc_id").reset_index(drop=True)
        got = _tier_rows(out)
        pd.testing.assert_frame_equal(got[["doc_id", "lang", "quality", "tier"]], want,
                                      check_dtype=False, check_exact=True)
        assert sorted(got["tier"].unique()) == [1, 2, 3, 4, 5]

    def test_eval_banded(self, tmp_path, capsys):
        """``--banded`` scores with the reference's banded distance, which
        differs from the full one when an alignment leaves the band."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.pipelines.evaluate import evaluate

        a, p = "abcdefghijklmnopqrstuvwxyz", "0123456789ABCDEF"
        f = str(tmp_path / "pairs.parquet")
        pq.write_table(pa.table({"corrected_text": [p + a, "abd", "same"],
                                 "clean": [a + p, "abcd", "same"]}), f)
        assert main(["eval", f, "--banded"]) == 0
        got = _last_json(capsys)
        banded, full = (evaluate(ray.data.read_parquet(f), banded=b) for b in (True, False))
        assert got == {"mean_cer": banded.mean_cer,
                       "percent_perfect": banded.percent_perfect, "n": banded.n}
        assert banded.mean_cer != full.mean_cer

    def test_eval_custom_columns(self, tmp_path, capsys):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.pipelines.evaluate import evaluate

        f = str(tmp_path / "pairs.parquet")
        pq.write_table(pa.table({"corrected_text": ["x", "y", "z"],
                                 "messy": ["ab", "xyz", ""],
                                 "ref": ["abcd", "xyz", "q"]}), f)
        assert main(["eval", f, "--out-col", "messy", "--clean-col", "ref"]) == 0
        want = evaluate(ray.data.read_parquet(f), out_col="messy", correct_col="ref")
        assert _last_json(capsys) == {"mean_cer": want.mean_cer,
                                      "percent_perfect": want.percent_perfect,
                                      "n": want.n}
        assert want.n == 3 and 0 < want.mean_cer < 1

    @pytest.mark.parametrize("argv,kwargs", [
        (["--epoch", "1"], dict(epoch=1)),
        (["--split", "validation", "--batch-size", "3"],
         dict(split="validation", batch_size=3)),
    ], ids=["epoch", "split"])
    def test_feed_options(self, tmp_path, argv, kwargs):
        """The collated batches equal ``epoch_feed`` called with the same
        options, and differ from the default epoch-0 train feed."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.pipelines.training import epoch_feed

        n = 40
        f = str(tmp_path / "corpus.parquet")
        pq.write_table(pa.table({
            "url": [f"u{i}" for i in range(n)],
            "clean": [f"ab cd {'e' * (i % 7)}" for i in range(n)],
            "messy": [f"ab ce {'d' * (i % 5)}" for i in range(n)],
            "split": [("train", "validation")[i % 4 == 0] for i in range(n)]}), f)
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("abcde ")
        out = str(tmp_path / "feed_out")
        assert main(["feed", f, out, "--alphabet-file", str(alpha)] + argv) == 0

        def rows(df):
            return sorted(zip(*(df[c].tolist() for c in
                                ("batch_id", "size", "width_x", "width_y", "x", "y"))))

        def library(**kw):
            return rows(epoch_feed(ray.data.read_parquet(f), alphabet="abcde ",
                                   **kw).to_pandas())

        got = rows(pq.read_table(out).to_pandas())
        want, default = library(**kwargs), library()
        assert got == want != default
