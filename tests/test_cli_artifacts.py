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
                            capture_output=True, text=True, cwd="/root/repo")
        assert r1.returncode == 0, r1.stderr[-500:]
        r2 = subprocess.run([sys.executable, "-m", "post_ocr_corrector_ray.cli",
                             "--num-cpus", "2", "run", pages, out,
                             "--corrector", "null", "--partitions", "2"],
                            capture_output=True, text=True, cwd="/root/repo")
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
