"""Model-dir artifacts + CLI smoke (subprocess-free: main() called directly
except one true end-to-end subprocess run)."""

import json
import os
import subprocess
import sys

import pytest

from post_ocr_corrector_ray.model.artifacts import (
    load_dictionary,
    read_alphabet,
    save_model_dir,
)
from post_ocr_corrector_ray.model.neural import NeuralCorrectorModel
from post_ocr_corrector_ray.model.transformer import TransformerWeights
from post_ocr_corrector_ray.state.lineage import read_output

ALPHA = " .abcdefghij"
# the checkout this test file belongs to: subprocesses import its package
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_like_cli_run(model_dir: str) -> NeuralCorrectorModel:
    """The neural model ``cli run --model-dir`` serves: ``alphabet.txt``
    read with ``read_alphabet``, the weights from ``weights.npz``."""
    return NeuralCorrectorModel.load(os.path.join(model_dir, "weights.npz"),
                                     read_alphabet(model_dir))


class TestArtifacts:
    def test_model_dir_round_trip(self, tmp_path, tiny_hparams):
        model = NeuralCorrectorModel.from_seed(ALPHA, seed=3, **tiny_hparams)
        mdir = str(tmp_path / "m")
        save_model_dir(mdir, model)
        assert sorted(os.listdir(mdir)) == ["alphabet.txt", "weights.npz"]
        cfg = TransformerWeights.load_npz(os.path.join(mdir, "weights.npz")).config
        assert cfg == model.net.cfg
        assert {k: getattr(cfg, k) for k in tiny_hparams} == tiny_hparams
        assert read_alphabet(mdir) == ALPHA
        loaded = _load_like_cli_run(mdir)
        text = "a bad cafe hid a jig."
        assert loaded.correct_document(text) == model.correct_document(text)

    def test_alphabet_newline_stripped(self, tmp_path):
        # get_alphabet semantics: \n in the file never enters the alphabet
        mdir = tmp_path / "m2"
        mdir.mkdir()
        (mdir / "alphabet.txt").write_text("ab\ncd\n")
        assert read_alphabet(str(mdir)) == "abcd"


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
        got = read_output(out)
        assert got.num_rows == 3 and set(got.column("size").to_pylist()) == {4}

    def test_convert_ckpt_subcommand(self, tmp_path, capsys):
        from fake_torch_ckpt import params_to_state_dict, write_fake_torch_ckpt
        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.functions.alphabet import build_alphabet

        alphabet = build_alphabet(set("abc "))
        hp = dict(max_len=8, d_model=8, n_head=2, n_layers=1, d_linear=8)
        m = NeuralCorrectorModel.from_seed(alphabet, seed=3, **hp)
        sd = params_to_state_dict(
            {k: v for k, v in m.net.w.items() if not k.startswith("_")}, 1)
        ckpt = str(tmp_path / "ref.ckpt")
        write_fake_torch_ckpt(ckpt, sd, dict(hp, batch_size=6))
        af = tmp_path / "alpha.txt"
        af.write_text(alphabet)
        out = str(tmp_path / "mdir")
        assert main(["convert-ckpt", ckpt, str(af), out]) == 0
        assert sorted(os.listdir(out)) == ["alphabet.txt", "weights.npz"]
        written = TransformerWeights.load_npz(os.path.join(out, "weights.npz")).config
        assert {k: getattr(written, k) for k in (*hp, "layer_norm_eps")} == \
            dict(hp, layer_norm_eps=2e-5)
        assert _last_json(capsys) == {"out_dir": out, **written.to_dict()}
        m2 = _load_like_cli_run(out)
        assert m2.correct_document("ab c") == m.correct_document("ab c")

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

    def test_dedup_command_is_gone(self, tmp_path, capsys):
        from post_ocr_corrector_ray.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["dedup", str(tmp_path / "docs.parquet"), str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "invalid choice: 'dedup'" in capsys.readouterr().err

    def test_tiers_command_is_gone(self, tmp_path, capsys):
        from post_ocr_corrector_ray.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["tiers", str(tmp_path / "pages.parquet"), str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "invalid choice: 'tiers'" in capsys.readouterr().err


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

        from corpus_oracle import oracle_alphabet
        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.functions.alphabet import build_alphabet

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
        from corpus_oracle import oracle_messy
        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.oracle import oracle_extract
        from post_ocr_corrector_ray.pipelines.corpus import add_split_column

        pages, path = _write_pages(tmp_path, range(30))
        out = str(tmp_path / "corpus")
        good = "abcdefghijklmnopqrstuvwxyz "
        assert main(["corpus", path, out, "--good-chars", good]) == 0
        got = read_output(out).to_pandas().set_index("url").sort_index()
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

        from corpus_oracle import oracle_token_counts
        from post_ocr_corrector_ray.cli import main

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

    def test_build_dictionary_counts_the_train_split(self, tmp_path, capsys):
        """On a ``corpus`` output (it has a ``split`` column) the vocabulary
        counts the train rows only, like ``build_dictionary``'s default and
        the reference's train-split vocabulary."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from corpus_oracle import oracle_token_counts
        from post_ocr_corrector_ray.cli import main

        clean = ["the fox and the dog", "a fox ran", "the end dog",
                 "ran ran far", "far far"]
        split = ["train", "train", "validation", "test", "train"]
        f = str(tmp_path / "corpus.parquet")
        pq.write_table(pa.table({"url": [f"u{i}" for i in range(5)],
                                 "clean": clean, "split": split}), f)
        out = tmp_path / "dictionary.json"
        assert main(["build-dictionary", f, str(out)]) == 0

        def vocab(texts):
            return {w: n for w, n in oracle_token_counts(texts).items() if n >= 2}

        want = vocab([c for c, s in zip(clean, split) if s == "train"])
        state = json.loads(out.read_text(encoding="utf-8"))
        assert state == {"min_frequency": 2, "vocabulary": want}
        assert want != vocab(clean)

    def test_parse_markup(self, tmp_path):
        import pyarrow as pa

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
        got = read_output(out).to_pandas()
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
        from post_ocr_corrector_ray.state.lineage import read_lineage

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
        want = oracle_extract_correct(pages, _load_like_cli_run(mdir))
        assert _committed_url_map(out) == want
        assert any(want.values())


@pytest.mark.usefixtures("ray_session")
class TestCliOptions:
    """Options of the shipped subcommands that change what they read or
    write, each against the default run or the library call it maps to."""

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

        got = rows(read_output(out).to_pandas())
        want, default = library(**kwargs), library()
        assert got == want != default


def _snapshot(store: str) -> dict:
    """Every file under ``store``: relative path → (bytes, mtime in ns)."""
    out = {}
    for root, _, names in os.walk(store):
        for name in names:
            f = os.path.join(root, name)
            with open(f, "rb") as fh:
                out[os.path.relpath(f, store)] = (fh.read(), os.stat(f).st_mtime_ns)
    return out


def _write_corpus(path: str, n: int, split: str = "train") -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"url": [f"u{i}" for i in range(n)],
                             "clean": [f"ab cd {'e' * (i % 5)}" for i in range(n)],
                             "messy": [f"ab ce {'d' * (i % 3)}" for i in range(n)],
                             "split": [split] * n}), path)


def _stage(tmp_path, cmd: str) -> list[str]:
    """Write the input of ``cmd`` under ``tmp_path``; return its argv."""
    out = str(tmp_path / "store")
    if cmd == "corpus":
        return ["corpus", _write_pages(tmp_path, range(30))[1], out]
    if cmd == "parse-markup":
        src = tmp_path / "markup"
        src.mkdir()
        for i in range(4):
            (src / f"f{i}.vert").write_text(f"<s>\nword{i}\tw\tX\t0\n</s>\n")
        return ["parse-markup", str(src), out]
    corpus = str(tmp_path / "corpus.parquet")
    _write_corpus(corpus, 24)
    if cmd == "commit":
        return ["commit", corpus, out, "--key-col", "url"]
    (tmp_path / "alpha.txt").write_text("abcde ")
    return ["feed", corpus, out, "--alphabet-file", str(tmp_path / "alpha.txt"),
            "--batch-size", "4"]


_OPTION_CHANGES = {"--good-chars": "abc ", "--batch-size": "3", "--epoch": "1",
                   "--key-col": "clean"}


@pytest.mark.usefixtures("ray_session")
class TestCliStores:
    """``corpus``, ``feed``, ``parse-markup`` and ``commit`` write committed
    stores: a second run over a complete store commits nothing and touches
    no file; a rerun over another input, or under another option that
    decides the bytes, is refused and leaves the store as it was."""

    @pytest.mark.parametrize("cmd,change,field", [
        ("corpus", "input", "input_fingerprint"),
        ("corpus", "--good-chars", "stage_versions"),
        ("parse-markup", "input", "input_fingerprint"),
        ("feed", "--batch-size", "stage_versions"),
        ("feed", "--epoch", "stage_versions"),
        ("commit", "--key-col", "stage_versions"),
    ])
    def test_rerun_resumes_or_refuses(self, tmp_path, capsys, cmd, change, field):
        from post_ocr_corrector_ray.cli import main

        argv = _stage(tmp_path, cmd)
        out = argv[2]
        assert main(argv) == 0
        first = _last_json(capsys)
        assert first["partitions_committed"] > 1 and first["rows"] > 0
        before = _snapshot(out)
        assert main(argv) == 0
        assert _last_json(capsys) == {"partitions_committed": 0, "rows": 0}
        assert _snapshot(out) == before
        if change == "input":
            if cmd == "corpus":
                _write_pages(tmp_path, range(31))
            else:
                (tmp_path / "markup" / "f9.vert").write_text("<s>\nmore\tm\tX\t0\n</s>\n")
        else:
            argv = argv + [change, _OPTION_CHANGES[change]]
        with pytest.raises(ValueError, match=field):
            main(argv)
        assert _snapshot(out) == before

    def test_build_dictionary_over_a_rerun_corpus(self, tmp_path):
        """A second ``corpus`` run into the same out_dir adds no rows, so
        the dictionary counts each page once."""
        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.model.dictionary import DictionaryCorrector

        _, path = _write_pages(tmp_path, range(40))
        once, twice = str(tmp_path / "once"), str(tmp_path / "twice")
        for out in (once, twice, twice):
            assert main(["corpus", path, out]) == 0
        dicts = []
        for out in (once, twice):
            assert main(["build-dictionary", out, out + ".json"]) == 0
            dicts.append(DictionaryCorrector.load(out + ".json"))
        assert dicts[0].vocabulary == dicts[1].vocabulary
        assert len(dicts[0].vocabulary) > 10

    def test_zero_batch_feed_is_a_typed_empty_store(self, tmp_path, capsys):
        import ray.data

        from post_ocr_corrector_ray.cli import main
        from post_ocr_corrector_ray.pipelines.training import FEED_SCHEMA
        from post_ocr_corrector_ray.state.lineage import input_files

        corpus, out = str(tmp_path / "corpus.parquet"), str(tmp_path / "feed")
        _write_corpus(corpus, 6, split="test")
        (tmp_path / "alpha.txt").write_text("abcde ")
        argv = ["feed", corpus, out, "--alphabet-file", str(tmp_path / "alpha.txt")]
        assert main(argv) == 0
        assert _last_json(capsys) == {"partitions_committed": 1, "rows": 0}
        got = read_output(out)
        assert got.num_rows == 0 and got.schema == FEED_SCHEMA
        ds = ray.data.read_parquet(input_files(out), partitioning=None)
        assert ds.count() == 0 and ds.schema().base_schema == FEED_SCHEMA
        assert main(argv) == 0
        assert _last_json(capsys) == {"partitions_committed": 0, "rows": 0}
