"""End-to-end: Ray pipeline output byte-identical to the single-process oracle,
invariant to batch size / parallelism; partitioned commit + resume."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from post_ocr_corrector_ray.functions.alphabet import build_alphabet
from post_ocr_corrector_ray.model.dictionary import DictionaryCorrector
from post_ocr_corrector_ray.model.neural import NeuralCorrectorModel
from post_ocr_corrector_ray.oracle import oracle_extract, oracle_extract_correct
from post_ocr_corrector_ray.pipelines.extract_correct import extract_correct
from post_ocr_corrector_ray.sources.synth import pages_batch, write_pages_parquet
from post_ocr_corrector_ray.state import lineage as lin

import numpy as np

N_PAGES = 120


@pytest.fixture(scope="module")
def pages_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages")
    path = str(d / "pages.parquet")
    write_pages_parquet(path, N_PAGES, seed=42)
    return path


@pytest.fixture(scope="module")
def pages_table():
    return pages_batch(np.arange(N_PAGES), seed=42)


@pytest.fixture(scope="module")
def alphabet(pages_table):
    golden = oracle_extract(pages_table)
    return build_alphabet(set().union(*[set(t) for t in golden.values()]) or {"a"})


def _pages(urls, htmls, texts):
    """A pages table in the generator's schema from explicit payloads."""
    import pyarrow as pa

    from post_ocr_corrector_ray.sources.synth import PAGES_SCHEMA

    n = len(urls)
    return pa.table({"url": urls, "warc_ts": [None] * n, "html": htmls,
                     "text": texts, "lang": ["en"] * n}, schema=PAGES_SCHEMA)


def _as_url_map(ds, col="corrected_text"):
    tbl = ds.to_pandas()
    return dict(zip(tbl["url"], tbl[col]))


@pytest.mark.usefixtures("ray_session")
class TestByteIdentity:
    def test_extract_matches_oracle(self, pages_file, pages_table):
        import ray.data

        ds = extract_correct(ray.data.read_parquet(pages_file), corrector="null")
        got = _as_url_map(ds, "extracted_text")
        want = oracle_extract(pages_table)
        assert got == want

    def test_null_corrector_identity(self, pages_file):
        import ray.data

        ds = extract_correct(ray.data.read_parquet(pages_file), corrector="null")
        df = ds.to_pandas()
        assert (df["corrected_text"] == df["extracted_text"]).all()

    def test_neural_matches_oracle_across_batch_sizes(self, pages_file, pages_table,
                                                      alphabet, tiny_hparams):
        import ray.data

        model = NeuralCorrectorModel.from_seed(alphabet, seed=7, **tiny_hparams)
        # keep runtime sane: 12 mixed pages
        small = pages_table.slice(0, 12)
        want = oracle_extract_correct(small, model)
        for batch_size in (1, 12):
            ds = extract_correct(
                ray.data.from_arrow(small), corrector="neural",
                alphabet=alphabet, seed=7, hparams=tiny_hparams,
                batch_size=batch_size, concurrency=2,
            )
            assert _as_url_map(ds) == want, f"batch_size={batch_size}"

    def test_dictionary_matches_oracle(self, pages_file, pages_table):
        import ray

        vocab = {"brza": 3, "lisica": 3, "quick": 5, "brown": 5, "fox": 5,
                 "the": 9, "dog": 4, "under": 3, "trees": 3}
        corr = DictionaryCorrector(vocab, min_frequency=2)
        small = pages_table.slice(0, 20)
        want = oracle_extract_correct(small, corr)
        ds = extract_correct(
            ray.data.from_arrow(small), corrector="dictionary",
            vocab_ref=ray.put(vocab), min_frequency=2, concurrency=2,
        )
        assert _as_url_map(ds) == want

    def test_corrector_stage_resource_passthrough(self, pages_table, alphabet,
                                                  tiny_hparams):
        """SURVEY §2.3 T1: num_gpus/resources plumb through to map_batches
        (smoke with num_gpus=0 — same output, no GPU requested)."""
        import ray.data

        small = pages_table.slice(0, 12)
        base = extract_correct(ray.data.from_arrow(small), corrector="neural",
                               alphabet=alphabet, seed=7, hparams=tiny_hparams,
                               concurrency=2)
        gpu0 = extract_correct(ray.data.from_arrow(small), corrector="neural",
                               alphabet=alphabet, seed=7, hparams=tiny_hparams,
                               concurrency=2, num_gpus=0, num_cpus=1)
        assert _as_url_map(gpu0) == _as_url_map(base)


@pytest.mark.usefixtures("ray_session")
class TestCommitResume:
    def test_partitioned_commit_and_lineage(self, pages_file, pages_table, tmp_path):
        import ray.data

        out = str(tmp_path / "out")
        summary = extract_correct(ray.data.read_parquet(pages_file), corrector="null",
                                  out_dir=out, num_partitions=8,
                                  input_fingerprint="testfp").to_pandas()
        committed = lin.committed_partitions(out)
        assert set(summary["part"]) == committed and len(committed) > 0
        # lineage records present with metrics
        recs = lin.read_lineage(out)
        assert all(r["input_fingerprint"] == "testfp" for r in recs)
        assert all(r["num_partitions"] == 8 for r in recs)
        assert sum(r["n_rows"] for r in recs) == N_PAGES
        # output matches oracle
        table = lin.read_output(out)
        texts = table.column("corrected_text").to_pylist()
        got = dict(zip(table.column("url").to_pylist(), texts))
        assert got == oracle_extract(pages_table)
        # the markers' metrics add up to the committed text
        assert sum(r["metrics"]["n_empty_outputs"] for r in recs) \
            == sum(1 for t in texts if not t)
        assert sum(r["metrics"]["total_out_chars"] for r in recs) \
            == sum(len(t or "") for t in texts)

    def test_commit_metrics_count_code_points(self, tmp_path):
        """Outputs outside the BMP, combining marks, CJK, whitespace-only and
        missing payloads: the markers count code points (Python ``len``),
        and an empty output counts as empty whatever produced it."""
        import datetime

        import pyarrow as pa
        import ray.data

        from post_ocr_corrector_ray.sources.synth import PAGES_SCHEMA

        texts = ["plain ascii", "emoji 😀🚀 end", "é combining",
                 "日本語のページ", "   ", None, "𝔘𝔫𝔦𝔠𝔬𝔡𝔢", ""] * 5
        n = len(texts)
        pages = pa.table({"url": [f"https://u.example/{i}" for i in range(n)],
                          "warc_ts": [datetime.datetime(2024, 1, 1)] * n,
                          "html": pa.nulls(n, pa.binary()),
                          "text": texts, "lang": ["en"] * n},
                         schema=PAGES_SCHEMA)
        out = str(tmp_path / "cp")
        extract_correct(ray.data.from_arrow(pages), corrector="null",
                        out_dir=out, num_partitions=4).to_pandas()
        recs = lin.read_lineage(out)
        got = lin.read_output(out).column("corrected_text").to_pylist()
        want = [(t or "").strip() for t in texts]
        assert sorted(got) == sorted(want)
        assert sum(r["metrics"]["total_out_chars"] for r in recs) \
            == sum(len(t) for t in want)
        assert sum(r["metrics"]["n_empty_outputs"] for r in recs) \
            == sum(1 for t in want if not t) == 15

    def test_resume_skips_committed(self, pages_file, tmp_path):
        import ray.data

        out = str(tmp_path / "out2")
        extract_correct(ray.data.read_parquet(pages_file), corrector="null",
                        out_dir=out, num_partitions=8).to_pandas()
        first = lin.committed_partitions(out)
        assert len(first) > 0
        # wipe two partitions' markers → only those get redone
        victims = sorted(first)[:2]
        for p in victims:
            os.remove(os.path.join(lin.partition_dir(out, p), lin.SUCCESS_NAME))
        summary2 = extract_correct(ray.data.read_parquet(pages_file), corrector="null",
                                   out_dir=out, num_partitions=8).to_pandas()
        assert set(summary2["part"]) == set(victims)
        assert lin.committed_partitions(out) == first

    def test_csv_sink_variant(self, pages_file, tmp_path):
        """Reference eval.py:39-42 writes CSV — the commit sink supports it
        with the same atomic-rename + _SUCCESS protocol and readback."""
        import ray.data

        out = str(tmp_path / "csvout")
        s = extract_correct(ray.data.read_parquet(pages_file), corrector="null",
                            out_dir=out, num_partitions=4,
                            data_format="csv").to_pandas()
        assert s["n_rows"].sum() == N_PAGES
        tbl = lin.read_output(out)
        assert tbl.num_rows == N_PAGES
        assert all(r["data_format"] == "csv" for r in lin.read_lineage(out))
        assert os.path.exists(os.path.join(out, "part=00000", "data.csv"))

    def test_crashed_partition_redone_cleanly(self, pages_file, tmp_path):
        """A partition with data but no _SUCCESS (crash between write and
        commit) plus stray tmp files is redone and recommitted atomically."""
        import ray.data

        out = str(tmp_path / "crash_out")
        extract_correct(ray.data.read_parquet(pages_file), corrector="null",
                        out_dir=out, num_partitions=8).to_pandas()
        victim = sorted(lin.committed_partitions(out))[0]
        pdir = lin.partition_dir(out, victim)
        os.remove(os.path.join(pdir, lin.SUCCESS_NAME))
        with open(os.path.join(pdir, ".tmp-deadbeef.parquet"), "wb") as f:
            f.write(b"garbage partial write")
        summary = extract_correct(ray.data.read_parquet(pages_file), corrector="null",
                                  out_dir=out, num_partitions=8).to_pandas()
        assert set(summary["part"]) == {victim}
        assert os.path.exists(os.path.join(pdir, lin.SUCCESS_NAME))
        # output readable and complete despite the stray tmp file
        table = lin.read_output(out)
        assert table.num_rows == N_PAGES

    def test_fingerprint_inputs(self, pages_file, tmp_path):
        a = lin.fingerprint_inputs(pages_file)
        assert a == lin.fingerprint_inputs(pages_file)  # stable
        other = str(tmp_path / "other.parquet")
        import shutil

        shutil.copy(pages_file, other)
        assert lin.fingerprint_inputs(other) != a  # basename participates
        assert len(a) == 24

    def test_partition_assignment_deterministic(self, pages_file, tmp_path):
        from post_ocr_corrector_ray.functions.hashing import partition_of

        urls = pq.read_table(pages_file, columns=["url"]).column("url").to_pylist()
        a = [partition_of(u, 8) for u in urls]
        b = [partition_of(u, 8) for u in urls]
        assert a == b


@pytest.mark.usefixtures("ray_session")
class TestCommitByKey:
    def test_generic_sink_commits_and_resumes(self, tmp_path):
        import pyarrow as pa
        import ray.data

        from post_ocr_corrector_ray.state.lineage import commit_by_key

        out = str(tmp_path / "generic")
        tbl = pa.table({"doc_id": pa.array(range(100), pa.int64()),
                        "text": pa.array([f"t{i}" for i in range(100)])})
        s = commit_by_key(ray.data.from_arrow(tbl), out, key_col="doc_id",
                          num_partitions=8).to_pandas()
        assert s["n_rows"].sum() == 100 and len(s) == 8
        back = lin.read_output(out)
        assert sorted(back.column("doc_id").to_pylist()) == list(range(100))
        assert "_part" not in back.column_names
        # resume: nothing recommitted
        s2 = commit_by_key(ray.data.from_arrow(tbl), out, key_col="doc_id",
                           num_partitions=8).to_pandas()
        assert len(s2) == 0
        # partial wipe → only the missing partition is redone
        import shutil

        shutil.rmtree(lin.partition_dir(out, int(s["part"][0])))
        s3 = commit_by_key(ray.data.from_arrow(tbl), out, key_col="doc_id",
                           num_partitions=8).to_pandas()
        assert len(s3) == 1
        assert lin.read_output(out).num_rows == 100


def _text_pages(n):
    """n text-only pages: extraction passes each page's text through."""
    return _pages([f"https://r.example/{i}" for i in range(n)], [None] * n,
                  [f"page {i} body words" for i in range(n)])


def _doc_rows(n):
    import pyarrow as pa

    return pa.table({"doc_id": pa.array(range(n), pa.int64()),
                     "text": pa.array([f"t{i}" for i in range(n)])})


def _assert_store(out, n, num_partitions, key_col="url"):
    """Exactly n rows, n distinct keys, every marker from one partition count."""
    t = lin.read_output(out)
    assert t.num_rows == n
    assert len(set(t.column(key_col).to_pylist())) == n
    assert {r["num_partitions"] for r in lin.read_lineage(out)} == {num_partitions}


@pytest.mark.usefixtures("ray_session")
class TestResumeFalseClearsStore:
    """A ``resume=False`` rerun replaces the store: a partition the new run
    does not rewrite must not survive into it."""

    def test_extract_correct_rerun_with_fewer_partitions(self, tmp_path):
        import ray.data

        out = str(tmp_path / "store")
        pages = _text_pages(40)
        for parts, resume in ((16, True), (8, False)):
            extract_correct(ray.data.from_arrow(pages), corrector="null",
                            out_dir=out, num_partitions=parts,
                            resume=resume).to_pandas()
        _assert_store(out, 40, 8)

    def test_commit_by_key_rerun_with_fewer_partitions(self, tmp_path):
        import ray.data

        out = str(tmp_path / "store")
        for parts, resume in ((16, True), (8, False)):
            lin.commit_by_key(ray.data.from_arrow(_doc_rows(40)), out,
                              key_col="doc_id", num_partitions=parts,
                              resume=resume).to_pandas()
        _assert_store(out, 40, 8, key_col="doc_id")


@pytest.mark.usefixtures("ray_session")
class TestCommitByKeyResume:
    def _commit(self, out, **kw):
        import ray.data

        kw = {"key_col": "doc_id", "num_partitions": 8,
              "input_fingerprint": "A", "stage_versions": {"s": "1"}, **kw}
        return lin.commit_by_key(ray.data.from_arrow(_doc_rows(100)), out,
                                 **kw).to_pandas()

    @pytest.mark.parametrize("field, value", [("num_partitions", 4),
                                              ("input_fingerprint", "B"),
                                              ("stage_versions", {"s": "2"})])
    def test_mismatch_refused(self, tmp_path, field, value):
        import shutil

        out = str(tmp_path / "store")
        self._commit(out)
        lost = sorted(lin.committed_partitions(out))[0]
        shutil.rmtree(lin.partition_dir(out, lost))   # a crash left work to do
        n_left = lin.read_output(out).num_rows
        with pytest.raises(ValueError, match=field):
            self._commit(out, **{field: value})
        assert lin.read_output(out).num_rows == n_left

    def test_unmarked_partition_rewritten(self, tmp_path):
        import pyarrow as pa

        out = str(tmp_path / "store")
        self._commit(out)
        part = sorted(lin.committed_partitions(out))[0]
        pdir = lin.partition_dir(out, part)
        os.remove(os.path.join(pdir, lin.SUCCESS_NAME))   # died before its marker
        pq.write_table(pa.table({"doc_id": pa.array([-1], pa.int64()),
                                 "text": pa.array(["torn"])}),
                       os.path.join(pdir, "data.parquet"))
        s = self._commit(out)
        assert s["part"].tolist() == [part]
        assert sorted(lin.read_output(out).column("doc_id").to_pylist()) == \
            list(range(100))

    def test_csv_store_resumes(self, tmp_path):
        import shutil

        out = str(tmp_path / "store")
        self._commit(out, data_format="csv")
        lost = sorted(lin.committed_partitions(out))[-1]
        shutil.rmtree(lin.partition_dir(out, lost))
        s = self._commit(out, data_format="csv")
        assert s["part"].tolist() == [lost]
        assert sorted(lin.read_output(out).column("doc_id").to_pylist()) == \
            list(range(100))
        assert {r["data_format"] for r in lin.read_lineage(out)} == {"csv"}


@pytest.mark.usefixtures("ray_session")
class TestReadOutputDs:
    def test_rows_equal_read_output(self, tmp_path):
        import ray.data

        out = str(tmp_path / "store")
        lin.commit_by_key(ray.data.from_arrow(_doc_rows(50)), out,
                          key_col="doc_id", num_partitions=6).to_pandas()
        got = lin.read_output_ds(out).to_pandas().sort_values("doc_id")
        want = lin.read_output(out).to_pandas().sort_values("doc_id")
        assert got.reset_index(drop=True).equals(want.reset_index(drop=True))
        assert len(got) == 50

    def test_csv_only_store_refused(self, tmp_path):
        out = str(tmp_path / "store")
        lin.commit_partition(_doc_rows(3), out, 0, data_format="csv")
        with pytest.raises(FileNotFoundError):
            lin.read_output_ds(out)


class TestModelFingerprint:
    """``model_fingerprint`` hashes what decides the output bytes, and
    nothing else."""

    def test_npz_contents_not_zip_container(self, tmp_path):
        import zipfile

        from post_ocr_corrector_ray.pipelines.extract_correct import model_fingerprint

        alpha = " .abcdefghij"
        first = str(tmp_path / "a.npz")
        NeuralCorrectorModel.from_seed(alpha, seed=3, max_len=8, d_model=8,
                                       n_head=2, n_layers=1, d_linear=8).save(first)
        second = str(tmp_path / "b.npz")
        with zipfile.ZipFile(first) as src, zipfile.ZipFile(second, "w") as dst:
            for info in src.infolist():
                info.date_time = (1999, 1, 2, 3, 4, 6)
                dst.writestr(info, src.read(info.filename))
        with open(first, "rb") as f1, open(second, "rb") as f2:
            assert f1.read() != f2.read()
        fps = {model_fingerprint("neural", alphabet=alpha, model_path=p)
               for p in (first, second)}
        assert len(fps) == 1

    def test_dictionary_vocabulary_order(self):
        from post_ocr_corrector_ray.pipelines.extract_correct import model_fingerprint

        a = model_fingerprint("dictionary", vocab_ref={"fox": 3, "dog": 2})
        b = model_fingerprint("dictionary", vocab_ref={"dog": 2, "fox": 3})
        c = model_fingerprint("dictionary", vocab_ref={"dog": 2, "fox": 4})
        assert a == b != c

    def test_hparams_key_order(self):
        from __ray_entry__ import FLAGSHIP_ALPHABET, TINY_HPARAMS

        from post_ocr_corrector_ray.pipelines.extract_correct import model_fingerprint

        def fp(hparams):
            return model_fingerprint("neural", alphabet=FLAGSHIP_ALPHABET,
                                     seed=7, hparams=hparams)

        reordered = dict(reversed(list(TINY_HPARAMS.items())))
        assert list(reordered) != list(TINY_HPARAMS)
        assert fp(reordered) == fp(dict(TINY_HPARAMS))
        assert fp(dict(TINY_HPARAMS, d_linear=64)) != fp(TINY_HPARAMS)


@pytest.mark.usefixtures("ray_session")
class TestPartitionSchemeGuard:
    @pytest.mark.parametrize("mismatch", ["partition_scheme", "num_partitions",
                                          "input_fingerprint", "stage_versions",
                                          "data_format"],
                             ids=["scheme", "partitions", "fingerprint", "stages",
                                  "format"])
    def test_foreign_scheme_resume_refused(self, pages_file, tmp_path, mismatch):
        import json
        import shutil

        import ray.data

        out = str(tmp_path / "store")

        def run(num_partitions, **kw):
            return extract_correct(ray.data.read_parquet(pages_file),
                                   corrector="null", out_dir=out,
                                   num_partitions=num_partitions,
                                   input_fingerprint="A", **kw)

        run(8).to_pandas()
        parts = sorted(lin.committed_partitions(out))
        rerun_partitions = 8
        rerun_kw = {}
        if mismatch == "data_format":
            # half the store is lost, then the rerun picks csv
            for p in parts[len(parts) // 2:]:
                shutil.rmtree(lin.partition_dir(out, p))
            rerun_kw["data_format"] = "csv"
        elif mismatch == "num_partitions":
            # half the store is lost, then the rerun picks another count
            for p in parts:
                if p >= 4:
                    shutil.rmtree(lin.partition_dir(out, p))
            rerun_partitions = 4
        else:
            mpath = os.path.join(lin.partition_dir(out, parts[0]), lin.SUCCESS_NAME)
            rec = json.load(open(mpath))
            if mismatch == "partition_scheme":
                rec.pop("partition_scheme")  # a legacy/blake2b-era commit
            elif mismatch == "input_fingerprint":
                rec["input_fingerprint"] = "B"
            else:
                rec["stage_versions"] = {"extract": "0", "correct": "null/1"}
            json.dump(rec, open(mpath, "w"))
        with pytest.raises(ValueError, match=mismatch):
            run(rerun_partitions, **rerun_kw)
        # resume=False bypasses (fresh recompute over the same dir is allowed)
        run(rerun_partitions, resume=False, **rerun_kw).to_pandas()
        assert lin.read_output(out).num_rows == N_PAGES

    @pytest.mark.parametrize("change", ["seed", "hparams", "alphabet", "weights",
                                        "vocabulary"])
    def test_model_change_refused(self, tmp_path, change):
        """The committed stage versions name the model: a resume under the same
        model commits nothing, one under another model raises."""
        import ray
        import ray.data

        texts = ["the fox jumps", "over a lazy dog", "near quiet river banks"]
        pages = _pages([f"https://t.example/{i}" for i in range(len(texts))],
                       [None] * len(texts), texts)
        alpha = build_alphabet(set("".join(texts)))
        tiny = dict(max_len=8, d_model=8, n_head=2, n_layers=1, d_linear=8)
        if change in ("seed", "hparams", "alphabet"):
            before = dict(corrector="neural", alphabet=alpha, seed=7, hparams=tiny)
            after = {"seed": dict(before, seed=8),
                     "hparams": dict(before, hparams=dict(tiny, d_linear=16)),
                     "alphabet": dict(before, alphabet=build_alphabet(alpha + "!"))}[change]
        elif change == "weights":
            paths = [str(tmp_path / f"w{seed}.npz") for seed in (7, 8)]
            for seed, path in zip((7, 8), paths):
                NeuralCorrectorModel.from_seed(alpha, seed=seed, **tiny).save(path)
            before, after = [dict(corrector="neural", alphabet=alpha, model_path=p)
                             for p in paths]
        else:
            vocab = {"the": 3, "fox": 2, "dog": 2}
            before = dict(corrector="dictionary", vocab_ref=ray.put(vocab))
            after = dict(corrector="dictionary", vocab_ref=ray.put(dict(vocab, cat=2)))
        out = str(tmp_path / "store")

        def run(kw):
            return extract_correct(ray.data.from_arrow(pages), out_dir=out,
                                   num_partitions=2, concurrency=1, **kw).to_pandas()

        assert run(before)["n_rows"].sum() == len(texts)
        assert len(run(before)) == 0
        with pytest.raises(ValueError, match="stage_versions"):
            run(after)


def _hostile_pages():
    """(pages, expected extract_status per row): payloads that must become
    status rows, never exceptions, plus a url that appears twice."""
    import zlib

    para = "Caf\xe9 owners brew strong coffee every morning near the river."
    rows = [  # (url, html, text, status)
        ("https://h.example/no-payload", None, None, "no_payload"),
        ("https://h.example/text", None, "  padded \t text\n\nhere  ", "text_passthrough"),
        ("https://h.example/empty", b"", None, "empty"),
        ("https://h.example/latin1", f"<html><body><p>{para}</p></body></html>"
         .encode("latin-1"), None, "ok"),
        ("https://h.example/pdf-truncated", b"%PDF-1.4\nstream\n"
         + zlib.compress(b"BT (Hello world) Tj ET")[:8] + b"\nendstream", None,
         "pdf_undecodable"),
        ("https://h.example/pdf-no-stream", b"%PDF-1.4\n%%EOF", None, "pdf_undecodable"),
        ("https://h.example/nul", b"\x00" * 64, None, "no_content"),
        ("https://h.example/nav", b"<html><body><nav><a href='/'>Home</a> "
         b"<a href='/a'>About</a></nav></body></html>", None, "no_content"),
        ("https://h.example/latin1", None, "a second row under the same url",
         "text_passthrough"),
    ]
    urls, htmls, texts, statuses = map(list, zip(*rows))
    return _pages(urls, htmls, texts), statuses


@pytest.mark.usefixtures("ray_session")
class TestHostilePages:
    @pytest.mark.parametrize("corrector", ["null", "neural", "dictionary"])
    def test_hostile_rows_committed(self, tmp_path, corrector):
        """Every input row, a repeated url included, becomes one committed row
        with its status and the oracle's corrected text.  Duplicate urls are
        kept, not merged: both rows land in the url's one partition."""
        import ray
        import ray.data

        from __ray_entry__ import FLAGSHIP_ALPHABET, TINY_HPARAMS

        pages, statuses = _hostile_pages()
        vocab = {"coffee": 3, "river": 2, "second": 2, "padded": 2}
        model, kwargs = {
            "null": (None, {}),
            "neural": (NeuralCorrectorModel.from_seed(FLAGSHIP_ALPHABET, seed=7,
                                                      **TINY_HPARAMS),
                       dict(alphabet=FLAGSHIP_ALPHABET, seed=7, hparams=TINY_HPARAMS)),
            "dictionary": (DictionaryCorrector(vocab, min_frequency=2),
                           dict(vocab_ref=ray.put(vocab), min_frequency=2)),
        }[corrector]
        out = str(tmp_path / "store")
        extract_correct(ray.data.from_arrow(pages), corrector=corrector, out_dir=out,
                        num_partitions=4, concurrency=1, **kwargs).to_pandas()
        want = sorted(
            (url, status, oracle_extract_correct(pages.slice(i, 1), model)[url])
            for i, (url, status) in enumerate(zip(pages.column("url").to_pylist(),
                                                  statuses)))
        got = lin.read_output(out)
        assert sorted(zip(got.column("url").to_pylist(),
                          got.column("extract_status").to_pylist(),
                          got.column("corrected_text").to_pylist())) == want
        dup_parts = [p for p in lin.committed_partitions(out)
                     if "https://h.example/latin1" in pq.read_table(
                         os.path.join(lin.partition_dir(out, p), "data.parquet"),
                         columns=["url"]).column("url").to_pylist()]
        assert len(dup_parts) == 1
        assert sum(r["n_rows"] for r in lin.read_lineage(out)) == pages.num_rows


@pytest.mark.usefixtures("ray_session")
class TestFlagshipDictionaryCommittedIntermediate:
    def test_intermediate_is_lineage_store_and_resumes(self):
        """The twice-consumed extracted corpus must live in a committed
        partitioned parquet store (the 100-TB posture), not an object-store
        materialize — and a second run must resume (commit 0 new partitions)."""
        import shutil
        import sys

        sys.path.insert(0, os.getcwd())
        import __ray_entry__ as entry

        store = "/tmp/flagship_dict_corpus_n40"
        shutil.rmtree(store, ignore_errors=True)
        out1 = entry._flagship_dictionary(40)
        n1 = out1.count()
        assert n1 == 40
        recs = lin.read_lineage(store)
        # every NON-EMPTY partition commits with lineage (a 40-row input may
        # leave some of the 16 hash partitions empty — those never commit)
        assert len(recs) >= 10
        assert sum(r["n_rows"] for r in recs) == 40
        assert all(r["input_fingerprint"] == "synthetic_pages:40" for r in recs)
        mtimes = {r["partition"]: os.path.getmtime(
            os.path.join(lin.partition_dir(store, r["partition"]), "data.parquet"))
            for r in recs}
        out2 = entry._flagship_dictionary(40)  # resume: no partition rewritten
        assert out2.count() == n1
        for pid, mt in mtimes.items():
            assert os.path.getmtime(os.path.join(
                lin.partition_dir(store, pid), "data.parquet")) == mt
