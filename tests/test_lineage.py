"""The committed store's contract (state/lineage.py): atomic
partition commits, the marker files as the manifest, the resume guard and
the input fingerprint.  Pure filesystem tests — no Ray session."""

import json
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from post_ocr_corrector_ray.state import lineage as lin

STAGES = {"extract": "1", "correct": "null/1"}


def _table(n: int, start: int = 0) -> pa.Table:
    return pa.table({"url": pa.array([f"u{i}" for i in range(start, start + n)]),
                     "text": pa.array([f"t{i}" for i in range(start, start + n)])})


def _store(out: str, parts=(0, 1, 2), **kw) -> None:
    kw = {"input_fingerprint": "A", "stage_versions": STAGES,
          "num_partitions": 4, **kw}
    for p in parts:
        lin.commit_partition(_table(3, start=10 * p), out, p, **kw)


def _rewrite_marker(out: str, part: int, **fields) -> None:
    path = os.path.join(lin.partition_dir(out, part), lin.SUCCESS_NAME)
    with open(path, encoding="utf-8") as f:
        rec = json.load(f)
    for k, v in fields.items():
        if v is None:
            rec.pop(k, None)
        else:
            rec[k] = v
    with open(path, "w", encoding="utf-8") as f:
        json.dump(rec, f)


class TestCommitPartition:
    def test_parquet_roundtrip_and_marker_fields(self, tmp_path):
        out = str(tmp_path / "s")
        rec = lin.commit_partition(_table(5), out, 3, input_fingerprint="fp",
                                   stage_versions=STAGES, num_partitions=8,
                                   metrics={"n": 1})
        assert lin.read_output(out).equals(_table(5))
        assert lin.read_lineage(out) == [rec]
        assert rec["partition"] == 3 and rec["n_rows"] == 5
        assert rec["partition_scheme"] == lin.PARTITION_SCHEME
        assert rec["num_partitions"] == 8
        assert rec["input_fingerprint"] == "fp"
        assert rec["stage_versions"] == STAGES and rec["metrics"] == {"n": 1}
        assert rec["data_format"] == "parquet"

    def test_recommit_replaces_data_and_leaves_no_tmp(self, tmp_path):
        out = str(tmp_path / "s")
        lin.commit_partition(_table(2), out, 0)
        lin.commit_partition(_table(7, start=100), out, 0)
        assert lin.read_output(out).equals(_table(7, start=100))
        assert sorted(os.listdir(lin.partition_dir(out, 0))) == \
            ["_SUCCESS.json", "data.parquet"]

    def test_commit_sweeps_a_crashed_commits_temp_files(self, tmp_path):
        """A commit that died before its renames left a temp pair; the
        rerun's commit must leave the store as a clean run writes it."""
        out = str(tmp_path / "s")
        pdir = lin.partition_dir(out, 0)
        os.makedirs(pdir)
        pq.write_table(_table(4), os.path.join(pdir, ".tmp-deadbeef.parquet"))
        with open(os.path.join(pdir, ".tmp-deadbeef.json"), "w") as f:
            f.write("{")
        lin.commit_partition(_table(2), out, 0)
        assert sorted(os.listdir(pdir)) == ["_SUCCESS.json", "data.parquet"]
        assert lin.read_output(out).equals(_table(2))

    def test_num_partitions_is_keyword_only(self, tmp_path):
        with pytest.raises(TypeError):
            lin.commit_partition(_table(1), str(tmp_path / "s"), 0, "",
                                 None, None, "parquet", 8)

    def test_marker_keeps_non_ascii_metadata(self, tmp_path):
        out = str(tmp_path / "s")
        lin.commit_partition(_table(1), out, 0,
                             stage_versions={"correct": "wörterbuch/1"},
                             metrics={"note": "日本語"})
        rec = lin.read_lineage(out)[0]
        assert rec["stage_versions"] == {"correct": "wörterbuch/1"}
        assert rec["metrics"] == {"note": "日本語"}


class TestClearPartitions:
    def test_only_partition_dirs_are_removed(self, tmp_path):
        out = str(tmp_path / "s")
        _store(out, parts=(0, 7))
        os.makedirs(os.path.join(out, "part=00003"))   # uncommitted leftover
        os.makedirs(os.path.join(out, "_sigstore"))
        os.makedirs(os.path.join(out, "part=notes"))
        with open(os.path.join(out, "README"), "w") as f:
            f.write("x")
        lin.clear_partitions(out)
        assert sorted(os.listdir(out)) == ["README", "_sigstore", "part=notes"]
        lin.clear_partitions(str(tmp_path / "missing"))   # no store: no-op


class TestCommittedPartitions:
    def test_missing_dir_is_empty(self, tmp_path):
        missing = str(tmp_path / "nope")
        assert lin.committed_partitions(missing) == frozenset()
        assert lin.read_lineage(missing) == []

    def test_data_without_marker_is_not_committed(self, tmp_path):
        out = str(tmp_path / "s")
        _store(out, parts=(0, 1))
        os.remove(os.path.join(lin.partition_dir(out, 1), lin.SUCCESS_NAME))
        assert lin.committed_partitions(out) == frozenset({0})
        assert lin.read_output(out).num_rows == 3

    def test_read_output_refuses_empty_store(self, tmp_path):
        out = str(tmp_path / "s")
        os.makedirs(os.path.join(out, "part=00000"))
        pq.write_table(_table(2), os.path.join(out, "part=00000", "data.parquet"))
        with pytest.raises(FileNotFoundError):
            lin.read_output(out)

    def test_lineage_and_output_follow_partition_order(self, tmp_path):
        out = str(tmp_path / "s")
        _store(out, parts=(11, 2, 7))
        assert [r["partition"] for r in lin.read_lineage(out)] == [2, 7, 11]
        assert lin.read_output(out).column("url").to_pylist() == \
            ["u20", "u21", "u22", "u70", "u71", "u72", "u110", "u111", "u112"]


class TestCheckPartitionScheme:
    def test_matching_store_accepted(self, tmp_path):
        out = str(tmp_path / "s")
        _store(out)
        lin.check_partition_scheme(out, num_partitions=4, input_fingerprint="A",
                                   stage_versions=dict(STAGES))

    def test_missing_store_accepted(self, tmp_path):
        lin.check_partition_scheme(str(tmp_path / "nope"), num_partitions=4,
                                   input_fingerprint="A", stage_versions=STAGES)

    @pytest.mark.parametrize("field, value", [
        ("num_partitions", 8),
        ("input_fingerprint", "B"),
        ("stage_versions", {"extract": "1", "correct": "neural/1"}),
    ])
    def test_mismatch_refused(self, tmp_path, field, value):
        out = str(tmp_path / "s")
        _store(out)
        current = {"num_partitions": 4, "input_fingerprint": "A",
                   "stage_versions": STAGES, field: value}
        with pytest.raises(ValueError, match=field):
            lin.check_partition_scheme(out, **current)

    def test_legacy_csv_marker_refused(self, tmp_path):
        out = str(tmp_path / "s")
        _store(out)
        _rewrite_marker(out, 0, data_format="csv")
        with pytest.raises(ValueError, match="data_format"):
            lin.check_partition_scheme(out)

    def test_one_foreign_marker_is_enough(self, tmp_path):
        out = str(tmp_path / "s")
        _store(out)
        _rewrite_marker(out, 2, input_fingerprint="B")
        with pytest.raises(ValueError, match=r"partition 2 .*'B'.*'A'"):
            lin.check_partition_scheme(out, input_fingerprint="A")

    def test_none_arguments_are_not_checked(self, tmp_path):
        out = str(tmp_path / "s")
        _store(out)
        lin.check_partition_scheme(out)
        lin.check_partition_scheme(out, num_partitions=4)

    def test_marker_without_num_partitions_not_checked(self, tmp_path):
        out = str(tmp_path / "s")
        _store(out, num_partitions=None)
        assert all(r["num_partitions"] is None for r in lin.read_lineage(out))
        lin.check_partition_scheme(out, num_partitions=16)
        _rewrite_marker(out, 0, num_partitions=None)   # field absent entirely
        lin.check_partition_scheme(out, num_partitions=16)

    def test_marker_without_scheme_is_legacy_and_refused(self, tmp_path):
        out = str(tmp_path / "s")
        _store(out)
        _rewrite_marker(out, 1, partition_scheme=None)
        with pytest.raises(ValueError, match="blake2b-v1"):
            lin.check_partition_scheme(out)

    def test_refusal_names_the_way_out(self, tmp_path):
        """The way out a CLI user has: a fresh out_dir, or ``--no-resume``
        for ``cli run`` (no command takes ``resume=False``)."""
        out = str(tmp_path / "s")
        _store(out)
        with pytest.raises(ValueError, match=re.escape(
                "resuming would corrupt the output. "
                "Use a fresh out_dir (or, for `cli run`, --no-resume).")):
            lin.check_partition_scheme(out, num_partitions=2)


class TestFingerprintInputs:
    def test_directory_equals_its_parquet_files(self, tmp_path):
        d = tmp_path / "in"
        d.mkdir()
        for name, n in (("a.parquet", 3), ("b.parquet", 5)):
            pq.write_table(_table(n), str(d / name))
        (d / "notes.txt").write_text("ignored")
        files = [str(d / "b.parquet"), str(d / "a.parquet")]
        assert lin.fingerprint_inputs(str(d)) == lin.fingerprint_inputs(files)
        assert lin.fingerprint_inputs(files) == lin.fingerprint_inputs(files[::-1])

    def test_size_change_changes_fingerprint(self, tmp_path):
        path = str(tmp_path / "a.parquet")
        pq.write_table(_table(3), path)
        before = lin.fingerprint_inputs(path)
        pq.write_table(_table(300), path)
        assert lin.fingerprint_inputs(path) != before

    def test_single_file_and_flat_directory_keep_their_values(self, tmp_path):
        """Digests taken before stores became inputs: a file is named by its
        basename and a flat directory lists its ``*.parquet`` files, so
        existing markers still match."""
        (tmp_path / "pages.parquet").write_bytes(b"x" * 100)
        flat = tmp_path / "flat"
        flat.mkdir()
        (flat / "a.parquet").write_bytes(b"y" * 10)
        (flat / "b.parquet").write_bytes(b"y" * 20)
        (flat / "notes.txt").write_text("ignored")
        assert lin.fingerprint_inputs(str(tmp_path / "pages.parquet")) == \
            "fcf8aeaa1f073f21b33451a8"
        assert lin.fingerprint_inputs(str(flat)) == "c444e31b61dfd0439170e84e"

    def test_stores_with_different_contents_differ(self, tmp_path):
        """Every file of a store is a ``data.parquet``: named by basename,
        all stores hashed alike.  Relative names tell them apart, and only
        committed partitions count."""
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        _store(a, parts=(0, 1))
        _store(b, parts=(0, 3))
        assert lin.fingerprint_inputs(a) != lin.fingerprint_inputs(b)
        before = lin.fingerprint_inputs(a)
        os.makedirs(lin.partition_dir(a, 2))
        pq.write_table(_table(9), os.path.join(lin.partition_dir(a, 2), "data.parquet"))
        assert lin.fingerprint_inputs(a) == before
        _store(a, parts=(2,))
        assert lin.fingerprint_inputs(a) != before


class TestInputFiles:
    def test_store_lists_its_committed_partitions(self, tmp_path):
        out = str(tmp_path / "s")
        _store(out, parts=(11, 2))
        os.makedirs(lin.partition_dir(out, 5))   # uncommitted
        assert lin.input_files(out) == [
            os.path.join(lin.partition_dir(out, p), "data.parquet") for p in (2, 11)]

    def test_directory_lists_its_files_at_any_depth(self, tmp_path):
        d = tmp_path / "in"
        (d / "nested").mkdir(parents=True)
        (d / ".hidden").mkdir()
        for rel in ("b.parquet", "nested/a.parquet", ".tmp-1.parquet",
                    ".hidden/c.parquet", "notes.txt"):
            (d / rel).write_bytes(b"z")
        assert lin.input_files(str(d)) == [str(d / "b.parquet"),
                                           str(d / "nested" / "a.parquet")]
        assert lin.input_files(str(d), suffix="") == [
            str(d / "b.parquet"), str(d / "nested" / "a.parquet"), str(d / "notes.txt")]
        assert lin.input_files(str(d / "notes.txt")) == [str(d / "notes.txt")]

    def test_empty_listing_refused(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no committed partitions"):
            lin.input_files(str(tmp_path))


class TestWriteAtomic:
    @pytest.mark.parametrize("content", [_table(2), "text", {"k": [1, "ü"]},
                                         lambda f: f.write(b"raw")],
                             ids=["parquet", "text", "json", "callable"])
    def test_round_trip_leaves_no_temp_file(self, tmp_path, content):
        path = tmp_path / "out.bin"
        lin.write_atomic(str(path), content)
        assert os.listdir(tmp_path) == ["out.bin"]
        if isinstance(content, pa.Table):
            assert pq.read_table(str(path)).equals(content)
        elif isinstance(content, str):
            assert path.read_text(encoding="utf-8") == content
        elif isinstance(content, dict):
            assert json.loads(path.read_text(encoding="utf-8")) == content
        else:
            assert path.read_bytes() == b"raw"

    def test_failed_write_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "dictionary.json"
        lin.write_atomic(str(path), {"old": 1})

        def torn(f):
            f.write(b'{"new": ')
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            lin.write_atomic(str(path), torn)
        assert json.loads(path.read_text(encoding="utf-8")) == {"old": 1}
