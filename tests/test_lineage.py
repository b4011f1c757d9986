"""The committed store's contract (state/lineage.py): atomic
partition commits, the marker files as the manifest, the resume guard and
the input fingerprint.  Pure filesystem tests — no Ray session."""

import json
import os

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

    def test_csv_roundtrip(self, tmp_path):
        out = str(tmp_path / "s")
        lin.commit_partition(_table(4), out, 0, data_format="csv")
        assert os.path.exists(os.path.join(out, "part=00000", "data.csv"))
        back = lin.read_output(out)
        assert back.column("url").to_pylist() == _table(4).column("url").to_pylist()

    def test_unknown_format_commits_nothing(self, tmp_path):
        out = str(tmp_path / "s")
        with pytest.raises(ValueError, match="data_format"):
            lin.commit_partition(_table(2), out, 0, data_format="orc")
        assert lin.committed_partitions(out) == frozenset()

    def test_recommit_replaces_data_and_leaves_no_tmp(self, tmp_path):
        out = str(tmp_path / "s")
        lin.commit_partition(_table(2), out, 0)
        lin.commit_partition(_table(7, start=100), out, 0)
        assert lin.read_output(out).equals(_table(7, start=100))
        assert sorted(os.listdir(lin.partition_dir(out, 0))) == \
            ["_SUCCESS.json", "data.parquet"]

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
        ("data_format", "csv"),
    ])
    def test_mismatch_refused(self, tmp_path, field, value):
        out = str(tmp_path / "s")
        _store(out)
        current = {"num_partitions": 4, "input_fingerprint": "A",
                   "stage_versions": STAGES, field: value}
        with pytest.raises(ValueError, match=field):
            lin.check_partition_scheme(out, **current)

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
        out = str(tmp_path / "s")
        _store(out)
        with pytest.raises(ValueError, match="resume=False"):
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
