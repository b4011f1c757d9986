"""Command-line entry points — the engine's analog of the reference's scripts.

Reference script → subcommand mapping (a reference user can run every pipeline
they run today):

| reference script | subcommand |
|---|---|
| ``to_plain_text.py`` (markup → sentences) | ``parse-markup`` |
| ``all_chars.py`` | ``alphabet`` |
| ``make_messy_dataset.py`` | ``corpus`` (adds messy column) |
| ``make_split_csv.py`` | ``corpus`` (adds split column) |
| ``eval.py`` / ``null_corrector.py`` | ``eval`` |
| ``dictionary_corrector.py`` train | ``build-dictionary`` |
| inference over pages | ``run`` (extract+correct, committed output; ``--num-gpus``) |
| ``CorrectorDataset`` + DataLoader | ``feed`` (collated epoch batches parquet) |
| ``NeuralCorrector.load_from_checkpoint`` | ``convert-ckpt`` (torch-free .ckpt → model dir) |
| — | ``synth`` (deterministic test pages) |

The CLI owns the Ray session (``ray.init(address="local")``) unless its
caller already started one, which it reuses and leaves running; library code
never starts one.  All outputs are partitioned parquet.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_session(num_cpus: int | None):
    """(ray, started): ``started`` is False when the caller's session is
    reused — that session is the caller's to shut down, not ours."""
    import ray

    started = not ray.is_initialized()
    if started:
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray, started


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="post-ocr-corrector-ray", description=__doc__)
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("synth", help="write deterministic synthetic pages parquet")
    s.add_argument("out"); s.add_argument("--n", type=int, default=1000)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--golden", default=None)

    s = sub.add_parser("run", help="extract + correct pages → committed partitions")
    s.add_argument("pages"); s.add_argument("out_dir")
    s.add_argument("--corrector", choices=["null", "neural", "dictionary"], default="null")
    s.add_argument("--model-dir", default=None)
    s.add_argument("--partitions", type=int, default=32)
    s.add_argument("--no-resume", action="store_true")
    s.add_argument("--concurrency", type=int, default=4)
    s.add_argument("--num-gpus", type=float, default=None,
                   help="GPUs per corrector actor (passed to map_batches)")

    s = sub.add_parser("alphabet", help="distinct-char aggregate over a text column")
    s.add_argument("parquet"); s.add_argument("--column", default="text")
    s.add_argument("--out", default=None)

    s = sub.add_parser("corpus", help="pages → (url, clean, messy, split) corpus")
    s.add_argument("pages"); s.add_argument("out_dir")
    s.add_argument("--good-chars", default="abcdefghijklmnopqrstuvwxyz ")

    s = sub.add_parser("build-dictionary", help="train-split vocab → dictionary.json")
    s.add_argument("corpus_parquet"); s.add_argument("out_json")
    s.add_argument("--min-frequency", type=int, default=2)
    s.add_argument("--column", default="clean")

    s = sub.add_parser("eval", help="CER + percent-perfect of out vs clean columns")
    s.add_argument("parquet")
    s.add_argument("--out-col", default="corrected_text")
    s.add_argument("--clean-col", default="clean")
    s.add_argument("--banded", action="store_true")

    s = sub.add_parser("parse-markup", help="vertical-markup dir → sentences parquet")
    s.add_argument("markup_dir"); s.add_argument("out_dir")

    s = sub.add_parser("feed", help="corpus → collated training batches parquet "
                                    "(CorrectorDataset+DataLoader analog)")
    s.add_argument("corpus_parquet"); s.add_argument("out_dir")
    s.add_argument("--alphabet-file", required=True)
    s.add_argument("--split", default="train")
    s.add_argument("--batch-size", type=int, default=8)
    s.add_argument("--epoch", type=int, default=0)

    s = sub.add_parser("convert-ckpt", help="reference PTL .ckpt → engine model dir "
                                            "(torch-free)")
    s.add_argument("ckpt"); s.add_argument("alphabet_file"); s.add_argument("out_dir")

    s = sub.add_parser("commit", help="any parquet → resumable key-partitioned "
                                      "committed store (atomic + lineage)")
    s.add_argument("parquet"); s.add_argument("out_dir")
    s.add_argument("--key-col", required=True)
    s.add_argument("--partitions", type=int, default=32)

    s = sub.add_parser("dedup", help="documents parquet → near-dup-deduplicated "
                                     "resumable committed store (MinHash-LSH "
                                     "pairs → connected components → keep "
                                     "min-id representative)")
    s.add_argument("documents"); s.add_argument("out_dir")
    s.add_argument("--id-col", default="doc_id")
    s.add_argument("--text-col", default="text")
    s.add_argument("--threshold", type=float, default=0.5)
    s.add_argument("--partitions", type=int, default=32)
    s.add_argument("--against", default=None, metavar="STORE_DIR",
                   help="incremental ingest: dedup the new documents against "
                        "this existing committed survivor store (ids must be "
                        "globally unique AND append-only ordered — every "
                        "store id smaller than every new id — for "
                        "one-shot-equivalent representatives); the new "
                        "wave's survivors commit to OUT_DIR, the combined "
                        "corpus is STORE_DIR + OUT_DIR")

    s = sub.add_parser("tiers",
                       help="pages (extract first) or documents parquet → "
                            "per-language CCNet quality tiers over the text "
                            "→ resumable committed store partitioned by "
                            "(lang, tier) — the tier-extraction pipeline "
                            "as a user-facing artifact")
    s.add_argument("input"); s.add_argument("out_dir")
    s.add_argument("--mode", choices=["pages", "documents"], default="pages",
                   help="pages: DOM-heuristic extraction feeds the scorer; "
                        "documents: score the text column directly")
    s.add_argument("--id-col", default=None,
                   help="default: url (pages) / doc_id (documents)")
    s.add_argument("--lang-col", default="lang")
    s.add_argument("--text-col", default="text")
    s.add_argument("--tiers", type=int, default=3)
    s.add_argument("--shards-per-tier", type=int, default=4,
                   help="id-hash sub-shards inside each (lang, tier) slice — "
                        "without them a 100-TB corpus would cap at "
                        "n_langs x n_tiers giant partitions; shard count is "
                        "the resume/commit granularity per slice")
    s.add_argument("--partitions", type=int, default=32)
    s.add_argument("--no-resume", action="store_true")

    args = p.parse_args(argv)
    if args.cmd == "run" and args.corrector != "null" and not args.model_dir:
        p.error(f"--model-dir is required for --corrector {args.corrector}")

    if args.cmd == "convert-ckpt":
        from .model.ckpt_compat import convert_to_model_dir

        with open(args.alphabet_file, encoding="utf-8") as f:
            alphabet = f.read().replace("\n", "")
        hp = convert_to_model_dir(args.ckpt, alphabet, args.out_dir)
        print(json.dumps({"out_dir": args.out_dir, **hp}))
        return 0

    if args.cmd == "synth":
        from .sources.synth import write_pages_parquet

        write_pages_parquet(args.out, args.n, seed=args.seed, golden_path=args.golden)
        print(f"wrote {args.n} pages to {args.out}")
        return 0

    ray, started = _ray_session(args.num_cpus)
    import ray.data

    try:
        if args.cmd == "run":
            from .model.artifacts import load_dictionary
            from .pipelines.extract_correct import extract_correct

            kwargs: dict = {}
            if args.corrector == "neural":
                from .model.artifacts import read_alphabet

                kwargs = dict(alphabet=read_alphabet(args.model_dir),
                              model_path=os.path.join(args.model_dir, "weights.npz"))
            elif args.corrector == "dictionary":
                corr = load_dictionary(args.model_dir)
                kwargs = dict(vocab_ref=ray.put(corr.vocabulary),
                              min_frequency=corr.min_frequency)
            from .state.lineage import fingerprint_inputs

            summary = extract_correct(
                ray.data.read_parquet(args.pages), corrector=args.corrector,
                out_dir=args.out_dir, num_partitions=args.partitions,
                resume=not args.no_resume,
                concurrency=args.concurrency,
                num_gpus=args.num_gpus,
                input_fingerprint=fingerprint_inputs(args.pages), **kwargs).to_pandas()
            print(json.dumps({"partitions_committed": len(summary),
                              "rows": int(summary["n_rows"].sum()) if len(summary) else 0}))
        elif args.cmd == "alphabet":
            from .pipelines.corpus import compute_alphabet

            alpha = compute_alphabet(ray.data.read_parquet(args.parquet),
                                     text_col=args.column)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as f:
                    f.write(alpha)
            print(json.dumps({"alphabet_size": len(alpha), "alphabet": alpha}))
        elif args.cmd == "corpus":
            from .pipelines.corpus import corpus_from_pages

            ds = corpus_from_pages(ray.data.read_parquet(args.pages),
                                   good_chars=args.good_chars)
            ds.write_parquet(args.out_dir)
            print(f"corpus written to {args.out_dir}")
        elif args.cmd == "build-dictionary":
            from .pipelines.corpus import build_dictionary

            corr = build_dictionary(ray.data.read_parquet(args.corpus_parquet),
                                    text_col=args.column, split=None,
                                    min_frequency=args.min_frequency)
            corr.save(args.out_json)
            print(json.dumps({"vocab_size": len(corr.vocabulary)}))
        elif args.cmd == "eval":
            from .pipelines.evaluate import evaluate

            res = evaluate(ray.data.read_parquet(args.parquet),
                           out_col=args.out_col, correct_col=args.clean_col,
                           banded=args.banded)
            print(json.dumps({"mean_cer": res.mean_cer,
                              "percent_perfect": res.percent_perfect, "n": res.n}))
        elif args.cmd == "parse-markup":
            from .sources.markup import read_markup_dir

            read_markup_dir(args.markup_dir).write_parquet(args.out_dir)
            print(f"sentences written to {args.out_dir}")
        elif args.cmd == "commit":
            from .state.lineage import commit_by_key, fingerprint_inputs

            summary = commit_by_key(
                ray.data.read_parquet(args.parquet), args.out_dir,
                key_col=args.key_col, num_partitions=args.partitions,
                input_fingerprint=fingerprint_inputs(args.parquet)).to_pandas()
            print(json.dumps({"partitions_committed": len(summary),
                              "rows": int(summary["n_rows"].sum()) if len(summary) else 0}))
        elif args.cmd == "tiers":
            import pyarrow as pa
            import pyarrow.compute as pc

            from .stages.tiers import quality_tiers
            from .state.lineage import commit_by_key, fingerprint_inputs

            if args.mode == "pages":
                from .pipelines.extract_correct import extract_pipeline

                id_col = args.id_col or "url"
                ext = extract_pipeline(ray.data.read_parquet(args.input))

                def keep(batch: pa.Table) -> pa.Table:
                    t = batch.filter(pc.and_(
                        pc.is_valid(batch.column("extracted_text")),
                        pc.not_equal(batch.column("extracted_text"), "")))
                    return pa.table({id_col: t.column(id_col),
                                     args.lang_col: t.column(args.lang_col),
                                     "text": t.column("extracted_text")})

                ds = ext.map_batches(keep, batch_format="pyarrow")
            else:
                id_col = args.id_col or "doc_id"
                ds = ray.data.read_parquet(
                    args.input, columns=[id_col, args.lang_col, args.text_col])
                if args.text_col != "text":
                    ds = ds.map_batches(lambda b: b.rename_columns(
                        ["text" if n == args.text_col else n
                         for n in b.column_names]), batch_format="pyarrow")

            tiers = quality_tiers(ds, id_col=id_col, lang_col=args.lang_col,
                                  n=args.tiers)

            from .functions.hashing import polyhash_u64_array

            def with_key(batch: pa.Table) -> pa.Table:
                import numpy as np

                key = pc.binary_join_element_wise(
                    batch.column(args.lang_col).cast(pa.string()),
                    pc.cast(batch.column("tier"), pa.string()), "/tier-")
                shard = (polyhash_u64_array(
                    batch.column(id_col).cast(pa.string()).combine_chunks())
                    % np.uint64(max(args.shards_per_tier, 1))).astype(np.int64)
                key = pc.binary_join_element_wise(
                    key, pc.cast(pa.array(shard, pa.int64()), pa.string()),
                    "/s")
                return batch.append_column("lang_tier", key)

            summary = commit_by_key(
                tiers.map_batches(with_key, batch_format="pyarrow"),
                args.out_dir, key_col="lang_tier",
                num_partitions=args.partitions, resume=not args.no_resume,
                input_fingerprint=fingerprint_inputs(args.input)).to_pandas()
            print(json.dumps({"partitions_committed": len(summary),
                              "rows": int(summary["n_rows"].sum()) if len(summary) else 0}))
        elif args.cmd == "dedup":
            from .stages.components import near_dedup, near_dedup_incremental
            from .stages.dedup import (minhash_duplicate_pairs,
                                       minhash_duplicate_pairs_incremental,
                                       signature_store_tables)
            from .state.lineage import (commit_by_key, fingerprint_inputs,
                                        read_output, read_output_ds)

            import shutil

            lsh_params = dict(n_hashes=64, bands=16, k_shingle=5)

            def _sigstore_meta(store_dir):
                return os.path.join(store_dir, "_sigstore", "meta.json")

            # a persisted signature store is checked before any wave work:
            # a mismatch is refused with nothing shingled or written
            has_sigstore = bool(args.against) and os.path.exists(
                _sigstore_meta(args.against))
            if has_sigstore:
                with open(_sigstore_meta(args.against), encoding="utf-8") as f:
                    meta = json.load(f)
                want = {**lsh_params, "id_col": args.id_col}
                got = {k: meta.get(k) for k in want}
                if got != want:
                    raise SystemExit(
                        f"sigstore params {got} != run params {want}; "
                        "signatures are not comparable across parameter "
                        "sets — rerun without the persisted store")

            docs = ray.data.read_parquet(
                args.documents, columns=[args.id_col, args.text_col])

            def _pairs(ds):
                return minhash_duplicate_pairs(
                    ds, text_col=args.text_col, id_col=args.id_col,
                    jaccard_threshold=args.threshold, **lsh_params)

            # shingle the wave ONCE: the full wave's deterministic LSH state
            # goes to a tmp store first (idempotent: any stale tmp/final
            # stores are cleared — meta.json written LAST is the validity
            # marker), is read back for pair generation, and is filtered to
            # the survivors for the final persisted store — the wave's text
            # is never re-shingled
            tmp_store = os.path.join(args.out_dir, "_sigstore.tmp")
            fin_store = os.path.join(args.out_dir, "_sigstore")
            shutil.rmtree(tmp_store, ignore_errors=True)
            shutil.rmtree(fin_store, ignore_errors=True)
            wave_bands, wave_sigs = signature_store_tables(
                docs, text_col=args.text_col, id_col=args.id_col, **lsh_params)
            wave_bands.write_parquet(os.path.join(tmp_store, "bands"))
            wave_sigs.write_parquet(os.path.join(tmp_store, "sigs"))
            wave_bands = ray.data.read_parquet(os.path.join(tmp_store, "bands"))
            wave_sigs = ray.data.read_parquet(os.path.join(tmp_store, "sigs"))

            if args.against:
                id_col = args.id_col

                def _proj_id(batch):
                    return batch.select([id_col])

                store_ids = read_output_ds(args.against) \
                    .map_batches(_proj_id, batch_format="pyarrow")
                if has_sigstore:
                    # persisted signature store: candidate generation +
                    # verification never touch store TEXT again — the wave's
                    # cost is O(new docs), not O(store + new docs)
                    store_bands = ray.data.read_parquet(
                        os.path.join(args.against, "_sigstore", "bands"))
                    store_sigs = ray.data.read_parquet(
                        os.path.join(args.against, "_sigstore", "sigs"))
                    min_new_id = int(docs.min(args.id_col))
                    pairs = minhash_duplicate_pairs_incremental(
                        docs, store_bands, store_sigs,
                        min_new_id=min_new_id, text_col=args.text_col,
                        id_col=args.id_col,
                        jaccard_threshold=args.threshold,
                        new_bands=wave_bands, new_sigs=wave_sigs,
                        **lsh_params)
                else:
                    text_col = args.text_col

                    def _proj(batch):
                        return batch.select([id_col, text_col])

                    store = read_output_ds(args.against) \
                        .map_batches(_proj, batch_format="pyarrow")
                    pairs = _pairs(docs.union(store))
                surv = near_dedup_incremental(
                    docs, store_ids, pairs,
                    id_col=args.id_col, num_partitions=args.partitions)
            else:
                pairs_own = minhash_duplicate_pairs(
                    docs, text_col=args.text_col, id_col=args.id_col,
                    jaccard_threshold=args.threshold,
                    bands_ds=wave_bands, sigs_ds=wave_sigs, **lsh_params)
                surv = near_dedup(docs, pairs_own, id_col=args.id_col,
                                  num_partitions=args.partitions)
            summary = commit_by_key(
                surv, args.out_dir, key_col=args.id_col,
                num_partitions=args.partitions,
                input_fingerprint=fingerprint_inputs(args.documents),
                stage_versions={"dedup": "minhash-lsh-cc-v1"}).to_pandas()
            # persist the SURVIVORS' LSH state so the NEXT wave can run
            # --against this out_dir: filter the already-persisted wave
            # tables against the broadcast survivor-id set (wave-bounded —
            # NOT store-bounded; a co-partitioned semi join is unusable here
            # because band_hash is a full-range int64 that would be promoted
            # to float64 through the join union), meta LAST
            import pyarrow.compute as _pc

            surv_id_tbl = read_output(args.out_dir).select([args.id_col])
            ids_ref = ray.put(surv_id_tbl.column(args.id_col).combine_chunks())

            def _keep_surv(batch):
                return batch.filter(_pc.is_in(batch.column(args.id_col),
                                              value_set=ray.get(ids_ref)))

            wave_bands.map_batches(_keep_surv, batch_format="pyarrow") \
                .write_parquet(os.path.join(fin_store, "bands"))
            wave_sigs.map_batches(_keep_surv, batch_format="pyarrow") \
                .write_parquet(os.path.join(fin_store, "sigs"))
            shutil.rmtree(tmp_store, ignore_errors=True)
            with open(_sigstore_meta(args.out_dir), "w", encoding="utf-8") as f:
                json.dump({**lsh_params, "id_col": args.id_col,
                           "threshold": args.threshold}, f)
            print(json.dumps({"partitions_committed": len(summary),
                              "rows": int(summary["n_rows"].sum()) if len(summary) else 0}))
        elif args.cmd == "feed":
            from .pipelines.training import epoch_feed

            with open(args.alphabet_file, encoding="utf-8") as f:
                alphabet = f.read().replace("\n", "")
            ds = epoch_feed(ray.data.read_parquet(args.corpus_parquet),
                            alphabet=alphabet, split=args.split or None,
                            batch_size=args.batch_size, epoch=args.epoch)
            ds.write_parquet(args.out_dir)
            print(f"collated batches written to {args.out_dir}")
    finally:
        if started:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
