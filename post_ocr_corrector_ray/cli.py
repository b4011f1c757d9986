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
| inference over pages | ``run`` (extract+correct, committed output) |
| ``CorrectorDataset`` + DataLoader | ``feed`` (collated epoch batches parquet) |
| ``NeuralCorrector.load_from_checkpoint`` | ``convert-ckpt`` (torch-free .ckpt → model dir) |
| — | ``synth`` (deterministic test pages) |
| — | ``commit`` (any parquet → resumable key-partitioned committed store) |

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

    args = p.parse_args(argv)
    if args.cmd == "run" and args.corrector != "null" and not args.model_dir:
        p.error(f"--model-dir is required for --corrector {args.corrector}")

    if args.cmd == "convert-ckpt":
        from .model.artifacts import save_model_dir
        from .model.ckpt_compat import checkpoint_to_weights
        from .model.neural import NeuralCorrectorModel

        with open(args.alphabet_file, encoding="utf-8") as f:
            alphabet = f.read().replace("\n", "")
        weights, _ = checkpoint_to_weights(args.ckpt, alphabet)
        save_model_dir(args.out_dir, NeuralCorrectorModel(alphabet, weights))
        print(json.dumps({"out_dir": args.out_dir, **weights.config.to_dict()}))
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

            ds = ray.data.read_parquet(args.corpus_parquet)
            # a ``corpus`` output counts its train split only, like the reference
            split = "train" if "split" in ds.schema().names else None
            corr = build_dictionary(ds, text_col=args.column, split=split,
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
