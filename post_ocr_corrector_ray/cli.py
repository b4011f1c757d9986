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
never starts one.  Every dataset a command writes (``run``, ``commit``,
``corpus``, ``feed``, ``parse-markup``) is a committed store
(``state/lineage.py``): a rerun into the same ``out_dir`` commits only the
missing partitions, and one over another input or options is refused (start
over in a fresh ``out_dir``).  Every input is read through one listing: a
store's committed partitions, a directory's parquet files, or a file.
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


def _read(path: str):
    """A command's parquet input: the files ``input_files`` lists, without
    the hive ``part`` column Ray would add to a store's files."""
    import ray.data

    from .state.lineage import input_files

    return ray.data.read_parquet(input_files(path), partitioning=None)


def _report(summary) -> None:
    """The summary line of every dataset command (one row per commit)."""
    print(json.dumps({"partitions_committed": len(summary),
                      "rows": int(summary["n_rows"].sum()) if len(summary) else 0}))


def _commit(ds, out_dir: str, fingerprint: str, key_col: str, *,
            num_partitions: int = 32, **options) -> None:
    """Commit ``ds`` into the store ``out_dir`` keyed on ``key_col``, with
    ``options`` in its markers, and print the summary.  An output without
    rows becomes one empty partition with the output's schema."""
    import pandas as pd

    from .state import lineage as lin

    kw = dict(key_col=key_col, num_partitions=num_partitions,
              input_fingerprint=fingerprint, options=options)
    summary = lin.commit_by_key(ds, out_dir, **kw).to_pandas()
    if not lin.committed_partitions(out_dir):
        summary = pd.DataFrame([lin.commit_empty(ds.schema(), out_dir, **kw)])
    _report(summary)


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
    from .state.lineage import fingerprint_inputs

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
            _report(extract_correct(
                _read(args.pages), corrector=args.corrector,
                out_dir=args.out_dir, num_partitions=args.partitions,
                resume=not args.no_resume,
                concurrency=args.concurrency,
                input_fingerprint=fingerprint_inputs(args.pages), **kwargs).to_pandas())
        elif args.cmd == "alphabet":
            from .pipelines.corpus import compute_alphabet

            alpha = compute_alphabet(_read(args.parquet), text_col=args.column)
            if args.out:
                from .state.lineage import write_atomic

                write_atomic(args.out, alpha)
            print(json.dumps({"alphabet_size": len(alpha), "alphabet": alpha}))
        elif args.cmd == "corpus":
            from .pipelines.corpus import corpus_from_pages

            _commit(corpus_from_pages(_read(args.pages), good_chars=args.good_chars),
                    args.out_dir, fingerprint_inputs(args.pages), "url",
                    good_chars=args.good_chars)
        elif args.cmd == "build-dictionary":
            from .pipelines.corpus import build_dictionary

            ds = _read(args.corpus_parquet)
            # a ``corpus`` output counts its train split only, like the reference
            split = "train" if "split" in ds.schema().names else None
            corr = build_dictionary(ds, text_col=args.column, split=split,
                                    min_frequency=args.min_frequency)
            corr.save(args.out_json)
            print(json.dumps({"vocab_size": len(corr.vocabulary)}))
        elif args.cmd == "eval":
            from .pipelines.evaluate import evaluate

            res = evaluate(_read(args.parquet),
                           out_col=args.out_col, correct_col=args.clean_col,
                           banded=args.banded)
            print(json.dumps({"mean_cer": res.mean_cer,
                              "percent_perfect": res.percent_perfect, "n": res.n}))
        elif args.cmd == "parse-markup":
            from .sources.markup import read_markup_dir

            # every file is markup: the listing and its fingerprint take no suffix
            _commit(read_markup_dir(args.markup_dir), args.out_dir,
                    fingerprint_inputs(args.markup_dir, suffix=""), "path")
        elif args.cmd == "commit":
            _commit(_read(args.parquet), args.out_dir, fingerprint_inputs(args.parquet),
                    args.key_col, num_partitions=args.partitions)
        elif args.cmd == "feed":
            from .pipelines.training import epoch_feed

            with open(args.alphabet_file, encoding="utf-8") as f:
                alphabet = f.read().replace("\n", "")
            options = dict(alphabet=alphabet, split=args.split or None,
                           batch_size=args.batch_size, epoch=args.epoch)
            _commit(epoch_feed(_read(args.corpus_parquet), **options), args.out_dir,
                    fingerprint_inputs(args.corpus_parquet), "batch_id", **options)
    finally:
        if started:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
