"""BPE tokenizer TRAINING and application — vocabulary induction as a
data-pipeline stage (Sennrich, Haddow & Birch 2016, the word-level merge
algorithm GPT-2/SentencePiece descend from).

The reference repo tokenizes at character level (src/model/alphabet.py); a
training-data engine additionally needs to LEARN a subword vocabulary from
the corpus it just cleaned.  Scale posture (train on the aggregated small
side, apply everywhere):

- The only corpus-sized pass is word counting — the existing word-frequency
  exchange (partial counts inside ``map_batches``, one coarse-hash groupby;
  ``stages/shuffle.py``).  At 100 TB nothing else touches full data.
- Merge LEARNING runs on the aggregated ``(token, frequency)`` table — the
  post-aggregation small side (distinct-word-sized, optionally truncated to
  the ``top_words`` most frequent, the standard practice).  It is
  driver-side and fully deterministic: the best pair is (max summed count,
  ties → lexicographically smallest), so two runs — or an independent
  reimplementation — learn the identical merge list.
- APPLICATION is distributed and memoized per distinct word per batch:
  tokenize, ``np.unique``, encode each distinct word once, scatter counts
  back.  The merge list broadcasts via ``ray.put``.

Application semantics (shared with the generated DuckDB twin): a word is
the symbol sequence ``[*chars, "</w>"]``; repeatedly merge the
lowest-rank adjacent pair present until none applies.  Merging all
occurrences of a pair left-to-right simultaneously (this implementation)
is provably equivalent to merging one leftmost occurrence at a time and
re-picking the best rank (the recursive-CTE twin's step): a merge of pair
(a, b) can create only pairs involving the new symbol ``a+b``, and any
learned merge involving ``a+b`` was necessarily learned AFTER (a, b), so
it has a higher rank and never preempts the remaining (a, b) occurrences.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

END = "</w>"


# --- training ----------------------------------------------------------------


def bpe_train_from_counts(words: list[str], counts: np.ndarray,
                          n_merges: int, *,
                          min_pair_count: int = 2) -> list[tuple[str, str, int]]:
    """Learn up to ``n_merges`` merges from a (distinct word, count) census.

    Deterministic: best pair = (max summed count, tie → lexicographically
    smallest (left, right)).  Stops early when the best pair's count falls
    below ``min_pair_count`` (merging singleton pairs only memorizes the
    sample).  Returns ``[(left, right, pair_count), ...]`` in merge order.
    """
    syms: list[list[str]] = [[*w, END] for w in words]
    cnt = np.asarray(counts, dtype=np.int64)
    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        pair_counts: dict[tuple[str, str], int] = {}
        for s, c in zip(syms, cnt):
            for i in range(len(s) - 1):
                p = (s[i], s[i + 1])
                pair_counts[p] = pair_counts.get(p, 0) + int(c)
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), n = best
        if n < min_pair_count:
            break
        merges.append((a, b, n))
        syms = [_merge_once(s, a, b) for s in syms]
    return merges


def _merge_once(s: list[str], a: str, b: str) -> list[str]:
    """Merge every (a, b) adjacency left-to-right simultaneously (the
    standard single-pass greedy merge)."""
    out: list[str] = []
    i = 0
    while i < len(s):
        if i < len(s) - 1 and s[i] == a and s[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(s[i])
            i += 1
    return out


def bpe_learn(vocab: ray.data.Dataset, n_merges: int, *,
              token_col: str = "token", freq_col: str = "frequency",
              top_words: int | None = None,
              min_pair_count: int = 2) -> pa.Table:
    """Learn merges from an aggregated (token, frequency) Dataset (the
    output of the word-frequency exchange).  The collect here is the
    POST-aggregation small side — distinct words, not corpus rows; cap it
    with ``top_words`` (frequency desc, token asc) when the census itself
    is large.  Returns a merge table (rank, left, right, pair_count)."""
    import ray as _ray

    refs = vocab.select_columns([token_col, freq_col]).to_arrow_refs()
    parts = [tb for tb in (_ray.get(r) for r in refs) if tb.num_rows]
    if not parts:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "left": pa.array([], pa.string()),
                         "right": pa.array([], pa.string()),
                         "pair_count": pa.array([], pa.int64())})
    t = pa.concat_tables(parts)
    words = np.asarray(t.column(token_col).to_pylist())
    counts = t.column(freq_col).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    order = np.lexsort((words, -counts))
    if top_words is not None:
        order = order[:top_words]
    merges = bpe_train_from_counts(list(words[order]), counts[order],
                                   n_merges, min_pair_count=min_pair_count)
    return pa.table({
        "rank": pa.array(np.arange(len(merges), dtype=np.int64)),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "pair_count": pa.array([m[2] for m in merges], pa.int64())})


# --- application -------------------------------------------------------------


def bpe_encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Apply learned merges to one word: repeatedly merge the lowest-rank
    adjacent pair present (all occurrences, left-to-right) until none of
    the word's adjacencies is a learned merge."""
    s = [*word, END]
    while len(s) > 1:
        best_rank, best_pair = None, None
        for i in range(len(s) - 1):
            r = ranks.get((s[i], s[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (s[i], s[i + 1])
        if best_pair is None:
            break
        s = _merge_once(s, *best_pair)
    return s


def bpe_token_counts(docs: ray.data.Dataset, merges: pa.Table, *,
                     id_col: str = "doc_id",
                     text_col: str = "text") -> ray.data.Dataset:
    """Distributed BPE application: per document, the number of BPE tokens
    (and raw whitespace words) under the learned merges.  The merge list
    broadcasts once; each batch tokenizes, deduplicates words with
    ``np.unique`` and encodes each DISTINCT word exactly once (word reuse
    inside a batch is the norm in natural corpora), then scatters lengths
    back with the inverse index — no per-occurrence Python.
    Returns (doc_id, n_words, n_bpe_tokens)."""
    import ray as _ray

    ranks = {(left, right): r for r, left, right in
             zip(merges.column("rank").to_pylist(),
                 merges.column("left").to_pylist(),
                 merges.column("right").to_pylist())}
    ranks_ref = _ray.put(ranks)

    def apply(batch: pa.Table) -> pa.Table:
        rk = _ray.get(ranks_ref)
        texts = batch.column(text_col).to_pylist()
        words_per_doc = [t.strip().split() if t is not None else []
                         for t in texts]
        flat = [w for ws in words_per_doc for w in ws]
        doc_of = np.repeat(np.arange(len(texts)),
                           [len(ws) for ws in words_per_doc])
        n_words = np.asarray([len(ws) for ws in words_per_doc], np.int64)
        n_bpe = np.zeros(len(texts), np.int64)
        if flat:
            uniq, inv = np.unique(np.asarray(flat, dtype=object),
                                  return_inverse=True)
            lens = np.asarray([len(bpe_encode_word(w, rk)) for w in uniq],
                              np.int64)
            np.add.at(n_bpe, doc_of, lens[inv])
        return pa.table({
            id_col: batch.column(id_col),
            "n_words": pa.array(n_words, pa.int64()),
            "n_bpe_tokens": pa.array(n_bpe, pa.int64())})

    return docs.map_batches(apply, batch_format="pyarrow")


# --- generated DuckDB twin ----------------------------------------------------


def _sq(s: str) -> str:
    return s.replace("'", "''")


def bpe_counts_oracle_sql(merges: pa.Table, *, table: str = "documents",
                          id_col: str = "doc_id",
                          text_col: str = "text") -> str:
    """Generated DuckDB twin of ``bpe_token_counts`` with the learned
    merges inlined: distinct words re-derived with the shared tokenizer,
    then a recursive CTE applies, per word per step, ONE leftmost
    occurrence of the lowest-rank pair present (space-delimited symbol
    states; symbols never contain spaces, so ``' a b '`` matches exactly
    one adjacency).  One-at-a-time leftmost merging is equivalent to the
    engine's all-occurrences pass — see the module docstring.  Final BPE
    length = symbols remaining; per-document count = sum over its words."""
    rows = ",".join(
        f"({r},'{_sq(le)}','{_sq(ri)}')" for r, le, ri in
        zip(merges.column("rank").to_pylist(),
            merges.column("left").to_pylist(),
            merges.column("right").to_pylist())) or "(NULL,NULL,NULL)"
    empty_merges = merges.num_rows == 0
    return f"""
        WITH RECURSIVE merges(rank, a, b) AS (VALUES {rows}),
        docs AS (SELECT {id_col},
                        CASE WHEN trim({text_col}) = ''
                             THEN CAST([] AS VARCHAR[])
                             ELSE regexp_split_to_array(trim({text_col}),
                                                        '\\s+')
                        END AS ws
                 FROM {table}),
        occ AS (SELECT {id_col}, unnest(ws) AS w FROM docs),
        uniq AS (SELECT DISTINCT w FROM occ),
        init AS (SELECT w,
                        ' ' || array_to_string(
                            list_transform(range(1, length(w) + 1),
                                           i -> w[i:i]), ' ')
                            || ' {END} ' AS state
                 FROM uniq),
        enc AS (
            SELECT w, state, FALSE AS done FROM init
            UNION ALL
            SELECT e.w,
                   CASE WHEN best.rank IS NULL THEN e.state
                        ELSE substr(e.state, 1, best.pos - 1)
                             || ' ' || best.a || best.b || ' '
                             || substr(e.state,
                                       best.pos + length(best.pat))
                        END,
                   best.rank IS NULL
            FROM enc e
            LEFT JOIN LATERAL (
                SELECT m.rank, m.a, m.b,
                       ' ' || m.a || ' ' || m.b || ' ' AS pat,
                       position((' ' || m.a || ' ' || m.b || ' ')
                                IN e.state) AS pos
                FROM merges m
                WHERE {'FALSE' if empty_merges else
                       "position((' ' || m.a || ' ' || m.b || ' ') IN e.state) > 0"}
                ORDER BY m.rank LIMIT 1) best ON TRUE
            WHERE NOT e.done),
        wlen AS (SELECT w,
                        CAST(length(trim(state))
                             - length(replace(trim(state), ' ', ''))
                             + 1 AS BIGINT) AS n_sym
                 FROM enc WHERE done),
        per_doc AS (SELECT o.{id_col},
                           CAST(count(*) AS BIGINT) AS n_words,
                           CAST(sum(l.n_sym) AS BIGINT) AS n_bpe_tokens
                    FROM occ o JOIN wlen l ON l.w = o.w
                    GROUP BY o.{id_col})
        SELECT d.{id_col} AS {id_col},
               coalesce(p.n_words, 0) AS n_words,
               coalesce(p.n_bpe_tokens, 0) AS n_bpe_tokens
        FROM docs d LEFT JOIN per_doc p ON p.{id_col} = d.{id_col}"""
