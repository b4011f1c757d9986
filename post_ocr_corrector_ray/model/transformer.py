"""NumPy transformer encoder-decoder matching the reference architecture.

The reference model (src/model/neural_corrector.py:20-69) is
``nn.Transformer(d_model, n_head, n_layers, n_layers, d_linear, dropout,
layer_norm_eps, norm_first=True)`` over a char vocabulary of
``len(alphabet)+3`` (unk/bookend/pad appended after the alphabet), with:

- source/target ``nn.Embedding(vocab, d_model, padding_idx=pad)`` (pad row zero),
- sinusoidal positional encoding added WITHOUT the sqrt(d_model) scale
  (src/model/positional_encoding.py:19-26),
- a 2-layer ReLU head ``Linear(d,d) → ReLU → Linear(d,vocab)`` (:60-64).

This module reimplements that architecture in NumPy (float32, inference only
— dropout is identity, exactly like the reference's ``eval()`` +
``torch.no_grad()`` decode path).  ``norm_first`` semantics: pre-norm residual
blocks plus a final LayerNorm after each stack (what ``nn.Transformer``
constructs when ``norm_first=True``).

Two precomputations in ``Transformer.__init__`` make the greedy decode
cheaper without changing its math.  Every attention's query projection
carries the ``1/sqrt(dh)`` score scale, so the scores need no division; the
scaling is exact when ``sqrt(dh)`` is a power of two, as at both shipped
hparams (dh = 16 and 64).  And decoder layer 0's packed self-attention QKV is
a (vocab, max_len, 3·d_model) table indexed by (token, position in the
window), because that layer's input ``emb_tgt[tok] + pe[pos]`` depends on
nothing else; each decode step gathers from it instead of running the
layer's LayerNorm and projection over the whole prefix.

Weights are NOT ported from torch (no checkpoint exists in the reference repo
and torch is absent here); they are generated deterministically from a seed or
loaded from an ``.npz`` artifact.  Byte-identity of pipeline output is defined
against the single-process oracle running THIS same code — see
SURVEY.md §7.4.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TransformerConfig:
    vocab_size: int
    max_len: int = 512
    d_model: int = 256
    n_head: int = 4
    n_layers: int = 4
    d_linear: int = 256
    layer_norm_eps: float = 2e-5
    pad_index: int | None = None  # embedding row forced to zero (padding_idx)

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size, "max_len": self.max_len,
            "d_model": self.d_model, "n_head": self.n_head,
            "n_layers": self.n_layers, "d_linear": self.d_linear,
            "layer_norm_eps": self.layer_norm_eps, "pad_index": self.pad_index,
        }


def sinusoidal_pe(max_len: int, d_model: int) -> np.ndarray:
    """Reference PositionalEncoding table (positional_encoding.py:12-16)."""
    position = np.arange(max_len, dtype=np.float64)[:, None]
    div_term = np.exp(np.arange(0, d_model, 2, dtype=np.float64) * (-math.log(10000.0) / d_model))
    pe = np.zeros((max_len, d_model), dtype=np.float64)
    pe[:, 0::2] = np.sin(position * div_term)
    pe[:, 1::2] = np.cos(position * div_term)
    return pe.astype(np.float32)


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """``(x - mean) / sqrt(var + eps) * g + b`` over the last axis, in place on
    one centred copy of ``x``; same operation order (and bits) as the plain
    expression, with fewer temporaries and no ``ndarray.mean`` wrapper."""
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xc = x - mu
    var = np.add.reduce(np.multiply(xc, xc), axis=-1, keepdims=True)
    var /= n
    var += eps
    np.sqrt(var, out=var)
    xc /= var
    xc *= g
    xc += b
    return xc


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def _mha(x: np.ndarray | None, w: dict, n_head: int,
         kv: tuple[np.ndarray, np.ndarray] | None = None,
         q_rows: slice = slice(None), qkv: np.ndarray | None = None) -> np.ndarray:
    """Multi-head attention of queries ``x`` (B, L, D), like torch MHA.

    ``kv=None`` is self-attention over ``x``: q, k and v come from ONE GEMM
    against the packed weight ``w["wqkv"]`` (one BLAS call instead of three,
    same dot products), or are given already packed as ``qkv`` (then ``x`` is
    unused).  Otherwise ``kv`` holds the (k, v) projections of the encoder
    memory, computed once per decode by ``Transformer.precompute_memory_kv``.
    ``q_rows`` keeps only those self-attention queries after the packed
    projection: every row still serves as a key and value, and the output has
    one row per kept query.  The query weights carry the ``1/sqrt(dh)`` score
    scale (``Transformer.__init__``), so the scores are used as they come."""
    if kv is None:
        if qkv is None:
            qkv = x @ w["wqkv"].T + w["bqkv"]
        d = qkv.shape[-1] // 3
        q, k, v = qkv[:, q_rows, :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
    else:
        d = x.shape[-1]
        q = x @ w["wq"].T + w["bq"]
        k, v = kv
    dh = d // n_head
    B, Lq, _ = q.shape
    Lk = k.shape[1]
    q = q.reshape(B, Lq, n_head, dh).transpose(0, 2, 1, 3)
    k = k.reshape(B, Lk, n_head, dh).transpose(0, 2, 1, 3)
    v = v.reshape(B, Lk, n_head, dh).transpose(0, 2, 1, 3)
    attn = _softmax(q @ k.transpose(0, 1, 3, 2), axis=-1)
    out = (attn @ v).transpose(0, 2, 1, 3).reshape(B, Lq, d)
    return out @ w["wo"].T + w["bo"]


def _ff(x: np.ndarray, w: dict) -> np.ndarray:
    h = x @ w["w1"].T + w["b1"]
    np.maximum(h, 0.0, out=h)
    return h @ w["w2"].T + w["b2"]


@dataclass
class TransformerWeights:
    config: TransformerConfig
    params: dict = field(default_factory=dict)

    @classmethod
    def create(cls, config: TransformerConfig, seed: int = 42) -> "TransformerWeights":
        """Deterministic xavier-ish init (float32) from a seed."""
        rng = np.random.default_rng(seed)
        p: dict[str, np.ndarray] = {}
        d, f, v = config.d_model, config.d_linear, config.vocab_size

        def mat(name: str, rows: int, cols: int) -> None:
            scale = math.sqrt(2.0 / (rows + cols))
            p[name] = rng.normal(0.0, scale, size=(rows, cols)).astype(np.float32)

        def vec(name: str, n: int, val: float = 0.0) -> None:
            p[name] = np.full(n, val, dtype=np.float32)

        mat("emb_src", v, d)
        mat("emb_tgt", v, d)
        if config.pad_index is not None:
            p["emb_src"][config.pad_index] = 0.0
            p["emb_tgt"][config.pad_index] = 0.0
        for side, n_attn in (("enc", 1), ("dec", 2)):
            for layer in range(config.n_layers):
                pre = f"{side}{layer}"
                for a in range(n_attn):
                    for nm in ("wq", "wk", "wv", "wo"):
                        mat(f"{pre}.attn{a}.{nm}", d, d)
                    for nm in ("bq", "bk", "bv", "bo"):
                        vec(f"{pre}.attn{a}.{nm}", d)
                mat(f"{pre}.ff.w1", f, d); vec(f"{pre}.ff.b1", f)
                mat(f"{pre}.ff.w2", d, f); vec(f"{pre}.ff.b2", d)
                n_norms = 2 if side == "enc" else 3
                for k in range(n_norms):
                    vec(f"{pre}.norm{k}.g", d, 1.0); vec(f"{pre}.norm{k}.b", d)
            vec(f"{side}_final_norm.g", d, 1.0); vec(f"{side}_final_norm.b", d)
        mat("head.w1", d, d); vec("head.b1", d)
        mat("head.w2", v, d); vec("head.b2", v)
        p["pe"] = sinusoidal_pe(config.max_len, d)
        return cls(config=config, params=p)

    def save_npz(self, path: str) -> None:
        """Write the weights and config to ``path`` atomically, under exactly
        that name (no ``.npz`` is appended)."""
        from ..state.lineage import write_atomic

        meta = {f"__cfg__{k}": np.array(v if v is not None else -1)
                for k, v in self.config.to_dict().items()}
        write_atomic(path, lambda f: np.savez_compressed(f, **self.params, **meta))

    @classmethod
    def load_npz(cls, path: str) -> "TransformerWeights":
        data = np.load(path)
        cfg_raw = {k[len("__cfg__"):]: data[k].item() for k in data.files if k.startswith("__cfg__")}
        pad = int(cfg_raw["pad_index"])
        config = TransformerConfig(
            vocab_size=int(cfg_raw["vocab_size"]), max_len=int(cfg_raw["max_len"]),
            d_model=int(cfg_raw["d_model"]), n_head=int(cfg_raw["n_head"]),
            n_layers=int(cfg_raw["n_layers"]), d_linear=int(cfg_raw["d_linear"]),
            layer_norm_eps=float(cfg_raw["layer_norm_eps"]),
            pad_index=None if pad < 0 else pad,
        )
        params = {k: data[k] for k in data.files if not k.startswith("__cfg__")}
        return cls(config=config, params=params)


class Transformer:
    """Inference-only encoder-decoder over (B, L) int64 id arrays.

    The per-layer parameters are gathered once here, from the flat
    ``weights.params`` names: ``enc``/``dec`` hold one dict per layer with the
    self-attention (``wqkv``/``bqkv`` packed, ``wo``/``bo``), the decoder's
    cross-attention, the feed-forward and the ``(g, b)`` of each norm.  The
    query weights ``wq``/``bq`` are scaled by ``1/sqrt(dh)`` and ``qkv0`` is
    decoder layer 0's (token, position) QKV table (module docstring); both
    are copies, and ``weights.params``, which ``save`` writes, stays as
    loaded."""

    def __init__(self, weights: TransformerWeights):
        self.w = w = weights.params
        self.cfg = cfg = weights.config
        scale = np.float32(1.0 / math.sqrt(cfg.d_model // cfg.n_head))

        def group(pre: str, names: tuple[str, ...]) -> dict:
            return {nm: w[f"{pre}.{nm}"] for nm in names}

        def attn(pre: str) -> dict:
            a = group(pre, ("wq", "wk", "wv", "bq", "bk", "bv", "wo", "bo"))
            a["wq"], a["bq"] = a["wq"] * scale, a["bq"] * scale
            return a

        def layer(pre: str, n_norms: int) -> dict:
            sa = attn(f"{pre}.attn0")
            return {
                "self": {"wqkv": np.vstack([sa["wq"], sa["wk"], sa["wv"]]),
                         "bqkv": np.concatenate([sa["bq"], sa["bk"], sa["bv"]]),
                         "wo": sa["wo"], "bo": sa["bo"]},
                "ff": group(f"{pre}.ff", ("w1", "b1", "w2", "b2")),
                "norms": [(w[f"{pre}.norm{k}.g"], w[f"{pre}.norm{k}.b"])
                          for k in range(n_norms)],
            }

        self.enc = [layer(f"enc{i}", 2) for i in range(cfg.n_layers)]
        self.dec = [{**layer(f"dec{i}", 3), "cross": attn(f"dec{i}.attn1")}
                    for i in range(cfg.n_layers)]
        self.enc_norm = (w["enc_final_norm.g"], w["enc_final_norm.b"])
        self.dec_norm = (w["dec_final_norm.g"], w["dec_final_norm.b"])
        self.head = group("head", ("w1", "b1", "w2", "b2"))  # Linear → ReLU → Linear
        # one token at a time, so the build holds the table and one (max_len, D) slab
        sa0, n0 = self.dec[0]["self"], self.dec[0]["norms"][0]
        self.qkv0 = np.empty((cfg.vocab_size, cfg.max_len, 3 * cfg.d_model), np.float32)
        for tok, e in enumerate(w["emb_tgt"]):
            np.matmul(_layer_norm(e + w["pe"], *n0, cfg.layer_norm_eps), sa0["wqkv"].T,
                      out=self.qkv0[tok])
        self.qkv0 += sa0["bqkv"]

    def embed(self, src_ids: np.ndarray) -> np.ndarray:
        """Source embedding + positional encoding (no sqrt(d_model) scale —
        reference adds PE directly to the raw embedding).  The decoder's
        target side is ``decode_last_logits``'s own."""
        return self.w["emb_src"][src_ids] + self.w["pe"][: src_ids.shape[1]]  # (B, L, D)

    def encode(self, src_ids: np.ndarray) -> np.ndarray:
        x = self.embed(src_ids)
        nh, eps = self.cfg.n_head, self.cfg.layer_norm_eps
        for p in self.enc:
            n0, n1 = p["norms"]
            x += _mha(_layer_norm(x, *n0, eps), p["self"], nh)
            x += _ff(_layer_norm(x, *n1, eps), p["ff"])
        return _layer_norm(x, *self.enc_norm, eps)

    def precompute_memory_kv(self, memory: np.ndarray) -> list:
        """Cross-attention K/V projections of the (fixed) encoder memory, one
        pair per decoder layer — hoisted out of the per-step decode loop."""
        return [(memory @ p["cross"]["wk"].T + p["cross"]["bk"],
                 memory @ p["cross"]["wv"].T + p["cross"]["bv"]) for p in self.dec]

    def decode_last_logits(self, tgt_ids: np.ndarray, memory: np.ndarray,
                           mem_kv: list | None = None) -> np.ndarray:
        """Logits (B, V) for the LAST position of the target prefix (B, Lt).

        Self-attention is UNMASKED — the reference's inference decode passes
        no tgt_mask (neural_corrector.py:92) — so every layer but the last
        runs over the whole prefix: each of its output rows attends to every
        position.  Layer 0's LayerNorm and packed QKV projection are one
        gather from the ``qkv0`` table, ``qkv0[tgt_ids, arange(Lt)]``: the
        positions are those within the window, so the table holds after the
        window slides past ``max_len``; the residual stream is still
        ``emb_tgt[tgt_ids] + pe[:Lt]``.  The last layer needs only the final
        row's output: its packed QKV still covers every row (the keys and
        values), and from there the query, residual, cross-attention,
        feed-forward, their norms and the final norm see one row.  Same math
        as running every row; the rounding differs only because the GEMMs see
        fewer or other rows.  The table's projection ran once per token over
        ``max_len`` rows, not over the prefix: at small prefixes the logits can
        differ from a per-step projection in the last bits, while the golden
        digests of ``tests/test_golden_digests.py`` (both shipped hparams and
        the flagship bytes) are unchanged by it.  Scaling the queries instead
        of the scores is exact at both shipped hparams (dh = 16 and 64, powers
        of two squared); at a dh whose square root is not a power of two it
        rounds differently, within float32 noise."""
        if mem_kv is None:
            mem_kv = self.precompute_memory_kv(memory)
        L = tgt_ids.shape[1]
        x = self.w["emb_tgt"][tgt_ids] + self.w["pe"][:L]  # the residual stream
        nh, eps = self.cfg.n_head, self.cfg.layer_norm_eps
        last = len(self.dec) - 1
        for i, (p, kv) in enumerate(zip(self.dec, mem_kv)):
            n0, n1, n2 = p["norms"]
            rows = slice(-1, None) if i == last else slice(None)
            if i == 0:
                a = _mha(None, p["self"], nh, q_rows=rows,
                         qkv=self.qkv0[tgt_ids, np.arange(L)])
            else:
                a = _mha(_layer_norm(x, *n0, eps), p["self"], nh, q_rows=rows)
            x = x[:, rows] + a
            x += _mha(_layer_norm(x, *n1, eps), p["cross"], nh, kv=kv)
            x += _ff(_layer_norm(x, *n2, eps), p["ff"])
        return _ff(_layer_norm(x[:, -1], *self.dec_norm, eps), self.head)  # (B, V)
