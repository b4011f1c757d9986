"""A torch-format checkpoint writer for the tests of the torch-free reader
(``post_ocr_corrector_ray.model.ckpt_compat``): the engine weight dict →
``nn.Transformer`` state-dict mapping, and a minimal ``torch.save``-layout zip
that pickles tensors as ``torch._utils._rebuild_tensor_v2`` calls."""

from __future__ import annotations

import io
import pickle
import zipfile

import numpy as np

from post_ocr_corrector_ray.model.ckpt_compat import (
    _DEC_ATTN,
    _DtypeTag,
    _rebuild_tensor_v2,
)


def params_to_state_dict(p: dict, n_layers: int) -> dict:
    """Inverse of ``ckpt_compat.state_dict_to_params``."""
    sd: dict[str, np.ndarray] = {
        "embedding_src.weight": p["emb_src"],
        "embedding_tgt.weight": p["emb_tgt"],
        "positional_encoding.pe": p["pe"][:, None, :],
        "linear_stack.0.weight": p["head.w1"],
        "linear_stack.0.bias": p["head.b1"],
        "linear_stack.2.weight": p["head.w2"],
        "linear_stack.2.bias": p["head.b2"],
        "transformer.encoder.norm.weight": p["enc_final_norm.g"],
        "transformer.encoder.norm.bias": p["enc_final_norm.b"],
        "transformer.decoder.norm.weight": p["dec_final_norm.g"],
        "transformer.decoder.norm.bias": p["dec_final_norm.b"],
    }
    for i in range(n_layers):
        for side, torch_side, attns in (
                ("enc", "encoder", {"self_attn": "attn0"}),
                ("dec", "decoder", _DEC_ATTN)):
            base = f"transformer.{torch_side}.layers.{i}."
            pre = f"{side}{i}"
            for tname, ename in attns.items():
                sd[base + f"{tname}.in_proj_weight"] = np.vstack(
                    [p[f"{pre}.{ename}.wq"], p[f"{pre}.{ename}.wk"],
                     p[f"{pre}.{ename}.wv"]])
                sd[base + f"{tname}.in_proj_bias"] = np.concatenate(
                    [p[f"{pre}.{ename}.bq"], p[f"{pre}.{ename}.bk"],
                     p[f"{pre}.{ename}.bv"]])
                sd[base + f"{tname}.out_proj.weight"] = p[f"{pre}.{ename}.wo"]
                sd[base + f"{tname}.out_proj.bias"] = p[f"{pre}.{ename}.bo"]
            sd[base + "linear1.weight"] = p[f"{pre}.ff.w1"]
            sd[base + "linear1.bias"] = p[f"{pre}.ff.b1"]
            sd[base + "linear2.weight"] = p[f"{pre}.ff.w2"]
            sd[base + "linear2.bias"] = p[f"{pre}.ff.b2"]
            n_norms = 2 if side == "enc" else 3
            for k in range(n_norms):
                sd[base + f"norm{k + 1}.weight"] = p[f"{pre}.norm{k}.g"]
                sd[base + f"norm{k + 1}.bias"] = p[f"{pre}.norm{k}.b"]
    return sd


class _TorchPickler(pickle.Pickler):
    def __init__(self, buf, storages: dict[str, bytes]):
        super().__init__(buf, protocol=2)
        self._storages = storages

    def persistent_id(self, obj):
        if isinstance(obj, _TensorProxy):
            return None
        if isinstance(obj, np.ndarray):
            key = str(len(self._storages))
            self._storages[key] = obj.tobytes()
            name = {np.dtype(np.float32): "FloatStorage",
                    np.dtype(np.float64): "DoubleStorage",
                    np.dtype(np.int64): "LongStorage"}[obj.dtype]
            return ("storage", _DtypeTag(name), key, "cpu", int(obj.size))
        return None


class _TensorProxy:
    """Pickles to a ``_rebuild_tensor_v2`` call like a real torch tensor."""

    def __init__(self, arr: np.ndarray):
        self.arr = np.ascontiguousarray(arr)

    def __reduce__(self):
        strides = tuple(s // self.arr.dtype.itemsize for s in self.arr.strides)
        return (_rebuild_tensor_v2,
                (self.arr.reshape(-1), 0, self.arr.shape, strides, False, None))


def write_fake_torch_ckpt(path: str, state_dict: dict, hyper_parameters: dict) -> None:
    """Write a minimal torch-zip-format checkpoint (tests: the reader must
    round-trip it; layout mirrors ``torch.save`` zip serialization)."""
    payload = {
        "state_dict": {k: _TensorProxy(np.asarray(v)) for k, v in state_dict.items()},
        "hyper_parameters": hyper_parameters,
    }
    storages: dict[str, bytes] = {}
    buf = io.BytesIO()
    pickler = _TorchPickler(buf, storages)

    # pickle _rebuild_tensor_v2 under its torch identity (what real
    # checkpoints reference) so the reader exercises its find_class path;
    # pickle verifies globals resolve at dump time, hence the module shims
    import sys
    import types

    orig = (_rebuild_tensor_v2.__module__, _rebuild_tensor_v2.__qualname__)
    shims = {}
    for mod in ("torch", "torch._utils"):
        if mod not in sys.modules:
            shims[mod] = sys.modules[mod] = types.ModuleType(mod)
    sys.modules["torch._utils"]._rebuild_tensor_v2 = _rebuild_tensor_v2
    _rebuild_tensor_v2.__module__ = "torch._utils"
    _rebuild_tensor_v2.__qualname__ = "_rebuild_tensor_v2"
    try:
        pickler.dump(payload)
    finally:
        _rebuild_tensor_v2.__module__, _rebuild_tensor_v2.__qualname__ = orig
        for mod in shims:
            del sys.modules[mod]
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("archive/data.pkl", buf.getvalue())
        for key, raw in storages.items():
            zf.writestr(f"archive/data/{key}", raw)
