"""Torch-free reference-checkpoint compatibility: zip/pickle reader,
state-dict mapping round-trips, and serving the converted weights."""

import numpy as np
import pytest

from fake_torch_ckpt import params_to_state_dict, write_fake_torch_ckpt
from post_ocr_corrector_ray.functions.alphabet import build_alphabet
from post_ocr_corrector_ray.model import ckpt_compat as cc
from post_ocr_corrector_ray.model.neural import NeuralCorrectorModel

ALPHABET = build_alphabet(set("abcdefg h"))
HPARAMS = dict(max_len=16, d_model=16, n_head=2, n_layers=2, d_linear=24,
               layer_norm_eps=2e-5)


def _seeded_model():
    return NeuralCorrectorModel.from_seed(ALPHABET, seed=11, **HPARAMS)


class TestMappingRoundTrip:
    def test_params_to_state_dict_and_back(self):
        m = _seeded_model()
        p = m.net.w
        p = {k: v for k, v in p.items() if not k.startswith("_")}
        sd = params_to_state_dict(p, HPARAMS["n_layers"])
        # torch nn.Transformer naming present
        assert "transformer.encoder.layers.0.self_attn.in_proj_weight" in sd
        assert "transformer.decoder.layers.1.multihead_attn.out_proj.bias" in sd
        assert sd["positional_encoding.pe"].shape == (16, 1, 16)
        back = cc.state_dict_to_params(sd, HPARAMS["n_layers"])
        assert set(back) == set(p)
        for k in p:
            np.testing.assert_array_equal(back[k], np.asarray(p[k], np.float32), err_msg=k)


class TestZipReader:
    def test_fake_ckpt_round_trip(self, tmp_path):
        m = _seeded_model()
        p = {k: v for k, v in m.net.w.items() if not k.startswith("_")}
        sd = params_to_state_dict(p, HPARAMS["n_layers"])
        path = str(tmp_path / "model.ckpt")
        write_fake_torch_ckpt(path, sd, dict(HPARAMS, lr=3e-4, batch_size=4))
        weights, hp = cc.checkpoint_to_weights(path, ALPHABET)
        assert hp["lr"] == 3e-4
        cfg = weights.config
        assert (cfg.d_model, cfg.n_head, cfg.n_layers, cfg.d_linear) == (16, 2, 2, 24)
        assert cfg.vocab_size == len(ALPHABET) + 3
        for k in p:
            np.testing.assert_array_equal(weights.params[k],
                                          np.asarray(p[k], np.float32), err_msg=k)

    def test_converted_weights_decode_identically(self, tmp_path):
        m = _seeded_model()
        p = {k: v for k, v in m.net.w.items() if not k.startswith("_")}
        sd = params_to_state_dict(p, HPARAMS["n_layers"])
        path = str(tmp_path / "model.ckpt")
        write_fake_torch_ckpt(path, sd, dict(HPARAMS))
        weights, _ = cc.checkpoint_to_weights(path, ALPHABET)
        m2 = NeuralCorrectorModel(ALPHABET, weights)
        texts = ["abc defg h", "hhh", ""]
        assert [m2.correct_document(t) for t in texts] == \
            [m.correct_document(t) for t in texts]

    def test_noncontiguous_stride_rebuild(self):
        base = np.arange(24, dtype=np.float32)
        # transposed view strides (column-major 4x6 read as 6x4)
        out = cc._rebuild_tensor_v2(base, 0, (6, 4), (1, 6))
        np.testing.assert_array_equal(out, base.reshape(4, 6).T)


class TestMismatchedAlphabet:
    """A wrong alphabet is a user error on the CLI path (``run --corrector
    neural``, ``convert-ckpt``): a ValueError naming both sizes, which
    ``python -O`` does not strip."""

    def test_weights_with_shorter_alphabet_refused(self, tmp_path):
        path = str(tmp_path / "weights.npz")
        _seeded_model().save(path)
        with pytest.raises(ValueError, match=f"{len(ALPHABET) + 3} != "
                                             f"alphabet vocab {len(ALPHABET) + 2}"):
            NeuralCorrectorModel.load(path, ALPHABET[:-1])

    def test_convert_with_wrong_alphabet_refused(self, tmp_path):
        m = _seeded_model()
        p = {k: v for k, v in m.net.w.items() if not k.startswith("_")}
        path = str(tmp_path / "model.ckpt")
        write_fake_torch_ckpt(path, params_to_state_dict(p, HPARAMS["n_layers"]),
                                 dict(HPARAMS))
        alphabet_file = tmp_path / "alphabet.txt"
        alphabet_file.write_text(ALPHABET[:-1])
        out = tmp_path / "model_dir"
        from post_ocr_corrector_ray.cli import main

        with pytest.raises(ValueError, match="model.ckpt"):
            main(["convert-ckpt", path, str(alphabet_file), str(out)])
        assert not out.exists()
