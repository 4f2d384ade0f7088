"""SFT loop: checkpoints it writes load back, and resume is bit-exact."""

import numpy as np
import pytest

from moetune.checkpoint import load_checkpoint
from moetune.errors import ConfigError
from moetune.lora import LoraConfig, attach_adapters
from moetune.model import ModelConfig, init_model
from moetune.tokenizer import render_chat
from moetune.trainer import TrainConfig, train

TINY = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=24, n_experts=4,
                   top_k=2, vocab_size=262, max_seq_len=32)
ADAPTERS = LoraConfig(rank=2)
CORPUS = [render_chat([("user", q), ("assistant", a)])
          for q, a in [("hi", "hello"), ("2+2?", "4"), ("sky?", "blue"),
                       ("name?", "moe"), ("yes?", "no"), ("up?", "down")]]


def adapted_model():
    model = init_model(TINY, seed=0)
    model.quantize_frozen(64)
    attach_adapters(model, ADAPTERS, seed=0)
    return model


def test_checkpoint_without_lora_config_loads_back(tmp_path):
    model = adapted_model()
    train(model, CORPUS, TrainConfig(epochs=1, batch_size=2, lr=1e-2),
          out_dir=tmp_path)
    loaded = load_checkpoint(tmp_path / "ckpt_final.bin").model
    want, got = model.named_parameters(), loaded.named_parameters()
    assert want.keys() == got.keys()
    for name in want:
        assert np.array_equal(want[name].data, got[name].data), name


def test_lora_config_must_match_the_adapters():
    cfg = TrainConfig(epochs=1, batch_size=2, max_steps=1)
    with pytest.raises(ConfigError):
        train(adapted_model(), CORPUS, cfg, lora_config=LoraConfig(rank=4))
    bare = init_model(TINY, seed=0)
    with pytest.raises(ConfigError):
        train(bare, CORPUS, cfg, lora_config=ADAPTERS)


def test_mid_epoch_resume_reproduces_loss_tail_at_beta2_095(tmp_path):
    # 3 steps per epoch; step 2 is mid-epoch and the tail crosses an epoch
    cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-2, warmup_steps=0,
                      save_every=2, beta2=0.95)
    _, log = train(adapted_model(), CORPUS, cfg, out_dir=tmp_path)
    resumed = load_checkpoint(tmp_path / "ckpt_step2.bin")
    assert (resumed.step, resumed.cursor) == (2, 2)
    _, tail = train(resumed.model, CORPUS, cfg, resume=resumed)
    assert [r.loss for r in tail] == [r.loss for r in log[2:]]


def test_resume_without_moments_is_rejected(tmp_path):
    cfg = TrainConfig(epochs=1, batch_size=2, save_every=1)
    train(adapted_model(), CORPUS, cfg, out_dir=tmp_path)
    resumed = load_checkpoint(tmp_path / "ckpt_step1.bin", with_optimizer=False)
    with pytest.raises(ConfigError):
        train(resumed.model, CORPUS, cfg, resume=resumed)
