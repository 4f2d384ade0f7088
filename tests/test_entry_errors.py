"""Public entry points reject an argument of the wrong type with the
typed error of `errors.py`, before doing any work."""

import os

import numpy as np
import pytest

from moetune import checkpoint, data, lora, quant, tokenizer, trainer
from moetune.errors import ConfigError, DimensionError, VocabError
from moetune.model import KVCache, ModelConfig, init_model

TINY = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=24, n_experts=2,
                   max_seq_len=32)


def zero_factors(name, shape):
    return np.zeros(shape, np.float32)


def sample(turns) -> data.ChatSample:
    return data.ChatSample(turns=turns, source="test")


LORA = lora.LoraConfig()
ONES = np.ones((2, 64))
F32, I64 = np.float32(1e-3), np.int64(3)
CORPUS = [tokenizer.render_chat([("user", "a"), ("assistant", "b")])]


def on_a_pipe(call):
    """`call(fd)` on the write end of a fresh pipe, an int that open() would
    take as a file descriptor; the pipe's ends must still be open after."""
    r, w = os.pipe()
    try:
        call(w)
    finally:
        os.fstat(r)
        os.fstat(w)
        os.close(r)
        os.close(w)


def train_into(out_dir, corpus=CORPUS):
    """One train() step of an adapted model on `corpus`, saving into
    `out_dir`. Its ConfigError is re-raised once no adapter is seen to have
    changed."""
    model = init_model(TINY, seed=0)
    lora.attach_adapters(model, LORA)
    before = {n: t.data.copy()
              for n, t in model.trainable_parameters().items()}
    try:
        trainer.train(model, corpus, trainer.TrainConfig(epochs=1, seed=1),
                      out_dir=out_dir)
    except ConfigError:
        after = model.trainable_parameters()
        assert all(np.array_equal(before[n], after[n].data) for n in before)
        raise

# (error, call(model, path)): the model is a fresh one, the path a file
# in an empty directory
CASES = {
    "attach_adapters(None, cfg)":
        (ConfigError, lambda m, path: lora.attach_adapters(None, LORA)),
    "attach_adapters(model, None)":
        (ConfigError, lambda m, path: lora.attach_adapters(m, None)),
    "load_adapters(None, cfg)":
        (ConfigError,
         lambda m, path: lora.load_adapters(None, LORA, zero_factors)),
    "load_adapters(model, None)":
        (ConfigError,
         lambda m, path: lora.load_adapters(m, None, zero_factors)),
    "generate(None)":
        (ConfigError, lambda m, path: trainer.generate(None, [1], 1)),
    "KVCache(None)":
        (ConfigError, lambda m, path: KVCache(None, 3)),
    "QuantizedAdam(None)":
        (ConfigError, lambda m, path: quant.QuantizedAdam(None)),
    "QuantizedAdam(arrays)":
        (ConfigError, lambda m, path: quant.QuantizedAdam({"w": ONES})),
    "write_loss_log(None)":
        (ConfigError, lambda m, path: trainer.write_loss_log(None, path)),
    "write_loss_log([None])":
        (ConfigError, lambda m, path: trainer.write_loss_log([None], path)),
    "quantize_4bit('x')":
        (DimensionError, lambda m, path: quant.quantize_4bit("x")),
    "quantize_4bit(block_size='a')":
        (DimensionError,
         lambda m, path: quant.quantize_4bit(ONES, block_size="a")),
    "quantize_4bit(block_size=64.0)":
        (DimensionError,
         lambda m, path: quant.quantize_4bit(ONES, block_size=64.0)),
    "decode_tokens(None)":
        (VocabError, lambda m, path: tokenizer.decode_tokens(None)),
    "QuantizedAdam.step(lr='x')":
        (ConfigError, lambda m, path: quant.QuantizedAdam(
            m.trainable_parameters()).step(lr="x")),
    "init_model(None)":
        (ConfigError, lambda m, path: init_model(None)),
    "init_model(cfg, seed='x')":
        (ConfigError, lambda m, path: init_model(TINY, seed="x")),
    "attach_adapters(model, cfg, seed='x')":
        (ConfigError, lambda m, path: lora.attach_adapters(m, LORA, seed="x")),
    "tokenize_corpus(None)":
        (ConfigError, lambda m, path: data.tokenize_corpus(None)),
    "tokenize_corpus([1])":
        (ConfigError, lambda m, path: data.tokenize_corpus([1])),
    "clean_filter(None)":
        (ConfigError, lambda m, path: data.clean_filter(None)),
    "clean_filter([1])":
        (ConfigError, lambda m, path: data.clean_filter([1])),
    "render_chat([('user', 5)])":
        (VocabError, lambda m, path: tokenizer.render_chat([("user", 5)])),
    "encode_text(None)":
        (VocabError, lambda m, path: tokenizer.encode_text(None)),
    "render_chat(None)":
        (VocabError, lambda m, path: tokenizer.render_chat(None)),
    "render_prompt(None)":
        (VocabError, lambda m, path: tokenizer.render_prompt(None)),
    "render_chat([('user',)])":
        (VocabError, lambda m, path: tokenizer.render_chat([("user",)])),
    "clean_filter(turns=None)":
        (ConfigError, lambda m, path: data.clean_filter([sample(None)])),
    "clean_filter(turns='hi')":
        (ConfigError, lambda m, path: data.clean_filter([sample("hi")])),
    "clean_filter(text=5)":
        (ConfigError, lambda m, path: data.clean_filter(
            [sample([data.Turn("user", "a"), data.Turn("assistant", 5)])])),
    "tokenize_corpus(turns=None)":
        (ConfigError, lambda m, path: data.tokenize_corpus([sample(None)])),
    "tokenize_corpus(turns='hi')":
        (ConfigError, lambda m, path: data.tokenize_corpus([sample("hi")])),
    "tokenize_corpus(text=5)":
        (ConfigError, lambda m, path: data.tokenize_corpus(
            [sample([data.Turn("user", 5), data.Turn("assistant", "b")])])),
    "ingest_alpaca(None)":
        (ConfigError, lambda m, path: data.ingest_alpaca(None)),
    "ingest_sharegpt(None)":
        (ConfigError, lambda m, path: data.ingest_sharegpt(None)),
    # configs a checkpoint cannot write as JSON
    "TrainConfig(lr=float32)":
        (ConfigError, lambda m, path: trainer.TrainConfig(lr=F32)),
    "TrainConfig(seed=int64)":
        (ConfigError, lambda m, path: trainer.TrainConfig(seed=I64)),
    "ModelConfig(d_ff=int64)":
        (ConfigError, lambda m, path: ModelConfig(d_ff=I64)),
    "LoraConfig(dropout_p=float32)":
        (ConfigError, lambda m, path: lora.LoraConfig(dropout_p=F32)),
    "train(cfg=TrainConfig(lr=float32))":
        (ConfigError, lambda m, path: trainer.train(
            m, CORPUS, trainer.TrainConfig(epochs=1, lr=F32))),
    "attach_adapters(model, LoraConfig(rank=int64))":
        (ConfigError, lambda m, path: lora.attach_adapters(
            m, lora.LoraConfig(rank=I64))),
    # paths, checked before anything is opened or trained
    "write_loss_log([], 2.5)":
        (ConfigError, lambda m, path: trainer.write_loss_log([], 2.5)),
    "write_loss_log([], fd)":
        (ConfigError,
         lambda m, path: on_a_pipe(lambda fd: trainer.write_loss_log([], fd))),
    "train(out_dir=5)":
        (ConfigError, lambda m, path: train_into(5)),
    "train(out_dir=2.5)":
        (ConfigError, lambda m, path: train_into(2.5)),
    "load_checkpoint(with_optimizer=zeros(3))":
        (ConfigError, lambda m, path: checkpoint.load_checkpoint(
            path, with_optimizer=np.zeros(3))),
    "load_checkpoint(with_optimizer='x')":
        (ConfigError, lambda m, path: checkpoint.load_checkpoint(
            path, with_optimizer="x")),
    "load_checkpoint(with_optimizer=5)":
        (ConfigError, lambda m, path: checkpoint.load_checkpoint(
            path, with_optimizer=5)),
    # a corpus that is not a list, checked before step 0
    "train(corpus=5)":
        (ConfigError, lambda m, path: train_into(None, 5)),
    "train(corpus=generator)":
        (ConfigError, lambda m, path: train_into(None, (s for s in CORPUS))),
    "render_chat([(['user'], 'x')])":
        (VocabError,
         lambda m, path: tokenizer.render_chat([(["user"], "x")])),
    "render_chat([({}, 'x')])":
        (VocabError, lambda m, path: tokenizer.render_chat([({}, "x")])),
    "clean_filter(source=list, empty turn)":
        (ConfigError, lambda m, path: data.clean_filter([data.ChatSample(
            [data.Turn("user", ""), data.Turn("assistant", "b")], ["x"])])),
    "clean_filter(source=list)":
        (ConfigError, lambda m, path: data.clean_filter([data.ChatSample(
            [data.Turn("user", "a"), data.Turn("assistant", "b")], ["x"])])),
    "tokenize_corpus(source=None)":
        (ConfigError, lambda m, path: data.tokenize_corpus([data.ChatSample(
            [data.Turn("user", "a"), data.Turn("assistant", "b")], None)])),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_wrong_typed_argument_is_a_typed_error(case, tmp_path):
    error, call = CASES[case]
    model = init_model(TINY, seed=0)
    trainable = list(model.trainable_parameters())
    with pytest.raises(error):
        call(model, tmp_path / "loss_log.jsonl")
    # nothing was frozen, attached or written
    assert list(model.trainable_parameters()) == trainable and trainable
    assert all(lin.adapter is None for _, _, lin in model._projections())
    assert not list(tmp_path.iterdir())
