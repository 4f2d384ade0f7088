"""AURC checkpoints: bitwise round trips and typed errors on bad files."""

import json
import struct

import numpy as np
import pytest

from moetune.checkpoint import (
    MAGIC,
    VERSION,
    TrainState,
    load_checkpoint,
    save_checkpoint,
)
from moetune.errors import FormatError
from moetune.lora import LoraConfig, attach_adapters
from moetune.model import ModelConfig, init_model

TINY = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=24, n_experts=2,
                   top_k=1, vocab_size=262, max_seq_len=16)


def tiny_state():
    """Quantized model with adapters whose B is non-zero."""
    model = init_model(TINY, seed=1)
    model.quantize_frozen(64)
    attach_adapters(model, LoraConfig(rank=2), seed=2)
    rng = np.random.default_rng(3)
    for t in model.trainable_parameters().values():
        t.data[:] = rng.standard_normal(t.data.shape).astype(np.float32)
    return TrainState(model=model, step=3, epoch=1, cursor=1, seed=4)


def read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def write_container(path, version: int, header) -> None:
    raw = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<I", version)
                + struct.pack("<Q", len(raw)) + raw)


def test_save_load_save_is_bitwise(tmp_path):
    state = tiny_state()
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(state, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    assert read(first) == read(second)
    want, got = state.model.named_parameters(), loaded.model.named_parameters()
    assert want.keys() == got.keys()
    for name in want:
        assert np.array_equal(want[name].data, got[name].data), name
    for name, q in state.model.named_quantized().items():
        assert np.array_equal(q.dequant(),
                              loaded.model.named_quantized()[name].dequant())
    # adapters keep the [d_in, d_out] orientation of their kernel
    assert got["layers.0.moe.experts.0.w_down.lora_a"].shape == (24, 2)
    assert got["layers.0.moe.experts.0.w_down.lora_b"].shape == (2, 16)
    assert (loaded.step, loaded.epoch, loaded.cursor, loaded.seed) == (3, 1, 1, 4)


def test_version_1_is_rejected(tmp_path):
    path = tmp_path / "v1.bin"
    save_checkpoint(tiny_state(), path)
    raw = bytearray(read(path))
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [{"tensors": {}}, {"configs": {}}, []])
def test_header_without_configs_or_tensors(tmp_path, header):
    path = tmp_path / "bad.bin"
    write_container(path, VERSION, header)
    with pytest.raises(FormatError):
        load_checkpoint(path)
