"""AURC checkpoints: bitwise round trips and typed errors on bad files."""

import errno
import json
import struct

import numpy as np
import pytest

from moetune import checkpoint
from moetune.checkpoint import (
    MAGIC,
    VERSION,
    TrainState,
    load_checkpoint,
    save_checkpoint,
)
from moetune.errors import FormatError, IntegrityError
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
    return TrainState(model=model, step=3, epoch=1, cursor=1)


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
    assert (loaded.step, loaded.epoch, loaded.cursor) == (3, 1, 1)


class FailingWriter:
    """A binary file whose writes fail with ENOSPC past `budget` bytes."""

    def __init__(self, f, budget: int):
        self.f, self.budget = f, budget

    def write(self, data: bytes) -> int:
        if len(data) > self.budget:
            self.f.write(data[:self.budget])
            self.f.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.f.write(data)

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(tiny_state(), path)
    before = read(path)
    newer = tiny_state()
    newer.step = 4
    for t in newer.model.trainable_parameters().values():
        t.data *= 2
    monkeypatch.setattr(checkpoint, "open", raising=False,
                        value=lambda *a, **k: FailingWriter(open(*a, **k),
                                                            len(before) // 2))
    with pytest.raises(OSError):
        save_checkpoint(newer, path)
    monkeypatch.undo()
    assert read(path) == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]
    save_checkpoint(load_checkpoint(path), tmp_path / "again.bin")
    assert read(tmp_path / "again.bin") == before


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


def edit_header(src, dst, edit) -> None:
    """Copy a checkpoint with its JSON header changed by edit(header)."""
    raw = read(src)
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + header_len])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    with open(dst, "wb") as f:
        f.write(raw[:8] + struct.pack("<Q", len(new)) + new
                + raw[16 + header_len:])


def saved_and_edited(tmp_path, edit):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_checkpoint(tiny_state(), good)
    edit_header(good, bad, edit)
    return bad


def test_configs_without_model(tmp_path):
    path = saved_and_edited(tmp_path, lambda h: h["configs"].pop("model"))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_model_config_with_unknown_key(tmp_path):
    path = saved_and_edited(
        tmp_path, lambda h: h["configs"]["model"].update(activation="silu"))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_lora_config_without_alpha(tmp_path):
    path = saved_and_edited(tmp_path, lambda h: h["configs"]["lora"].pop("alpha"))
    with pytest.raises(FormatError):
        load_checkpoint(path)


MISSING = object()
KERNEL = "layers.0.attn.wq.weight"


def set_entry(name, key, value):
    """Header edit: set (or, with value MISSING, drop) one field of an entry."""
    def edit(header):
        entry = header["tensors"][name]
        if value is MISSING:
            entry.pop(key)
        else:
            entry[key] = value
    return edit


@pytest.mark.parametrize("edit", [
    lambda h: h.update(tensors=list(h["tensors"].values())),
    lambda h: h["configs"].update(trainer_state=[3, 1, 1, 4]),
    lambda h: h["configs"]["trainer_state"].update(optim_steps=[0]),
    lambda h: h["tensors"].update(embedding=[0, 64]),
    set_entry("embedding", "dtype", "bf16"),
    set_entry(KERNEL, "dtype", "q4_sym_b32"),
    set_entry("embedding", "dtype", MISSING),
    set_entry("embedding", "offset", MISSING),
    set_entry(KERNEL, "length", MISSING),
    set_entry("final_norm.weight", "shape", MISSING),
    set_entry("final_norm.weight", "offset", -1024),
    set_entry("final_norm.weight", "offset", True),
    set_entry("final_norm.weight", "offset", "0"),
    set_entry("final_norm.weight", "length", -4),
    set_entry("final_norm.weight", "shape", [-16]),
    set_entry("final_norm.weight", "shape", "16"),
    lambda h: h["configs"]["trainer_state"].update(step="3"),
    lambda h: h["configs"]["trainer_state"].update(cursor=-5),
    lambda h: h["configs"]["trainer_state"].update(epoch=True),
    lambda h: h["configs"]["trainer_state"]["optim_steps"].update(
        {"layers.0.attn.wq.lora_a": "2"}),
    lambda h: h["configs"]["model"].update(n_heads=0),
    lambda h: h["configs"]["lora"].update(alpha=float("nan")),
    lambda h: h["configs"]["lora"].update(alpha=float("inf")),
    lambda h: h["configs"]["lora"].update(rank=2.5),
    lambda h: h["configs"]["lora"].update(rank=True),
], ids=["tensors-list", "trainer-state-list", "optim-steps-list",
        "entry-list", "unknown-dtype", "unknown-q4-block", "no-dtype",
        "no-offset", "no-length", "no-shape", "negative-offset",
        "bool-offset", "str-offset", "negative-length", "negative-shape",
        "str-shape", "str-step", "negative-cursor", "bool-epoch",
        "str-optim-step", "zero-heads", "nan-alpha", "inf-alpha",
        "fractional-rank", "bool-rank"])
def test_malformed_header_is_a_format_error(tmp_path, edit):
    with pytest.raises(FormatError):
        load_checkpoint(saved_and_edited(tmp_path, edit))


@pytest.mark.parametrize("name", ["final_norm.weight", KERNEL,
                                  "layers.0.moe.experts.1.w_up.lora_b"])
def test_missing_tensor_is_an_integrity_error(tmp_path, name):
    path = saved_and_edited(tmp_path, lambda h: h["tensors"].pop(name))
    with pytest.raises(IntegrityError):
        load_checkpoint(path)


def test_unknown_tensor_is_an_integrity_error(tmp_path):
    path = saved_and_edited(tmp_path, lambda h: h["tensors"].update(
        {"layers.0.extra.weight": dict(h["tensors"]["final_norm.weight"])}))
    with pytest.raises(IntegrityError):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    set_entry("final_norm.weight", "length", 60),
    set_entry("final_norm.weight", "offset", 10 ** 9),
    set_entry("final_norm.weight", "shape", [4, 4]),
])
def test_entry_that_does_not_fit_is_an_integrity_error(tmp_path, edit):
    with pytest.raises(IntegrityError):
        load_checkpoint(saved_and_edited(tmp_path, edit))


def test_bare_checkpoint_loads_with_init_model_trainables(tmp_path):
    path = tmp_path / "bare.bin"
    save_checkpoint(TrainState(model=init_model(TINY, seed=5)), path)
    loaded = load_checkpoint(path).model
    assert (list(loaded.trainable_parameters())
            == list(init_model(TINY, seed=0).trainable_parameters()))


def test_adapted_checkpoint_trains_only_the_adapters(tmp_path):
    state = tiny_state()
    path = tmp_path / "tuned.bin"
    save_checkpoint(state, path)
    trainable = load_checkpoint(path).model.trainable_parameters()
    assert list(trainable) == list(state.model.trainable_parameters())
    assert trainable and all(n.endswith((".lora_a", ".lora_b"))
                             for n in trainable)
