"""AURC checkpoints and their AURB bases: bitwise round trips and typed
errors on bad files."""

import dataclasses
import errno
import gc
import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

import moetune
from moetune import checkpoint
from moetune.checkpoint import (
    MAGIC,
    VERSION,
    TrainState,
    load_checkpoint,
    save_checkpoint,
)
from moetune.errors import (ConfigError, FormatError, IntegrityError,
                            MoetuneError)
from moetune.lora import LoraConfig, adapter_config, attach_adapters
from moetune.model import Linear, ModelConfig, init_model
from moetune.quant import QuantizedAdam, flat_offsets, quantize_4bit
from moetune.tensor import Tensor
from moetune.tokenizer import render_chat
from moetune.trainer import TrainConfig, train

TINY = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=24, n_experts=2,
                   top_k=1, vocab_size=262, max_seq_len=16)
# d_ff 25 with rank-1 adapters gives tensors of odd element count (25, 400)
ODD = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=25, n_experts=2,
                  top_k=1, vocab_size=262, max_seq_len=16)


def tiny_state():
    """Quantized model with adapters whose B is non-zero."""
    model = init_model(TINY, seed=1)
    model.quantize_frozen(64)
    attach_adapters(model, LoraConfig(rank=2), seed=2)
    rng = np.random.default_rng(3)
    for t in model.trainable_parameters().values():
        t.data[:] = rng.standard_normal(t.data.shape).astype(np.float32)
    return TrainState(model=model, train_config=TrainConfig(seed=5), step=3,
                      epoch=1, cursor=1)


def moment_state(block_size: int = 64) -> TrainState:
    """ODD quantized in blocks of `block_size`, with rank-1 adapters after
    two 4-bit Adam steps; the second skips one parameter, so step counts
    differ."""
    model = init_model(ODD, seed=1)
    model.quantize_frozen(block_size)
    attach_adapters(model, LoraConfig(rank=1), seed=2)
    params = model.trainable_parameters()
    opt = QuantizedAdam(params)
    rng = np.random.default_rng(4)
    for skip in (None, "layers.0.attn.wq.lora_a"):
        for name, t in params.items():
            t.grad = (None if name == skip else
                      rng.standard_normal(t.data.shape).astype(np.float32))
        opt.step(1e-2)
    return TrainState(model=model, optim_state=opt.state, step=2, cursor=2)


def read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def split(raw: bytes) -> tuple[bytes, bytes, bytes]:
    """A file's magic and version, its JSON header and its payload."""
    (header_len,) = struct.unpack("<Q", raw[8:16])
    return raw[:8], raw[24:24 + header_len], raw[24 + header_len:]


def sealed(magic_version: bytes, header: bytes) -> bytes:
    """The prefix and header of a file, with the digest its load checks:
    the first 8 bytes of the SHA-256 of magic, version and header."""
    digest = hashlib.sha256(magic_version + header).digest()[:8]
    return magic_version + struct.pack("<Q", len(header)) + digest + header


def base_of(path):
    """The base file that the checkpoint at `path` names."""
    header, _ = header_and_payload_start(read(path))
    return path.parent / header["base"]


def write_container(path, version: int, header) -> None:
    """A payload-less checkpoint of `version` whose header is sealed."""
    path.write_bytes(sealed(MAGIC + struct.pack("<I", version),
                            json.dumps(header).encode("utf-8")))


def assert_same_state(want: TrainState, got: TrainState) -> None:
    """Parameters, frozen kernels, moments and counters are bitwise equal."""
    wp, gp = want.model.named_parameters(), got.model.named_parameters()
    assert list(wp) == list(gp)
    for name in wp:
        assert np.array_equal(wp[name].data, gp[name].data), name
    wq, gq = want.model.named_quantized(), got.model.named_quantized()
    assert list(wq) == list(gq)
    for name in wq:
        assert (wq[name].shape, wq[name].block_size) == (gq[name].shape,
                                                         gq[name].block_size)
        assert np.array_equal(wq[name].codes, gq[name].codes), name
        assert np.array_equal(wq[name].scales, gq[name].scales), name
    w, g = want.optim_state, got.optim_state
    assert (w is None) == (g is None)
    if w is not None:
        assert (w.names, w.sizes, w.steps) == (g.names, g.sizes, g.steps)
        for wm, gm in ((w.m, g.m), (w.v, g.v)):
            assert (wm.shape, wm.block_size) == (gm.shape, gm.block_size)
            assert np.array_equal(wm.codes, gm.codes)
            assert np.array_equal(wm.scales, gm.scales)
    assert ((want.train_config, want.step, want.epoch, want.cursor)
            == (got.train_config, got.step, got.epoch, got.cursor))


def test_save_load_save_is_bitwise(tmp_path):
    state = tiny_state()
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(state, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    assert read(first) == read(second)
    assert_same_state(state, loaded)
    for name, q in state.model.named_quantized().items():
        assert np.array_equal(q.dequant(),
                              loaded.model.named_quantized()[name].dequant())
    # adapters keep the [d_in, d_out] orientation of their kernel
    got = loaded.model.named_parameters()
    assert got["layers.0.moe.experts.0.w_down.lora_a"].shape == (24, 2)
    assert got["layers.0.moe.experts.0.w_down.lora_b"].shape == (2, 16)
    assert (loaded.step, loaded.epoch, loaded.cursor) == (3, 1, 1)


@pytest.mark.parametrize("block_size", [64, 32])
def test_save_load_save_with_moments_is_bitwise(tmp_path, block_size):
    state = moment_state(block_size)
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(state, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    assert read(first) == read(second)
    assert_same_state(state, loaded)
    assert {q.block_size for q in loaded.model.named_quantized().values()} \
        == {block_size}
    optim = loaded.optim_state
    assert (optim.m.block_size, optim.v.block_size) == (64, 64)
    assert sorted(set(optim.steps)) == [1, 2]
    assert any(n % 2 for n in optim.sizes)
    # the loaded adapters are writable views: an optimizer step updates them
    params = loaded.model.trainable_parameters()
    for t in params.values():
        t.grad = np.ones_like(t.data)
    before = {n: t.data.copy() for n, t in params.items()}
    opt = QuantizedAdam(params, state=loaded.optim_state)
    opt.step(1e-2)
    assert all(not np.array_equal(before[n], t.data) for n, t in params.items())


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
    before, files = read(path), sorted(tmp_path.iterdir())
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
    assert sorted(tmp_path.iterdir()) == files
    save_checkpoint(load_checkpoint(path), tmp_path / "again.bin")
    assert read(tmp_path / "again.bin") == before


def test_version_3_is_rejected(tmp_path):
    # version 3 stored a pair of 1 x n moments per parameter, [name, n]
    # entries and the step counts in the trainer state
    def as_v3(header):
        names = [name for name, _ in header["groups"]["f32"]["tensors"]]
        header["configs"]["trainer_state"]["optim_steps"] = dict(
            zip(names, header["groups"]["optim"].pop("steps")))

    good, old = tmp_path / "good.bin", tmp_path / "old.bin"
    save_checkpoint(moment_state(), good)
    edit_header(good, old, as_v3)
    raw = bytearray(read(old))
    raw[4:8] = struct.pack("<I", 3)
    old.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version 3"):
        load_checkpoint(old)


def test_version_1_is_rejected(tmp_path):
    # and version 2, whose header held an entry per tensor, version 4,
    # which held the frozen tensors too, version 5, whose prefix held no
    # digest, and version 6, which stored each trainable parameter's name
    # and size in its optim entries too, and each segment's offset and length
    path = tmp_path / "old.bin"
    save_checkpoint(tiny_state(), path)
    raw = bytearray(read(path))
    for version in (1, 2, 4, 5, 6):
        raw[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"version {version}"):
            load_checkpoint(path)
    # a v5 file as v5 laid it out: no digest between length and header
    _, header, payload = split(bytes(raw))
    path.write_bytes(MAGIC + struct.pack("<IQ", 5, len(header)) + header
                     + payload)
    with pytest.raises(FormatError, match="version 5"):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [{"groups": {}, "base": None},
                                    {"configs": {}, "base": None}, []])
def test_header_without_configs_or_tensors(tmp_path, header):
    path = tmp_path / "bad.bin"
    write_container(path, VERSION, header)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def edit_header(src, dst, edit, seal: bool = True) -> None:
    """Copy a file with its JSON header changed by edit(header), and sealed
    anew unless `seal` is False: then its prefix keeps the old digest. The
    header is written as save writes it, so an edit that changes nothing
    copies the file as it is."""
    raw = read(src)
    head, header, payload = split(raw)
    header = json.loads(header)
    edit(header)
    new = sealed(head, json.dumps(header, ensure_ascii=False, sort_keys=True,
                                  separators=(",", ":")).encode("utf-8"))
    if not seal:
        new = new[:16] + raw[16:24] + new[24:]
    dst.write_bytes(new + payload)


def edit_base(src, dst, edit) -> None:
    """Copy the checkpoint at `src` to `dst`, naming its base as edited by
    edit(header): the base is sealed anew and renamed after its digest."""
    base = base_of(src)
    edit_header(base, base, edit)
    name = f"base-{read(base)[16:24].hex()}.bin"
    base.rename(base.parent / name)
    edit_header(src, dst, lambda h: h.update(base=name))


def on_base(edit):
    """Mark a header edit as one of the base, where the frozen tensors are."""
    edit.on_base = True
    return edit


def saved_and_edited(tmp_path, edit, state=None):
    """A checkpoint of `state` (tiny_state() by default) edited by edit: its
    own header, or its base's if edit is marked `on_base`; sealed anew, so
    the load gets past the digest to what the edit breaks."""
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_checkpoint(state or tiny_state(), good)
    if getattr(edit, "on_base", False):
        edit_base(good, bad, edit)
    else:
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


@pytest.mark.parametrize("max_seq_len", [2 ** 16 + 1, 10 ** 12])
def test_a_huge_max_seq_len_fails_before_the_model_is_built(tmp_path,
                                                            max_seq_len):
    # the model would build a rotary table of max_seq_len rows
    path = saved_and_edited(tmp_path, lambda h: h["configs"]["model"].update(
        max_seq_len=max_seq_len))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="malformed configs block"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


MISSING = object()
KERNEL = "layers.0.attn.wq.weight"


def entry(header, name: str) -> list:
    """The [name, shape] entry of `name` in the f32 or the q4 group."""
    for group in ("f32", "q4"):
        for e in header["groups"].get(group, {}).get("tensors", []):
            if e[0] == name:
                return e
    raise KeyError(name)


def set_shape(name, shape):
    """Header edit: set (or, with shape MISSING, drop) a tensor's shape; of
    the base unless the tensor is an adapter."""
    def edit(header):
        e = entry(header, name)
        if shape is MISSING:
            e.pop()
        else:
            e[1] = shape
    return edit if ".lora_" in name else on_base(edit)


def set_group(group, key, value):
    """Header edit: set (or, with value MISSING, drop) a field of a group's
    entry; the "q4" group's is in the base."""
    def edit(header):
        if value is MISSING:
            header["groups"][group].pop(key)
        else:
            header["groups"][group][key] = value
    return on_base(edit) if group == "q4" else edit


def rename_group(header, old: str, new: str) -> None:
    header["groups"][new] = header["groups"].pop(old)


def set_step(value):
    """Header edit: set (or, with value MISSING, drop) the first parameter's
    update count in the optim group."""
    def edit(header):
        steps = header["groups"]["optim"]["steps"]
        if value is MISSING:
            steps.pop(0)
        else:
            steps[0] = value
    return edit


# v2 stored a {dtype, shape, offset, length} entry per tensor; each of its
# cases that has a counterpart in the current header keeps its id and is
# asked of it: "dtype" of the group a tensor sits in and its block size,
# "shape" of a tensor's [name, shape] entry, a CRC of a group's entry; the
# optim step cases of the optim group's step counts. The cases of a frozen
# tensor or of the q4 group edit the base's header, sealed anew.
@pytest.mark.parametrize("edit", [
    lambda h: h.update(groups=list(h["groups"].values())),
    lambda h: h["configs"].update(trainer_state=[3, 1, 1, 4]),
    set_step([0]),
    lambda h: h["groups"]["f32"]["tensors"].__setitem__(
        0, {"embedding": [262, 16]}),
    lambda h: rename_group(h, "f32", "bf16"),
    set_group("q4", "block_size", 0),
    set_group("q4", "block_size", MISSING),
    set_shape("final_norm.weight", MISSING),
    set_shape("final_norm.weight", [-16]),
    set_shape("final_norm.weight", "16"),
    lambda h: h["configs"]["trainer_state"].update(step="3"),
    lambda h: h["configs"]["trainer_state"].update(cursor=-5),
    lambda h: h["configs"]["trainer_state"].update(epoch=True),
    set_step("2"),
    lambda h: h["configs"]["model"].update(n_heads=0),
    lambda h: h["configs"]["lora"].update(alpha=float("nan")),
    lambda h: h["configs"]["lora"].update(alpha=float("inf")),
    lambda h: h["configs"]["lora"].update(rank=2.5),
    lambda h: h["configs"]["lora"].update(rank=True),
    on_base(lambda h: h["groups"]["q4"].pop("tensors")),
    on_base(lambda h: h["groups"].pop("q4")),
    set_group("q4", "crc32", MISSING),
    set_group("q4", "crc32", "0"),
    set_shape(KERNEL, [256]),
    on_base(lambda h: entry(h, KERNEL).__setitem__(0, 7)),
    set_step(MISSING),
    set_group("optim", "block_size", MISSING),
    lambda h: h["configs"].pop("trainer_state"),
    lambda h: h["configs"].update(trainer_state=None),
    lambda h: h["configs"]["trainer_state"].pop("step"),
    lambda h: h["configs"].update(train=5),
    lambda h: h["configs"].update(train={"seed": 0}),
    lambda h: h["configs"].update(train=dict(TrainConfig().to_dict(), lr=-1)),
], ids=["tensors-list", "trainer-state-list", "optim-steps-list",
        "entry-list", "unknown-dtype", "unknown-q4-block", "no-dtype",
        "no-shape", "negative-shape", "str-shape", "str-step",
        "negative-cursor", "bool-epoch", "str-optim-step", "zero-heads",
        "nan-alpha", "inf-alpha", "fractional-rank", "bool-rank",
        "no-q4-tensors", "no-q4-group", "no-crc", "str-crc", "1d-q4-shape",
        "int-name", "no-optim-step", "no-optim-block", "no-trainer-state",
        "null-trainer-state", "no-step", "int-train-config",
        "partial-train-config", "negative-lr"])
def test_malformed_header_is_a_format_error(tmp_path, edit):
    with pytest.raises(FormatError):
        load_checkpoint(saved_and_edited(tmp_path, edit, moment_state()))


@pytest.mark.parametrize("name", ["final_norm.weight", KERNEL,
                                  "layers.0.moe.experts.1.w_up.lora_b"])
def test_missing_tensor_is_an_integrity_error(tmp_path, name):
    # the bytes stay; only the name the model asks for is gone
    def edit(header):
        entry(header, name).__setitem__(0, f"{name}.gone")

    path = saved_and_edited(tmp_path, edit if ".lora_" in name
                            else on_base(edit))
    with pytest.raises(IntegrityError, match=f"missing tensor {name}"):
        load_checkpoint(path)


def test_unknown_tensor_is_an_integrity_error(tmp_path):
    # an empty tensor takes no bytes, so the payload still adds up
    path = saved_and_edited(tmp_path, lambda h: h["groups"]["f32"][
        "tensors"].append(["layers.0.extra.weight", [0]]))
    with pytest.raises(IntegrityError, match="unknown tensors"):
        load_checkpoint(path)


def test_tensor_stored_twice_is_an_integrity_error(tmp_path):
    path = saved_and_edited(tmp_path, on_base(lambda h: entry(
        h, "layers.0.attn_norm.weight").__setitem__(0, "final_norm.weight")))
    with pytest.raises(IntegrityError, match="twice"):
        load_checkpoint(path)


def test_tensor_in_both_files_is_an_integrity_error(tmp_path):
    # an adapter renamed to a frozen weight of the same shape
    path = saved_and_edited(tmp_path, lambda h: entry(
        h, "layers.0.attn.wq.lora_b").__setitem__(0, "layers.0.moe.router"))
    with pytest.raises(IntegrityError, match="twice"):
        load_checkpoint(path)


# two tensors of one shape, in the base and in the checkpoint
SWAPS = {"base": ("layers.0.attn.wq.weight", "layers.0.attn.wk.weight"),
         "checkpoint": ("layers.0.attn.wq.lora_b", "layers.0.attn.wk.lora_b")}


def swap_names(a: str, b: str):
    """Header edit: exchange the names of tensors a and b."""
    def edit(header):
        ea, eb = entry(header, a), entry(header, b)
        ea[0], eb[0] = b, a
    return edit


@pytest.mark.parametrize("which", ["checkpoint", "base"])
def test_names_swapped_in_a_header_are_an_integrity_error(tmp_path, which):
    # the layout stays valid, and each file its own length and CRCs: only
    # the digest tells
    state, (a, b) = tiny_state(), SWAPS[which]
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_checkpoint(state, good)
    edit_header(good, bad, lambda h: None, seal=False)
    assert read(bad) == read(good)
    if which == "base":
        edit_header(base_of(good), base_of(good), swap_names(a, b),
                    seal=False)
        shutil.copyfile(good, bad)
    else:
        edit_header(good, bad, swap_names(a, b), seal=False)
    with pytest.raises(IntegrityError, match="header digest mismatch"):
        load_checkpoint(bad)
    # sealed anew, the edit is a file of its own: its weights swapped
    resealed = tmp_path / "resealed.bin"
    save_checkpoint(state, good)
    if which == "base":
        edit_base(good, resealed, swap_names(a, b))
        got = load_checkpoint(resealed).model.named_quantized()
        want = state.model.named_quantized()
        assert np.array_equal(got[a].codes, want[b].codes)
    else:
        edit_header(good, resealed, swap_names(a, b))
        got = load_checkpoint(resealed).model.named_parameters()
        assert np.array_equal(got[a].data,
                              state.model.named_parameters()[b].data)


def test_a_base_under_another_bases_name_is_an_integrity_error(tmp_path):
    # the renamed base is whole and sealed, and its runs are those of
    # the base whose name it takes: only the name tells
    good = tmp_path / "good.bin"
    save_checkpoint(tiny_state(), good)
    original = base_of(good)
    edit_base(good, tmp_path / "swapped.bin", swap_names(*SWAPS["base"]))
    shutil.copyfile(base_of(tmp_path / "swapped.bin"), original)
    with pytest.raises(IntegrityError, match="is not its name's"):
        load_checkpoint(good)


# each edit but the shape's changes a run's length, so the payload no longer
# adds up: by -4 bytes in the base's f32 run, by +64 in the checkpoint's,
# and in the base's q4 run by the scales of blocks of 32
@pytest.mark.parametrize("edit, says", [
    (set_shape("final_norm.weight", [15]), "payload holds"),
    (set_shape("layers.0.attn.wq.lora_a", [16, 3]), "payload holds"),
    (set_shape("final_norm.weight", [4, 4]), "shape"),
    (set_group("q4", "block_size", 32), "payload holds"),
], ids=[f"edit{i}" for i in range(4)])
def test_entry_that_does_not_fit_is_an_integrity_error(tmp_path, edit, says):
    with pytest.raises(IntegrityError, match=says):
        load_checkpoint(saved_and_edited(tmp_path, edit))


def test_truncated_file_is_an_integrity_error(tmp_path):
    path = tmp_path / "cut.bin"
    save_checkpoint(tiny_state(), path)
    path.write_bytes(read(path)[:-100])
    with pytest.raises(IntegrityError, match="payload holds"):
        load_checkpoint(path)


@pytest.mark.parametrize("which", ["checkpoint", "base"])
def test_appended_bytes_are_an_integrity_error(tmp_path, which):
    path = tmp_path / "long.bin"
    save_checkpoint(moment_state(), path)
    grown = path if which == "checkpoint" else base_of(path)
    grown.write_bytes(read(grown) + bytes(4))
    for with_optimizer in (True, False):
        with pytest.raises(IntegrityError, match="payload holds .* groups"):
            load_checkpoint(path, with_optimizer=with_optimizer)


def test_steps_of_another_count_are_a_format_error(tmp_path):
    # the optim group holds one update count per f32 parameter
    for edit in (lambda steps: steps.pop(), lambda steps: steps.append(1)):
        path = saved_and_edited(tmp_path, lambda h: edit(
            h["groups"]["optim"]["steps"]), moment_state())
        with pytest.raises(FormatError, match="one per f32 parameter"):
            load_checkpoint(path)


def test_the_header_names_each_trainable_parameter_once(tmp_path):
    state = moment_state()
    save_checkpoint(state, tmp_path / "a.bin")
    _, header, _ = split(read(tmp_path / "a.bin"))
    for name in state.model.trainable_parameters():
        assert header.count(json.dumps(name).encode("utf-8")) == 1, name


# (label, in the base): the checkpoint's runs, and the base's; a 4-bit run
# is labelled by its scales and its codes
PARTS = [("f32", False), ("optim.codes", False), ("optim.scales", False),
         ("f32", True), ("q4.codes", True), ("q4.scales", True)]


def header_and_payload_start(raw: bytes) -> tuple[dict, int]:
    _, header, payload = split(raw)
    return json.loads(header), len(raw) - len(payload)


def spans(header) -> dict:
    """Where each part of the payload lies, as label: (offset, length): the
    f32 run, then a 4-bit run's scales and its codes."""
    groups = header["groups"]
    sizes = [math.prod(shape) for _, shape in groups["f32"]["tensors"]]
    out, at = {"f32": (0, 4 * sum(sizes))}, 4 * sum(sizes)
    for name in ("q4", "optim"):
        if name in groups:
            bs = groups[name]["block_size"]
            ns = ([flat_offsets(sizes)[-1]] * 2 if name == "optim"
                  else [r * c for _, (r, c) in groups[name]["tensors"]])
            scale_bytes = 4 * sum(-(-n // bs) for n in ns)
            out[f"{name}.scales"] = (at, scale_bytes)
            n_codes = sum((n + 1) // 2 for n in ns)
            out[f"{name}.codes"] = (at + scale_bytes, n_codes)
            at += scale_bytes + n_codes
    out["end"] = (at, 0)
    return out


def flip_bit(src, dst, label: str) -> None:
    """Copy a checkpoint with one bit in the middle of a payload part
    flipped."""
    raw = bytearray(read(src))
    header, base = header_and_payload_start(raw)
    assert base + spans(header)["end"][0] == len(raw)
    offset, length = spans(header)[label]
    raw[base + offset + length // 2] ^= 0x10
    dst.write_bytes(bytes(raw))


@pytest.mark.parametrize("label, in_base", PARTS,
                         ids=["f32", "optim.codes", "optim.scales", "base-f32",
                              "q4.codes", "q4.scales"])
def test_flipped_payload_bit_is_an_integrity_error(tmp_path, label, in_base):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_checkpoint(moment_state(), good)
    if in_base:
        flip_bit(base_of(good), base_of(good), label)
        shutil.copyfile(good, bad)
    else:
        flip_bit(good, bad, label)
    where = f"base .*{base_of(good).name}" if in_base else "bad.bin"
    group = label.partition(".")[0]
    with pytest.raises(IntegrityError, match=f"{where}: group {group}: CRC"):
        load_checkpoint(bad)
    if in_base:  # the moments are not what is damaged
        with pytest.raises(IntegrityError, match="CRC"):
            load_checkpoint(bad, with_optimizer=False)


def test_corrupt_moments_load_without_the_optimizer(tmp_path):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    state = moment_state()
    save_checkpoint(state, good)
    flip_bit(good, bad, "optim.codes")
    loaded = load_checkpoint(bad, with_optimizer=False)
    assert loaded.optim_state is None
    want = state.model.named_parameters()
    for name, t in loaded.model.named_parameters().items():
        assert np.array_equal(t.data, want[name].data), name
    with pytest.raises(IntegrityError):
        load_checkpoint(bad)


def test_moments_of_other_parameters_are_an_integrity_error(tmp_path):
    # the moments are laid out in the f32 group's order, which two entries
    # swapped make another than the model's
    def swap(header):
        f32 = header["groups"]["f32"]["tensors"]
        f32[0], f32[1] = f32[1], f32[0]

    path = saved_and_edited(tmp_path, swap, moment_state())
    assert load_checkpoint(path, with_optimizer=False).optim_state is None
    with pytest.raises(IntegrityError, match="optimizer state .* position 0"):
        load_checkpoint(path)


@pytest.mark.parametrize("block_size", [32, 128, 64.0])
def test_an_optim_block_size_other_than_64_is_a_format_error(tmp_path,
                                                              block_size):
    # the flat layout is in whole blocks of 64, which a save always writes
    path = saved_and_edited(tmp_path, set_group("optim", "block_size",
                                                block_size), moment_state())
    with pytest.raises(FormatError, match="optim lacks a valid block size"):
        load_checkpoint(path)


def test_saving_moments_of_other_parameters_is_a_config_error(tmp_path):
    # no load would accept the file, so none is written and the old one stays
    path = tmp_path / "ckpt.bin"
    save_checkpoint(tiny_state(), path)
    before, files = read(path), sorted(tmp_path.iterdir())
    other = tiny_state()
    other.optim_state = QuantizedAdam(
        {"p": Tensor(np.zeros(3), requires_grad=True)}).state
    with pytest.raises(ConfigError, match="optimizer state .*'p', 3"):
        save_checkpoint(other, path)
    assert read(path) == before
    assert sorted(tmp_path.iterdir()) == files


def test_saves_into_one_directory_share_one_base(tmp_path, monkeypatch):
    renamed, rename = [], os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (
        renamed.append(os.path.basename(dst)), rename(src, dst)))
    state = moment_state()
    save_checkpoint(state, tmp_path / "a.bin")
    for t in state.model.trainable_parameters().values():
        t.data *= 2
    state.step = 3
    save_checkpoint(state, tmp_path / "b.bin")
    base = base_of(tmp_path / "a.bin")
    assert base_of(tmp_path / "b.bin") == base
    assert renamed == [base.name, "a.bin", "b.bin"]
    # the base holds the frozen tensors, the checkpoint what training changes
    frozen, _ = header_and_payload_start(read(base))
    own, _ = header_and_payload_start(read(tmp_path / "b.bin"))
    assert ({n for n, _ in frozen["groups"]["f32"]["tensors"]}
            == {n for n, t in state.model.named_parameters().items()
                if not t.requires_grad})
    assert ([n for n, _ in own["groups"]["f32"]["tensors"]]
            == list(state.model.trainable_parameters()))
    assert_same_state(state, load_checkpoint(tmp_path / "b.bin"))
    # another directory gets a base of its own, of the same name and bytes
    (tmp_path / "other").mkdir()
    save_checkpoint(state, tmp_path / "other" / "c.bin")
    assert renamed[3:] == [base.name, "c.bin"]
    assert read(tmp_path / "other" / base.name) == read(base)


def test_checkpoint_copied_with_its_base_loads(tmp_path):
    state = moment_state()
    save_checkpoint(state, tmp_path / "a.bin")
    away = tmp_path / "away"
    away.mkdir()
    shutil.copy(tmp_path / "a.bin", away)
    with pytest.raises(IntegrityError, match="base .* is missing"):
        load_checkpoint(away / "a.bin", with_optimizer=False)
    shutil.copy(base_of(tmp_path / "a.bin"), away)
    assert_same_state(state, load_checkpoint(away / "a.bin"))


def other_base(base) -> None:
    """Put the base of another model in the place of `base`."""
    model = init_model(TINY, seed=9)
    model.quantize_frozen(64)
    attach_adapters(model, LoraConfig(rank=2), seed=2)
    save_checkpoint(TrainState(model=model), base.parent / "other.bin")
    base_of(base.parent / "other.bin").replace(base)


@pytest.mark.parametrize("damage, says", [
    (lambda base: base.unlink(), "base .* is missing"),
    (lambda base: base.write_bytes(read(base)[:-100]), "payload holds"),
    (other_base, "is not its name's"),
], ids=["missing", "truncated", "another-models"])
@pytest.mark.parametrize("with_optimizer", [True, False])
def test_bad_base_is_an_integrity_error(tmp_path, damage, says,
                                        with_optimizer):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(moment_state(), path)
    damage(base_of(path))
    with pytest.raises(IntegrityError, match=says):
        load_checkpoint(path, with_optimizer=with_optimizer)


def test_save_rewrites_a_base_of_another_size(tmp_path):
    # a base cut short by something else than a save is written anew; a
    # base of the right size and header is left as it is
    state = tiny_state()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, path)
    base = base_of(path)
    whole = read(base)
    base.write_bytes(whole[:-1])
    save_checkpoint(state, path)
    assert read(base) == whole
    assert_same_state(state, load_checkpoint(path))


def cold_save(state: TrainState, path) -> None:
    """Save `state` as its model's first save does, computing every CRC."""
    checkpoint._q4_of.pop(state.model, None)
    save_checkpoint(state, path)


def test_a_second_save_hashes_no_kernel_byte(tmp_path, monkeypatch):
    state = moment_state()
    save_checkpoint(state, tmp_path / "a.bin")
    hashed, crc32 = [], zlib.crc32
    monkeypatch.setattr(zlib, "crc32", lambda data, value=0: (
        hashed.append(data), crc32(data, value))[1])
    for t in state.model.trainable_parameters().values():
        t.data *= 2
    save_checkpoint(state, tmp_path / "b.bin")
    monkeypatch.undo()
    assert base_of(tmp_path / "b.bin") == base_of(tmp_path / "a.bin")
    kernels = [a for q in state.model.named_quantized().values()
               for a in (q.codes, q.scales)]
    assert kernels and not any(np.may_share_memory(data, a)
                               for data in hashed for a in kernels)
    # the frozen f32 tensors, editable in place, are hashed every time
    frozen = [t.data for t in state.model.named_parameters().values()
              if not t.requires_grad]
    assert frozen and all(any(np.may_share_memory(data, f) for data in hashed)
                          for f in frozen)


def test_warm_and_cold_saves_are_byte_identical(tmp_path):
    state = moment_state()
    for d in ("warm", "cold"):
        (tmp_path / d).mkdir()
    save_checkpoint(state, tmp_path / "warm" / "a.bin")
    for t in state.model.trainable_parameters().values():
        t.data *= 2
    state.step = 3
    save_checkpoint(state, tmp_path / "warm" / "b.bin")
    cold_save(state, tmp_path / "cold" / "b.bin")
    for which in (lambda d: d / "b.bin", lambda d: base_of(d / "b.bin")):
        assert read(which(tmp_path / "warm")) == read(which(tmp_path / "cold"))


def kernel_of(model) -> Linear:
    return next(lin for name, _, lin in model._projections()
                if f"{name}.weight" == KERNEL)


def new_kernel(model) -> None:
    lin = kernel_of(model)
    lin.kernel = quantize_4bit(2 * lin.kernel.dequant(), lin.kernel.block_size)


def new_codes(model) -> None:
    # a matrix is frozen: new codes come in a new matrix of the same shape
    lin = kernel_of(model)
    lin.kernel = dataclasses.replace(
        lin.kernel, codes=lin.kernel.codes[::-1].copy())  # codes of 0..14


def frozen_f32_edit(model) -> None:
    norm = model.named_parameters()["final_norm.weight"]
    assert not norm.requires_grad
    norm.data[0] += 1.0


@pytest.mark.parametrize("edit", [new_kernel, new_codes, frozen_f32_edit])
def test_a_changed_base_is_named_anew_as_a_cold_save_names_it(tmp_path,
                                                               edit):
    state = moment_state()
    for d in ("warm", "cold"):
        (tmp_path / d).mkdir()
    save_checkpoint(state, tmp_path / "warm" / "a.bin")
    edit(state.model)
    save_checkpoint(state, tmp_path / "warm" / "b.bin")
    cold_save(state, tmp_path / "cold" / "b.bin")
    base = base_of(tmp_path / "warm" / "b.bin")
    assert base != base_of(tmp_path / "warm" / "a.bin")
    assert read(base) == read(base_of(tmp_path / "cold" / "b.bin"))
    assert (read(tmp_path / "warm" / "b.bin")
            == read(tmp_path / "cold" / "b.bin"))
    assert_same_state(state, load_checkpoint(tmp_path / "warm" / "b.bin"))


def test_the_kept_base_entry_dies_with_its_model(tmp_path):
    state = moment_state()
    save_checkpoint(state, tmp_path / "a.bin")
    model = weakref.ref(state.model)
    del state
    gc.collect()
    assert model() is None


def test_kernels_and_moments_are_read_only(tmp_path):
    # `dequant` caches an f32 copy, and a save keeps the base's CRC, of
    # arrays that are never written in place
    state = moment_state()
    save_checkpoint(state, tmp_path / "a.bin")
    loaded = load_checkpoint(tmp_path / "a.bin")
    for s in (state, loaded):
        for q in (s.model.named_quantized()[KERNEL], s.optim_state.m,
                  s.optim_state.v):
            for a in (q.codes, q.scales):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0


@pytest.mark.parametrize("path", [3, None, 2.5])
def test_path_that_names_no_file_is_a_config_error(tmp_path, path):
    # an int would be taken as a file descriptor and closed
    r, w = os.pipe()
    try:
        with pytest.raises(ConfigError, match="path must be"):
            load_checkpoint(r if path == 3 else path)
        with pytest.raises(ConfigError, match="path must be"):
            save_checkpoint(tiny_state(), w if path == 3 else path)
        os.fstat(r)  # both ends still open
        os.fstat(w)
    finally:
        os.close(r)
        os.close(w)
    with pytest.raises(ConfigError, match="state must be a TrainState"):
        save_checkpoint(None, tmp_path / "none.bin")
    # states that no load would accept
    model = tiny_state().model
    for state, says in [(TrainState(model=None), "state.model must be"),
                        (TrainState(model, 5), "train_config must be"),
                        (TrainState(model, {"x": object()}),
                         "train_config must be"),
                        (TrainState(model, step="x"), "step must be"),
                        (TrainState(model, epoch=-1), "epoch must be"),
                        (TrainState(model, cursor=1.5), "cursor must be")]:
        with pytest.raises(ConfigError, match=says):
            save_checkpoint(state, tmp_path / "bad.bin")
    assert not list(tmp_path.iterdir())
    # nor can a TrainConfig that no load would accept be built
    for change, says in [({"lr": -1.0}, "lr must be"),
                         ({"lr": np.float32(1e-3)}, "lr must be a python"),
                         ({"seed": np.int64(3)}, "seed must be a python")]:
        with pytest.raises(ConfigError, match=says):
            TrainConfig(**change)


def test_path_may_be_bytes_or_a_str(tmp_path):
    state = tiny_state()
    save_checkpoint(state, os.fsencode(tmp_path / "a.bin"))
    assert_same_state(state, load_checkpoint(str(tmp_path / "a.bin")))


# the prefix and JSON header that format v7 writes for the state below,
# written out by hand: a config's JSON does not depend on how it is built
V7_HEADER = (
    b'AURC\x07\x00\x00\x00b\x02\x00\x00\x00\x00\x00\x00\xdb0:n\x01[SD'
    b'{"base":"base-9f9abbc653b4e059.bin","configs":{"lora":{"alpha":16.0,'
    b'"dropout_p":0.05,"rank":1,"targets":["q"]},"model":{"d_ff":4,'
    b'"d_model":4,"max_seq_len":8,"n_experts":1,"n_heads":2,"n_layers":1,'
    b'"norm_eps":1e-05,"rope_base":10000.0,"top_k":1,"vocab_size":8},'
    b'"train":{"batch_size":8,"beta1":0.9,"beta2":0.999,"epochs":3,'
    b'"eps":1e-08,"lr":0.001,"max_grad_norm":1.0,"max_steps":2,'
    b'"save_every":1000,"schedule":"cosine","seed":5,"warmup_steps":10},'
    b'"trainer_state":{"cursor":2,"epoch":1,"step":3}},"groups":{"f32":'
    b'{"crc32":3013198700,"tensors":[["layers.0.attn.wq.lora_a",[4,1]],'
    b'["layers.0.attn.wq.lora_b",[1,4]]]}}}')


def test_a_saved_header_is_the_hand_written_one(tmp_path):
    model = init_model(ModelConfig(n_layers=1, d_model=4, n_heads=2, d_ff=4,
                                   n_experts=1, top_k=1, vocab_size=8,
                                   max_seq_len=8), seed=1)
    model.quantize_frozen(64)
    # targets given as a list are kept as a tuple and written as a list
    attach_adapters(model, LoraConfig(rank=1, targets=["q"]), seed=2)
    train_cfg = TrainConfig(lr=1e-3, seed=5, max_steps=2, schedule="cosine")
    save_checkpoint(TrainState(model, train_cfg, step=3, epoch=1, cursor=2),
                    tmp_path / "c.bin")
    raw = read(tmp_path / "c.bin")
    assert raw[:len(V7_HEADER)] == V7_HEADER
    assert len(raw) == len(V7_HEADER) + 4 * 8  # the two factors
    loaded = load_checkpoint(tmp_path / "c.bin")
    assert loaded.train_config == train_cfg
    assert adapter_config(loaded.model) == LoraConfig(rank=1, targets=("q",))


def assert_frozen(q) -> None:
    """`q` cannot be changed: not its fields, not its arrays, not the f32
    copy that `dequant` returns."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.codes = q.codes.copy()
    for a in (q.codes, q.scales, q.dequant()):
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        q.dequant()[0, 0] = 99.0


def test_every_quantized_matrix_is_frozen_with_read_only_arrays(tmp_path):
    # kernels from quantize_frozen and moments from QuantizedAdam.step, then
    # both as load_checkpoint reads them
    state = moment_state()
    save_checkpoint(state, tmp_path / "c.bin")
    for s in (state, load_checkpoint(tmp_path / "c.bin")):
        matrices = [*s.model.named_quantized().values(), s.optim_state.m,
                    s.optim_state.v]
        assert len(matrices) > 2
        for q in matrices:
            assert_frozen(q)


def test_bare_checkpoint_loads_with_init_model_trainables(tmp_path):
    # no tensor is frozen, so no base is written or named
    path = tmp_path / "bare.bin"
    save_checkpoint(TrainState(model=init_model(TINY, seed=5)), path)
    assert [p.name for p in tmp_path.iterdir()] == ["bare.bin"]
    assert header_and_payload_start(read(path))[0]["base"] is None
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


def frozen_embedding():
    """TINY without adapters, training everything but the embedding."""
    model = init_model(TINY, seed=0)
    model.embedding.requires_grad = False
    return model


def adapted_with_final_norm():
    """TINY, quantized, with rank-2 adapters, training final_norm too."""
    model = init_model(TINY, seed=0)
    model.quantize_frozen(64)
    attach_adapters(model, LoraConfig(rank=2), seed=0)
    model.final_norm.requires_grad = True
    return model


@pytest.mark.parametrize("build", [frozen_embedding, adapted_with_final_norm])
def test_a_checkpoint_restores_which_parameters_train(tmp_path, build):
    # neither build_model nor load_adapters would give these trainables
    model, (_, corpus, cfg) = build(), crash_run()
    trains = list(model.trainable_parameters())
    state, log = train(model, corpus, cfg, out_dir=tmp_path)
    path = tmp_path / "ckpt_step2.bin"
    bare = load_checkpoint(path, with_optimizer=False).model
    assert list(bare.trainable_parameters()) == trains
    save_checkpoint(load_checkpoint(path), tmp_path / "again.bin")
    assert read(tmp_path / "again.bin") == read(path)
    resumed = load_checkpoint(path)
    assert (list(resumed.optim_state.names), resumed.step) == (trains, 2)
    _, tail = train(resumed.model, corpus, cfg, resume=resumed)
    assert tail == log[2:]
    assert_same_state(state, load_checkpoint(tmp_path / "ckpt_final.bin"))


def crash_run() -> tuple:
    """Model, corpus and config of the run that the crash test kills:
    TINY, quantized, rank-2 adapters, a checkpoint after every step."""
    model = init_model(TINY, seed=0)
    model.quantize_frozen(64)
    attach_adapters(model, LoraConfig(rank=2), seed=0)
    corpus = [render_chat([("user", q), ("assistant", a)])
              for q, a in [("hi", "hello"), ("2+2?", "4"), ("sky?", "blue"),
                           ("up?", "down"), ("yes?", "no"), ("sun?", "hot")]]
    cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-2, warmup_steps=0,
                      save_every=1)
    return model, corpus, cfg


# Runs crash_run() into argv[3], pausing forever at the argv[2]-th rename
# of a checkpoint, just before it ("before") or just after it ("after"),
# once it has printed "paused". The base's rename is not counted: it comes
# before the first checkpoint's.
CHILD = """
import os, sys, time
from test_checkpoint import crash_run
from moetune.trainer import train

when, k, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
rename, calls = os.replace, []

def replace(src, dst):
    if os.path.basename(dst).startswith("base-"):
        return rename(src, dst)
    calls.append(dst)
    if when == "after":
        rename(src, dst)
    if len(calls) == k:
        print("paused", flush=True)
        time.sleep(120)
    if when == "before":
        rename(src, dst)

os.replace = replace
model, corpus, cfg = crash_run()
train(model, corpus, cfg, out_dir=out_dir)
"""


def killed_run(out_dir, when: str, k: int) -> None:
    """Run CHILD in a process of its own and SIGKILL it once it pauses."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(moetune.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    with subprocess.Popen([sys.executable, "-c", CHILD, when, str(k),
                           str(out_dir)], stdout=subprocess.PIPE, env=env,
                          text=True) as child:
        try:
            assert child.stdout.readline() == "paused\n"
        finally:
            child.kill()


@pytest.mark.parametrize("when,k", [("before", 2), ("after", 3),
                                    ("before", 5), ("before", 1)])
def test_save_killed_midway_leaves_loadable_checkpoints(tmp_path, when, k):
    # ("before", 1) is killed between the base's rename and the first
    # checkpoint's: the run starts over, beside a base it leaves as it is
    model, corpus, cfg = crash_run()
    _, log = train(model, corpus, cfg)
    out_dir = tmp_path / "run"
    killed_run(out_dir, when, k)

    saved = sorted(out_dir.glob("ckpt_step*.bin"),
                   key=lambda p: int(p.stem.removeprefix("ckpt_step")))
    newest = k if when == "after" else k - 1
    assert [p.name for p in saved] == [f"ckpt_step{i}.bin"
                                       for i in range(1, newest + 1)]
    for p in saved:
        load_checkpoint(p)
    stale = [p.name for p in out_dir.glob("*.tmp")]
    assert stale == ([f"ckpt_step{k}.bin.tmp"] if when == "before" else [])

    [base] = out_dir.glob("base-*")
    written = base.stat().st_mtime_ns
    if newest:
        resumed = load_checkpoint(saved[-1])
        assert resumed.step == newest
        model = resumed.model
    else:
        resumed, model = None, crash_run()[0]
    _, tail = train(model, corpus, cfg, out_dir=out_dir, resume=resumed)
    assert not list(out_dir.glob("*.tmp"))
    assert list(out_dir.glob("base-*")) == [base]
    assert base.stat().st_mtime_ns == written
    assert ([(r.loss, r.grad_norm) for r in tail]
            == [(r.loss, r.grad_norm) for r in log[newest:]])


# JSON values a mutation puts in place of one in a header
REPLACEMENTS = [None, True, False, -1, 0, 1, 7, 2.5, float("nan"), "", "x",
                [], {}, [0], {"x": 0}]


def mutated(raw: bytes, rng) -> bytes:
    """A header `raw` with one random change: a value replaced, a key or
    list entry dropped, an int moved by one, a key or entry added, or one
    byte of the JSON text changed."""
    kind = rng.integers(6)
    if kind == 5:
        out = bytearray(raw)
        out[rng.integers(len(out))] = int(rng.integers(256))
        return bytes(out)
    header = json.loads(raw)
    slots = []

    def walk(v):
        for k in (v if isinstance(v, dict) else range(len(v))
                  if isinstance(v, list) else []):
            slots.append((v, k))
            walk(v[k])

    walk(header)
    box, key = slots[rng.integers(len(slots))]
    if kind == 0:
        box[key] = REPLACEMENTS[rng.integers(len(REPLACEMENTS))]
    elif kind == 1:
        del box[key]
    elif kind == 2 and type(box[key]) is int:
        box[key] += 1 if rng.integers(2) else -1
    elif isinstance(box, dict):
        box["x"] = box[key]
    else:
        box.append(box[key])
    return json.dumps(header).encode("utf-8")


@pytest.mark.parametrize("which", ["checkpoint", "base"])
def test_mutated_headers_raise_only_typed_errors(tmp_path, which):
    # each mutation is sealed, so it reaches the parser past the digest; a
    # mutated base is named after its digest and the checkpoint names it
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_checkpoint(moment_state(), good)
    base = base_of(good)
    head, raw, payload = split(read(good if which == "checkpoint" else base))
    rng = np.random.default_rng(27 if which == "checkpoint" else 28)
    raised = 0
    for _ in range(300):
        new = sealed(head, mutated(raw, rng)) + payload
        if which == "checkpoint":
            bad.write_bytes(new)
        else:
            mutant = base.parent / f"base-{new[16:24].hex()}.bin"
            mutant.write_bytes(new)
            edit_header(good, bad, lambda h: h.update(base=mutant.name))
        for with_optimizer in (True, False):
            try:
                load_checkpoint(bad, with_optimizer=with_optimizer)
            except MoetuneError:
                raised += 1
        if which == "base" and mutant != base:
            mutant.unlink()
    assert raised > 450  # most mutations break the file
