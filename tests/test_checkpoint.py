"""AURC checkpoints: bitwise round trips and typed errors on bad files."""

import errno
import json
import os
import struct
import subprocess
import sys

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
from moetune.errors import ConfigError, FormatError, IntegrityError
from moetune.lora import LoraConfig, attach_adapters
from moetune.model import ModelConfig, init_model
from moetune.quant import QuantizedAdam
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
    return TrainState(model=model, step=3, epoch=1, cursor=1)


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


def write_container(path, version: int, header) -> None:
    raw = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<I", version)
                + struct.pack("<Q", len(raw)) + raw)


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
    assert ((want.step, want.epoch, want.cursor)
            == (got.step, got.epoch, got.cursor))


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
    opt = QuantizedAdam(params)
    opt.state = loaded.optim_state
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


def test_version_3_is_rejected(tmp_path):
    # version 3 stored a pair of 1 x n moments per parameter, [name, n]
    # entries and the step counts in the trainer state
    def as_v3(header):
        optim = header["tensors"]["optim"]
        header["configs"]["trainer_state"]["optim_steps"] = {
            name: step for name, _, step in optim}
        header["tensors"]["optim"] = [[name, n] for name, n, _ in optim]

    good, old = tmp_path / "good.bin", tmp_path / "old.bin"
    save_checkpoint(moment_state(), good)
    edit_header(good, old, as_v3)
    raw = bytearray(read(old))
    raw[4:8] = struct.pack("<I", 3)
    old.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version 3"):
        load_checkpoint(old)


def test_version_1_is_rejected(tmp_path):
    # and version 2, whose header held an entry per tensor
    path = tmp_path / "old.bin"
    save_checkpoint(tiny_state(), path)
    raw = bytearray(read(path))
    for version in (1, 2):
        raw[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"version {version}"):
            load_checkpoint(path)


@pytest.mark.parametrize("header", [{"tensors": {}, "segments": {}},
                                    {"configs": {}, "segments": {}}, []])
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


def saved_and_edited(tmp_path, edit, state=None):
    """A checkpoint of `state` (tiny_state() by default) edited by edit."""
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_checkpoint(state or tiny_state(), good)
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


def entry(header, name: str, groups=("f32", "q4")) -> list:
    """The [name, shape] entry of `name` in the tensor table of `groups`."""
    for group in groups:
        for e in header["tensors"][group]:
            if e[0] == name:
                return e
    raise KeyError(name)


def segment(header, label: str) -> dict:
    """The segment table entry of "f32", "q4.codes", "optim.scales", ..."""
    group, _, part = label.partition(".")
    return header["segments"][group][part] if part else header["segments"][group]


def set_shape(name, shape):
    """Header edit: set (or, with shape MISSING, drop) a tensor's shape."""
    def edit(header):
        e = entry(header, name)
        if shape is MISSING:
            e.pop()
        else:
            e[1] = shape
    return edit


def set_segment(label, key, value):
    """Header edit: set (or, with value MISSING, drop) a field of a segment."""
    def edit(header):
        seg = segment(header, label)
        if value is MISSING:
            seg.pop(key)
        else:
            seg[key] = value
    return edit


def rename_group(header, old: str, new: str) -> None:
    header["tensors"][new] = header["tensors"].pop(old)
    header["segments"][new] = header["segments"].pop(old)


def set_optim(i: int, value):
    """Header edit: set (or, with value MISSING, drop) field i of the first
    optim entry [name, n, step]."""
    def edit(header):
        e = header["tensors"]["optim"][0]
        if value is MISSING:
            e.pop(i)
        else:
            e[i] = value
    return edit


# v2 stored a {dtype, shape, offset, length} entry per tensor; each of its
# cases keeps its id and is asked of the v4 header's counterpart: "dtype" of
# the group a tensor sits in and its block size, "offset" and "length" of
# the segment table, "shape" of a tensor's [name, shape] entry; the optim
# step cases of an optim entry [name, n, step]
@pytest.mark.parametrize("edit", [
    lambda h: h.update(tensors=list(h["tensors"].values())),
    lambda h: h["configs"].update(trainer_state=[3, 1, 1, 4]),
    set_optim(2, [0]),
    lambda h: h["tensors"]["f32"].__setitem__(0, {"embedding": [262, 16]}),
    lambda h: rename_group(h, "f32", "bf16"),
    set_segment("q4", "block_size", 0),
    set_segment("q4", "block_size", MISSING),
    set_segment("f32", "offset", MISSING),
    set_segment("q4.codes", "length", MISSING),
    set_shape("final_norm.weight", MISSING),
    set_segment("f32", "offset", -1024),
    set_segment("f32", "offset", True),
    set_segment("f32", "offset", "0"),
    set_segment("f32", "length", -4),
    set_shape("final_norm.weight", [-16]),
    set_shape("final_norm.weight", "16"),
    lambda h: h["configs"]["trainer_state"].update(step="3"),
    lambda h: h["configs"]["trainer_state"].update(cursor=-5),
    lambda h: h["configs"]["trainer_state"].update(epoch=True),
    set_optim(2, "2"),
    lambda h: h["configs"]["model"].update(n_heads=0),
    lambda h: h["configs"]["lora"].update(alpha=float("nan")),
    lambda h: h["configs"]["lora"].update(alpha=float("inf")),
    lambda h: h["configs"]["lora"].update(rank=2.5),
    lambda h: h["configs"]["lora"].update(rank=True),
    lambda h: h.update(segments=list(h["segments"].values())),
    lambda h: h["tensors"].pop("q4"),
    lambda h: (h["tensors"].pop("q4"), h["segments"].pop("q4")),
    set_segment("q4.scales", "crc32", MISSING),
    set_segment("q4.scales", "crc32", "0"),
    lambda h: h["segments"]["q4"].pop("codes"),
    set_shape(KERNEL, [256]),
    lambda h: entry(h, KERNEL).__setitem__(0, 7),
    set_optim(2, MISSING),
    set_optim(1, -16),
    set_optim(0, 7),
    set_segment("optim", "block_size", MISSING),
    lambda h: h["configs"].pop("trainer_state"),
    lambda h: h["configs"].update(trainer_state=None),
    lambda h: h["configs"]["trainer_state"].pop("step"),
], ids=["tensors-list", "trainer-state-list", "optim-steps-list",
        "entry-list", "unknown-dtype", "unknown-q4-block", "no-dtype",
        "no-offset", "no-length", "no-shape", "negative-offset",
        "bool-offset", "str-offset", "negative-length", "negative-shape",
        "str-shape", "str-step", "negative-cursor", "bool-epoch",
        "str-optim-step", "zero-heads", "nan-alpha", "inf-alpha",
        "fractional-rank", "bool-rank", "segments-list", "no-q4-tensors",
        "no-q4-group", "no-crc", "str-crc", "no-codes-segment",
        "1d-q4-shape", "int-name", "no-optim-step", "negative-optim-size",
        "int-optim-name", "no-optim-block", "no-trainer-state",
        "null-trainer-state", "no-step"])
def test_malformed_header_is_a_format_error(tmp_path, edit):
    with pytest.raises(FormatError):
        load_checkpoint(saved_and_edited(tmp_path, edit, moment_state()))


@pytest.mark.parametrize("name", ["final_norm.weight", KERNEL,
                                  "layers.0.moe.experts.1.w_up.lora_b"])
def test_missing_tensor_is_an_integrity_error(tmp_path, name):
    # the bytes stay; only the name the model asks for is gone
    path = saved_and_edited(
        tmp_path, lambda h: entry(h, name).__setitem__(0, f"{name}.gone"))
    with pytest.raises(IntegrityError, match=f"missing tensor {name}"):
        load_checkpoint(path)


def test_unknown_tensor_is_an_integrity_error(tmp_path):
    # an empty tensor takes no bytes, so every segment still adds up
    path = saved_and_edited(tmp_path, lambda h: h["tensors"]["f32"].append(
        ["layers.0.extra.weight", [0]]))
    with pytest.raises(IntegrityError, match="unknown tensors"):
        load_checkpoint(path)


def test_tensor_stored_twice_is_an_integrity_error(tmp_path):
    path = saved_and_edited(tmp_path, lambda h: entry(
        h, "layers.0.attn_norm.weight").__setitem__(0, "final_norm.weight"))
    with pytest.raises(IntegrityError, match="twice"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: segment(h, "f32").update(length=segment(h, "f32")["length"] - 4),
    set_segment("f32", "offset", 10 ** 9),
    set_shape("final_norm.weight", [4, 4]),
    lambda h: segment(h, "q4").update(block_size=32),
], ids=[f"edit{i}" for i in range(4)])
def test_entry_that_does_not_fit_is_an_integrity_error(tmp_path, edit):
    with pytest.raises(IntegrityError):
        load_checkpoint(saved_and_edited(tmp_path, edit))


def test_truncated_file_is_an_integrity_error(tmp_path):
    path = tmp_path / "cut.bin"
    save_checkpoint(tiny_state(), path)
    path.write_bytes(read(path)[:-100])
    with pytest.raises(IntegrityError, match="runs past the end"):
        load_checkpoint(path)


SEGMENTS = ["f32", "q4.codes", "q4.scales", "optim.codes", "optim.scales"]


def header_and_payload_start(raw: bytes) -> tuple[dict, int]:
    (header_len,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16:16 + header_len]), 16 + header_len


def flip_bit(src, dst, label: str) -> None:
    """Copy a checkpoint with one bit in the middle of a segment flipped."""
    raw = bytearray(read(src))
    header, base = header_and_payload_start(raw)
    seg = segment(header, label)
    raw[base + seg["offset"] + seg["length"] // 2] ^= 0x10
    dst.write_bytes(bytes(raw))


@pytest.mark.parametrize("label", SEGMENTS)
def test_flipped_payload_bit_is_an_integrity_error(tmp_path, label):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_checkpoint(moment_state(), good)
    flip_bit(good, bad, label)
    with pytest.raises(IntegrityError, match=f"segment {label}: CRC"):
        load_checkpoint(bad)


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
    name = "layers.0.attn.wq.lora_a"
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_checkpoint(moment_state(), good)
    edit_header(good, bad, lambda h: entry(h, name, ["optim"]).__setitem__(0, "other"))
    assert load_checkpoint(bad, with_optimizer=False).optim_state is None
    with pytest.raises(IntegrityError, match="optimizer state"):
        load_checkpoint(bad)


def test_saving_moments_of_other_parameters_is_a_config_error(tmp_path):
    # no load would accept the file, so none is written and the old one stays
    path = tmp_path / "ckpt.bin"
    save_checkpoint(tiny_state(), path)
    before = read(path)
    other = tiny_state()
    other.optim_state = QuantizedAdam(
        {"p": Tensor(np.zeros(3), requires_grad=True)}).state
    with pytest.raises(ConfigError, match="optimizer state .*'p', 3"):
        save_checkpoint(other, path)
    assert read(path) == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]


def test_optim_entries_in_another_order_are_an_integrity_error(tmp_path):
    # the flat layout is as long in any order, so only the names tell
    def swap(header):
        optim = header["tensors"]["optim"]
        optim[0], optim[1] = optim[1], optim[0]

    path = saved_and_edited(tmp_path, swap, moment_state())
    assert load_checkpoint(path, with_optimizer=False).optim_state is None
    with pytest.raises(IntegrityError, match="optimizer state .* position 0"):
        load_checkpoint(path)


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
# once it has printed "paused"
CHILD = """
import os, sys, time
from test_checkpoint import crash_run
from moetune.trainer import train

when, k, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
rename, calls = os.replace, []

def replace(src, dst):
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
                                    ("before", 5)])
def test_save_killed_midway_leaves_loadable_checkpoints(tmp_path, when, k):
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

    resumed = load_checkpoint(saved[-1])
    assert resumed.step == newest
    _, tail = train(resumed.model, corpus, cfg, out_dir=out_dir,
                    resume=resumed)
    assert not list(out_dir.glob("*.tmp"))
    assert ([(r.loss, r.grad_norm) for r in tail]
            == [(r.loss, r.grad_norm) for r in log[newest:]])
