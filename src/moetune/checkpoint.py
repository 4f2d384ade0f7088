"""Binary checkpoints with bit-exact round trips, in two files: what
training changes, and the frozen base it tunes.

A checkpoint file holds the configs, the trainable f32 tensors and the
optimizer moments. Its base file, in the same directory, holds the frozen
tensors: the 4-bit kernels and every f32 parameter without requires_grad.
A model with no frozen tensors has no base.

Layout of both files: magic ("AURC" for a checkpoint, "AURB" for a base),
version u32 LE, header-length u64 LE, digest, UTF-8 JSON header, then the
payload. The digest is the first 8 bytes of the SHA-256 of the magic, the
version and the JSON header; load checks it before it parses the header.

The header's "groups" holds one entry per group. The payload is the "f32"
group's run, then the "q4" or "optim" group's run: raw little-endian
arrays laid end to end, sealed by the entry's "crc32".

- "f32": "tensors" lists [name, shape] of the trainable f32 parameters in
  a checkpoint, of the frozen ones in a base; the run is their values.
- "q4" (base): "tensors" lists [name, [rows, cols]] of the 4-bit kernels.
- "optim" (checkpoint, only with optimizer state): "steps" holds the
  update count of each f32 parameter, in order; the run holds the Adam
  moments m and v, 1 x end over `quant.flat_offsets` of their sizes, in
  blocks of 64: a load rejects another "block_size".

A 4-bit group also stores its "block_size", and its run holds each
matrix's ceil(n / block_size) f32 scales, then each one's ceil(n / 2)
packed code bytes; the scales first keep the f32 view 4-byte aligned. A
run's length follows from its entry: a payload that is not the runs'
lengths summed, cut or with bytes appended, is an IntegrityError.

A checkpoint header also holds the config blocks and the trainer cursor
("configs") and its base ("base"): null without frozen tensors, else the
base's file name, "base-<the hex of its digest>.bin". A base header holds
its runs' CRCs, so every checkpoint saved into one directory from one
frozen base shares one base file. Copy or move a checkpoint together with
the base it names.

Adapters are `lora_a` [d_in, rank] and `lora_b` [rank, d_out], in the
[d_in, d_out] orientation of the kernel they sit on. Version 7 states each
fact once; versions 1 to 6 are rejected.

Save writes the base first, then the checkpoint. Each is written to
"{file}.tmp", synced, renamed over its name, and the directory synced, so
the base a checkpoint names is on disk before the checkpoint is. Save
writes the base only when no file of its name with its header and size is
there. It computes the base's "f32" CRC anew every time, so a frozen f32
tensor edited in place names a new base. It computes the "q4" entry and
run once per model, and keeps them while the model holds the same
QuantizedMatrix objects under the same names in the same order: a
QuantizedMatrix is frozen and its arrays are read-only, so a kernel never
changes. A base damaged after its save with its header and size intact is
left as it is; the load's CRC check finds it. Save deletes no base: one
that no checkpoint names any more stays until it is removed.

The loader checks each header and payload size first, then reads each run
it needs into its own buffer, checks its CRC and hands out numpy views of
it, writable for f32 tensors; `with_optimizer=False` reads no moment
bytes. It builds the model through `model.build_model` and
`lora.load_adapters`: each weight they ask for is taken once, at the shape
they ask for, and an f32 parameter trains exactly when the checkpoint's
own f32 group holds it. A
digest that does not match its header, a base that is missing or whose
digest is not its name's, a weight neither file holds or that no one asks
for, a CRC mismatch and a payload of the wrong size are IntegrityErrors.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import struct
import weakref
import zlib
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (ConfigError, FormatError, IntegrityError, check_path,
                     check_rules, check_type, count_rule, is_count)
from .lora import LoraConfig, adapter_config, load_adapters
from .model import DecoderModel, ModelConfig, build_model
from .quant import (DEFAULT_BLOCK_SIZE, AdamState, QuantizedMatrix,
                    flat_offsets)

if TYPE_CHECKING:
    from .trainer import TrainConfig

MAGIC = b"AURC"
BASE_MAGIC = b"AURB"
VERSION = 7
_PREFIX = struct.Struct("<4sIQ8s")  # magic, version, header length, digest
_BASE_FILE = re.compile(r"base-([0-9a-f]{16})\.bin")
_COUNTERS = ("step", "epoch", "cursor")
_Run = namedtuple("_Run", "offset names shapes block_size length crc32")
_Q4 = namedtuple("_Q4", "key entry arrays")
_q4_of = weakref.WeakKeyDictionary()  # model -> the _Q4 of its last save


@dataclass
class TrainState:
    """Everything needed to resume training bit-exactly.

    The adapter config is the one attached to `model`; `optim_state` holds
    the Adam moments and step counts of its trainable parameters.
    """

    model: DecoderModel
    train_config: TrainConfig | None = None
    optim_state: AdamState | None = None
    step: int = 0
    epoch: int = 0
    cursor: int = 0  # steps done in `epoch`, all of them once it has ended


def _run(blobs: list, arrays: list[np.ndarray], **entry) -> dict:
    """Append one group's run to `blobs`; its header entry, with its CRC."""
    crc = 0
    for a in arrays:
        crc = zlib.crc32(a, crc)
    blobs.extend(arrays)
    return {**entry, "crc32": crc}


def _f32_run(blobs: list, tensors: dict) -> dict:
    return _run(blobs, [np.ascontiguousarray(t.data, dtype="<f4")
                        for t in tensors.values()],
                tensors=[[n, list(t.shape)] for n, t in tensors.items()])


def _q4_run(blobs: list, group: str, qs: list[QuantizedMatrix],
            **entry) -> dict:
    sizes = {q.block_size for q in qs} or {DEFAULT_BLOCK_SIZE}
    if len(sizes) > 1:
        raise FormatError(f"{group}: block sizes {sorted(sizes)} differ; "
                          f"a checkpoint stores one per group")
    return _run(blobs, [np.ascontiguousarray(q.scales, dtype="<f4")
                        for q in qs] + [q.codes for q in qs],
                block_size=sizes.pop(), **entry)


def _q4_base(model: DecoderModel, kernels: dict) -> tuple[dict, list]:
    """The base's "q4" entry and run of `model`'s `kernels`: those of its
    last save while it holds the same QuantizedMatrix objects under the same
    names in the same order (a matrix compares by identity)."""
    key = list(kernels.items())
    memo = _q4_of.get(model)
    if memo is None or memo.key != key:
        arrays = []
        entry = _q4_run(arrays, "q4", list(kernels.values()),
                        tensors=[[n, list(q.shape)] for n, q in key])
        memo = _q4_of[model] = _Q4(key, entry, arrays)
    return memo.entry, memo.arrays


def _digest(magic: bytes, raw: bytes) -> bytes:
    """The first 8 bytes of the SHA-256 of magic, VERSION and JSON header."""
    return hashlib.sha256(struct.pack("<4sI", magic, VERSION)
                          + raw).digest()[:8]


def _head(magic: bytes, header: dict) -> bytes:
    """The prefix and JSON header of a file, the prefix's digest theirs."""
    raw = json.dumps(header, ensure_ascii=False, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return _PREFIX.pack(magic, VERSION, len(raw), _digest(magic, raw)) + raw


def _write(path: str, data: bytes) -> None:
    """Replace the file at absolute `path` by `data`, atomically and durably.

    A sibling "{path}.tmp" is written, synced and renamed over `path`, and
    the directory synced: a crash or a failed write leaves the previous file
    whole, and a power loss cannot persist the rename without the data. A
    write that fails removes the sibling; one killed midway leaves it, and
    the next write of `path` overwrites it.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    fd = os.open(os.path.dirname(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _holds(path: str, head: bytes, size: int) -> bool:
    """Whether a file of `size` bytes that starts with `head` is at `path`."""
    try:
        with open(path, "rb") as f:
            return (os.fstat(f.fileno()).st_size == size
                    and f.read(len(head)) == head)
    except FileNotFoundError:
        return False


def save_checkpoint(state: TrainState, path) -> None:
    """Serialize the trainable tensors, optimizer moments, train config and
    cursor to `path`, and the frozen tensors to the base that `path` names.

    The base is written first, and only when its directory lacks it. Each
    file is replaced atomically (see the module docstring); a save killed
    midway leaves a "{file}.tmp" that the next save of that file overwrites.
    A path that is not a str, bytes or os.PathLike, a state that is not a
    TrainState, a model that is not a DecoderModel, a train_config that is
    not None or a TrainConfig, a step, epoch or cursor that is not an
    int >= 0, and an `optim_state` that is not None or an AdamState of the
    model's trainable parameters (see `AdamState.mismatch`: short steps or
    moments are caught there) are ConfigErrors, raised before anything is
    written: no load would accept the file.
    """
    from .trainer import TrainConfig  # trainer imports this module

    path = os.path.abspath(check_path(path))
    check_type("state", state, TrainState)
    check_type("state.model", state.model, DecoderModel)
    check_type("state.train_config", state.train_config, TrainConfig, True)
    check_rules(state, [count_rule(state, name, 0) for name in _COUNTERS])
    model = state.model
    params = model.named_parameters()
    trainable = {n: t for n, t in params.items() if t.requires_grad}
    frozen = {n: t for n, t in params.items() if not t.requires_grad}
    kernels = model.named_quantized()
    optim = state.optim_state
    check_type("state.optim_state", optim, AdamState, True)
    if optim is not None:
        why = optim.mismatch(trainable)
        if why is not None:
            raise ConfigError(f"optimizer state {why}")

    name = None
    if frozen or kernels:
        base = []
        q4, q4_run = _q4_base(model, kernels)
        base_head = _head(BASE_MAGIC, {"groups": {
            "f32": _f32_run(base, frozen), "q4": q4}})
        base += q4_run
        name = f"base-{_PREFIX.unpack_from(base_head)[3].hex()}.bin"

    own = []
    groups = {"f32": _f32_run(own, trainable)}
    if optim is not None:
        groups["optim"] = _q4_run(own, "optim", [optim.m, optim.v],
                                  steps=list(optim.steps))
    lora_cfg = adapter_config(model)
    train_cfg = state.train_config
    head = _head(MAGIC, {
        "configs": {
            "model": model.config.to_dict(),
            "lora": lora_cfg.to_dict() if lora_cfg else None,
            "train": train_cfg.to_dict() if train_cfg else None,
            "trainer_state": {n: int(getattr(state, n)) for n in _COUNTERS},
        },
        "groups": groups,
        "base": name,
    })
    if name is not None:
        base_path = os.path.join(os.path.dirname(path), name)
        size = len(base_head) + sum(a.nbytes for a in base)
        if not _holds(base_path, base_head, size):
            _write(base_path, b"".join([base_head, *base]))
    _write(path, b"".join([head, *own]))


def _layout(where: str, group: str, meta, sizes: list[int] | None):
    """Names, shapes and block size of one group's tensors, and its run's
    length, from its header entry `meta`; FormatError if that is malformed.
    "optim" has no names, and its two flat moments span the `sizes` of the
    f32 group's parameters."""
    if not (isinstance(meta, dict) and is_count(meta.get("crc32"))):
        raise FormatError(f"{where}: group {group} lacks a crc32")
    bs = meta.get("block_size")
    if group != "f32" and not (is_count(bs, 1) and (
            group == "q4" or bs == DEFAULT_BLOCK_SIZE)):
        raise FormatError(f"{where}: group {group} lacks a valid block size")
    if group == "optim":
        steps = meta.get("steps")
        if not (isinstance(steps, list) and all(map(is_count, steps))
                and len(steps) == len(sizes)):
            raise FormatError(f"{where}: optim steps must be {len(sizes)} "
                              f"counts, one per f32 parameter")
        names, shapes = None, [(1, flat_offsets(sizes)[-1])] * 2
    else:
        entries = meta.get("tensors")
        if not isinstance(entries, list):
            raise FormatError(f"{where}: tensors of {group} must be a list")
        for e in entries:  # [name, shape], 2-D in q4
            if not (isinstance(e, list) and len(e) == 2
                    and isinstance(e[0], str) and isinstance(e[1], list)
                    and all(map(is_count, e[1]))
                    and (group == "f32" or len(e[1]) == 2)):
                raise FormatError(f"{where}: malformed {group} entry {e!r}")
        names, shapes = [e[0] for e in entries], [tuple(e[1]) for e in entries]
    ns = list(map(math.prod, shapes))
    if group == "f32":
        return names, shapes, None, 4 * sum(ns)
    return names, shapes, bs, sum(4 * ((n + bs - 1) // bs) + (n + 1) // 2
                                  for n in ns)


def _header(f, where: str, magic: bytes, keys: set[str], groups: set[str],
            optional: set[str] = frozenset()):
    """The header of an open file, its digest, checked before the header
    is parsed, and each group's `_Run`. The header must hold `keys` and
    "groups", which maps every one of `groups` and may map the `optional`
    ones; IntegrityError unless the payload is exactly the runs laid end
    to end."""
    size = os.fstat(f.fileno()).st_size
    prefix = f.read(_PREFIX.size)
    if len(prefix) < _PREFIX.size or prefix[:4] != magic:
        raise FormatError(f"{where}: bad magic (not a {magic.decode()} file)")
    _, version, header_len, digest = _PREFIX.unpack(prefix)
    if version != VERSION:
        raise FormatError(f"{where}: unsupported version {version}")
    start = _PREFIX.size + header_len
    if start > size:
        raise IntegrityError(f"{where}: truncated header")
    raw = f.read(header_len)
    if _digest(magic, raw) != digest:
        raise IntegrityError(f"{where}: header digest mismatch")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"{where}: unreadable header ({e})") from e
    keys = keys | {"groups"}
    if not (isinstance(header, dict) and keys <= header.keys()):
        raise FormatError(f"{where}: header lacks one of {sorted(keys)}")
    metas = header["groups"]
    if not (isinstance(metas, dict)
            and groups <= metas.keys() <= groups | optional):
        raise FormatError(f"{where}: groups must map {sorted(groups)} and "
                          f"may map {sorted(optional)}")
    runs, at, sizes = {}, start, None
    for g in sorted(metas):  # "f32" first, and its sizes lay out "optim"
        names, shapes, bs, length = _layout(where, g, metas[g], sizes)
        if g == "f32":
            sizes = [math.prod(s) for s in shapes]
        runs[g] = _Run(at, names, shapes, bs, length, metas[g]["crc32"])
        at += length
    if at != size:
        raise IntegrityError(f"{where}: payload holds {size - start} bytes, "
                             f"its groups {at - start}")
    return header, runs, digest


def _cut(flat: np.ndarray, counts) -> list[np.ndarray]:
    """Consecutive views of `flat`, of `counts` elements each."""
    ends = [0, *itertools.accumulate(counts)]
    return [flat[lo:hi] for lo, hi in zip(ends, ends[1:])]


def _read(f, where: str, group: str, run: _Run) -> list:
    """One group's tensors, in order, as views of a buffer of their own,
    CRC-checked: f32 arrays, or QuantizedMatrix when it has a block size."""
    shapes, bs = run.shapes, run.block_size
    buf = bytearray(run.length)  # `_header` found the file holds all of it
    f.seek(run.offset)
    f.readinto(buf)
    if zlib.crc32(buf) != run.crc32:
        raise IntegrityError(f"{where}: group {group}: CRC mismatch")
    if bs is None:
        return [a.reshape(s) for a, s in zip(_cut(
            np.frombuffer(buf, dtype="<f4"), map(math.prod, shapes)), shapes)]
    ns = [r * c for r, c in shapes]
    n_scales = [(n + bs - 1) // bs for n in ns]
    scales = np.frombuffer(buf, dtype="<f4", count=sum(n_scales))
    codes = np.frombuffer(buf, dtype=np.uint8, offset=scales.nbytes)
    return [QuantizedMatrix(r, c, bs, code, scale) for (r, c), scale, code
            in zip(shapes, _cut(scales, n_scales),
                   _cut(codes, [(n + 1) // 2 for n in ns]))]


def _load_base(path: str, file) -> list:
    """The frozen tensors as (name, tensor) pairs, read from the base `file`
    that the checkpoint at `path` names, whose digest that name holds."""
    match = _BASE_FILE.fullmatch(file) if isinstance(file, str) else None
    if match is None:
        raise FormatError(f"{path}: malformed base reference {file!r}")
    where = os.path.join(os.path.dirname(path), file)
    try:
        f = open(where, "rb")
    except FileNotFoundError:
        raise IntegrityError(f"{path}: base {where} is missing") from None
    with f:
        _, runs, digest = _header(f, f"base {where}", BASE_MAGIC, set(),
                                  {"f32", "q4"})
        if digest.hex() != match[1]:
            raise IntegrityError(f"base {where}: header digest "
                                 f"{digest.hex()} is not its name's")
        return [pair for g, run in runs.items()
                for pair in zip(run.names, _read(f, f"base {where}", g, run))]


def load_checkpoint(path, with_optimizer: bool = True) -> TrainState:
    """Rebuild a TrainState from a checkpoint and its base; load(save(x))
    reproduces training bit-exactly, with the same parameters trainable.

    The base is read from the directory of `path`, from the file the
    checkpoint names; the digest in that name must be the base's own. The
    optimizer state is the f32 group's names and sizes with the optim
    group's steps and moments. With `with_optimizer=False` the moments are
    not read and `optim_state` is None, as it is for a file saved without
    them. A path that is not a str, bytes or os.PathLike, and a
    `with_optimizer` that is not a bool, are ConfigErrors, raised before
    anything is opened.
    """
    from .trainer import TrainConfig  # trainer imports this module

    path = check_path(path)
    check_type("with_optimizer", with_optimizer, bool)
    with open(path, "rb") as f:
        header, runs, _ = _header(f, path, MAGIC, {"configs", "base"},
                                  {"f32"}, {"optim"})
        configs = header["configs"]
        if not isinstance(configs, dict):
            raise FormatError(f"{path}: configs must be a dict")
        try:
            model_cfg = ModelConfig.from_dict(configs.get("model"))
            lora_cfg = (LoraConfig.from_dict(configs["lora"])
                        if configs.get("lora") else None)
            train_cfg = (TrainConfig.from_dict(configs["train"])
                         if configs.get("train") is not None else None)
        except ConfigError as e:
            raise FormatError(f"{path}: malformed configs block ({e})") from e
        ts = configs.get("trainer_state")
        counters = [ts.get(n) for n in _COUNTERS if isinstance(ts, dict)]
        if not (counters and all(map(is_count, counters))):
            raise FormatError(f"{path}: trainer_state must hold a step, epoch "
                              f"and cursor, each an int >= 0")
        own = list(zip(runs["f32"].names, _read(f, path, "f32", runs["f32"])))
        moments = (_read(f, path, "optim", runs["optim"])
                   if with_optimizer and "optim" in runs else None)

    pairs = [] if header["base"] is None else _load_base(path, header["base"])
    pairs += own
    stored = dict(pairs)
    if len(stored) != len(pairs):
        raise IntegrityError(f"{path}: a tensor name is stored twice")
    unused = set(stored)

    def weight(name: str, shape: tuple[int, ...]):
        if name not in stored:
            raise IntegrityError(f"{path}: missing tensor {name}")
        if stored[name].shape != tuple(shape):
            raise IntegrityError(f"{path}: {name} shape "
                                 f"{stored[name].shape} != {tuple(shape)}")
        unused.discard(name)
        return stored[name]

    model = build_model(model_cfg, weight)
    if lora_cfg is not None:
        load_adapters(model, lora_cfg, weight)
    if unused:
        raise IntegrityError(f"{path}: unknown tensors {sorted(unused)[:4]}")
    params, trains = model.named_parameters(), {n for n, _ in own}
    for n, t in params.items():
        t.requires_grad = n in trains

    state = TrainState(model=model, train_config=train_cfg,
                       **dict(zip(_COUNTERS, counters)))
    if moments is not None:
        optim = AdamState(tuple(n for n, _ in own),
                          tuple(t.size for _, t in own),
                          tuple(header["groups"]["optim"]["steps"]), *moments)
        why = optim.mismatch({n: params[n] for n in params if n in trains})
        if why is not None:
            raise IntegrityError(f"{path}: optimizer state {why}")
        state.optim_state = optim
    return state
