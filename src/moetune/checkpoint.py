"""Binary checkpoint container with bit-exact round trips.

Layout: magic "AURC" (4 bytes), version u32 LE, header-length u64 LE, UTF-8
JSON header, then the payload: five flat segments at most, each a run of
raw little-endian arrays laid end to end.

The header holds the config blocks and the trainer cursor ("configs"), the
ordered names and shapes of each group's tensors ("tensors") and the
segment table ("segments"). The groups are:

- "f32": every f32 parameter (base weights and adapters), as [name, shape];
  its segment is their values;
- "q4": the frozen 4-bit kernels, as [name, [rows, cols]];
- "optim" (only with optimizer state): the trainable parameters in order,
  as [name, size, update count]; its matrices are the Adam moments m and v
  as the optimizer holds them, 1 x end over `quant.flat_offsets`.

A 4-bit group has two segments, "codes" (each matrix's ceil(n / 2) packed
code bytes) and "scales" (its ceil(n / block_size) f32 block scales), and
stores its "block_size" beside them. Each segment is {offset, length,
crc32}, its offset counted from the payload start. A tensor starts where
the one before it in its group ends, so no per-tensor offset is stored.

Adapters are `lora_a` [d_in, rank] and `lora_b` [rank, d_out], in the
[d_in, d_out] orientation of the kernel they sit on. Version 4 replaced
version 3's moments per parameter; versions 1 to 3 are rejected.

The loader checks the whole header first, then reads each segment it needs
into its own buffer, checks its CRC and hands out writable numpy views of
it; `with_optimizer=False` reads neither optim segment. It builds the model
through `model.build_model` and `lora.load_adapters`: each weight they ask
for is taken once, at the shape they ask for. A weight the file lacks or
that no one asks for, a CRC mismatch, and a segment that runs past the file
or whose length is not that of its tensors are IntegrityErrors.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, IntegrityError, is_count
from .lora import LoraConfig, adapter_config, load_adapters
from .model import DecoderModel, ModelConfig, build_model
from .quant import (DEFAULT_BLOCK_SIZE, AdamState, QuantizedMatrix,
                    flat_offsets)

MAGIC = b"AURC"
VERSION = 4
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length


@dataclass
class TrainState:
    """Everything needed to resume training bit-exactly.

    The adapter config is the one attached to `model`; `optim_state` holds
    the Adam moments and step counts of its trainable parameters.
    """

    model: DecoderModel
    train_config: dict | None = None
    optim_state: AdamState | None = None
    step: int = 0
    epoch: int = 0
    cursor: int = 0  # steps done in `epoch`, all of them once it has ended


def save_checkpoint(state: TrainState, path) -> None:
    """Serialize model weights, adapters, optimizer moments and the cursor.

    The file at `path` is replaced atomically: it holds either the previous
    checkpoint or the new one, never a partial write. The new file is
    written to `{path}.tmp` and synced, then renamed over `path`, and the
    directory is synced; a save killed midway leaves that file behind, and
    the next save of `path` overwrites it. An `optim_state` of other
    parameters than the model's trainable ones is a ConfigError, raised
    before anything is written: no load would accept the file.
    """
    model = state.model
    params = model.named_parameters()
    kernels = model.named_quantized()
    optim = state.optim_state
    if optim is not None:
        why = optim.mismatch(model.trainable_parameters())
        if why is not None:
            raise ConfigError(f"optimizer state {why}")
    tensors = {"f32": [[n, list(t.shape)] for n, t in params.items()],
               "q4": [[n, [q.rows, q.cols]] for n, q in kernels.items()]}
    matrices = {"q4": list(kernels.values())}
    if optim is not None:
        tensors["optim"] = [list(e) for e in zip(optim.names, optim.sizes,
                                                 optim.steps)]
        matrices["optim"] = [optim.m, optim.v]

    blobs: list[np.ndarray] = []
    end = 0

    def segment(arrays: list[np.ndarray]) -> dict:
        nonlocal end
        crc = 0
        for a in arrays:
            crc = zlib.crc32(a, crc)
        length = sum(a.nbytes for a in arrays)
        blobs.extend(arrays)
        end += length
        return {"offset": end - length, "length": length, "crc32": crc}

    segments = {"f32": segment([np.ascontiguousarray(t.data, dtype="<f4")
                                for t in params.values()])}
    for group, qs in matrices.items():
        sizes = {q.block_size for q in qs} or {DEFAULT_BLOCK_SIZE}
        if len(sizes) > 1:
            raise FormatError(f"{group}: block sizes {sorted(sizes)} differ; "
                              f"a checkpoint stores one per group")
        segments[group] = {
            "block_size": sizes.pop(),
            "codes": segment([q.codes for q in qs]),
            "scales": segment([np.ascontiguousarray(q.scales, dtype="<f4")
                               for q in qs])}

    lora_cfg = adapter_config(model)
    header = {
        "configs": {
            "model": model.config.to_dict(),
            "lora": lora_cfg.to_dict() if lora_cfg else None,
            "train": state.train_config,
            "trainer_state": {"step": state.step, "epoch": state.epoch,
                              "cursor": state.cursor},
        },
        "tensors": tensors,
        "segments": segments,
    }
    raw = json.dumps(header, ensure_ascii=False, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    data = b"".join([_PREFIX.pack(MAGIC, VERSION, len(raw)), raw, *blobs])
    # write a sibling file and rename it over the target, so that a crash
    # or a failed write leaves the previous checkpoint whole; the syncs keep
    # a power loss from persisting the rename without the data
    path = os.fspath(path)
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
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _layout(where: str, group: str, entries, meta, room: int):
    """Entries, shapes, block size and segment spans of one group, checked.

    A span is (where, offset, length, crc32); "optim" has the shapes of its
    two flat moments. FormatError for a malformed entry or segment;
    IntegrityError if a segment runs past the `room` payload bytes or its
    length is not that of its tensors.
    """
    if not isinstance(entries, list):
        raise FormatError(f"{where}: tensors of {group} must be a list")
    for entry in entries:
        if group == "optim":  # [name, n, step]
            ok = (isinstance(entry, list) and len(entry) == 3
                  and all(map(is_count, entry[1:])))
        else:  # [name, shape], 2-D in q4
            ok = (isinstance(entry, list) and len(entry) == 2
                  and isinstance(entry[1], list)
                  and all(map(is_count, entry[1]))
                  and (group == "f32" or len(entry[1]) == 2))
        if not (ok and isinstance(entry[0], str)):
            raise FormatError(f"{where}: malformed {group} entry {entry!r}")

    if group != "f32" and not (isinstance(meta, dict)
                               and is_count(meta.get("block_size"), 1)):
        raise FormatError(f"{where}: {group} segments lack a block size")
    block_size = None if group == "f32" else meta["block_size"]
    shapes = ([(1, flat_offsets([e[1] for e in entries], block_size)[-1])] * 2
              if group == "optim" else [tuple(e[1]) for e in entries])
    if group == "f32":
        want = {"f32": (meta, 4 * sum(map(math.prod, shapes)))}
    else:
        sizes = [r * c for r, c in shapes]
        want = {f"{group}.codes": (meta.get("codes"),
                                   sum((n + 1) // 2 for n in sizes)),
                f"{group}.scales": (meta.get("scales"), 4 * sum(
                    (n + block_size - 1) // block_size for n in sizes))}
    spans = []
    for label, (span, length) in want.items():
        if not (isinstance(span, dict) and all(
                is_count(span.get(k)) for k in ("offset", "length", "crc32"))):
            raise FormatError(f"{where}: malformed segment {label} {span!r}")
        if span["offset"] + span["length"] > room:
            raise IntegrityError(f"{where}: segment {label} runs past the "
                                 f"end of the file")
        if span["length"] != length:
            raise IntegrityError(f"{where}: segment {label} holds "
                                 f"{span['length']} bytes, its tensors {length}")
        spans.append((f"{where}: segment {label}", span["offset"], length,
                      span["crc32"]))
    return entries, shapes, block_size, spans


def _read(f, base: int, span) -> bytearray:
    """The bytes of one segment, CRC-checked, in a buffer of their own."""
    where, offset, length, crc = span
    buf = bytearray(length)
    f.seek(base + offset)
    if f.readinto(buf) != length:
        raise IntegrityError(f"{where}: truncated")
    if zlib.crc32(buf) != crc:
        raise IntegrityError(f"{where}: CRC mismatch")
    return buf


def _tensors(f, base: int, shapes, block_size, spans) -> list:
    """One group's tensors, in order, as views of its segments' buffers:
    f32 arrays, or QuantizedMatrix when the group has a block size."""
    out = []
    if block_size is None:
        flat = np.frombuffer(_read(f, base, spans[0]), dtype="<f4")
        at = 0
        for shape in shapes:
            n = math.prod(shape)
            out.append(flat[at:at + n].reshape(shape))
            at += n
        return out
    codes = np.frombuffer(_read(f, base, spans[0]), dtype=np.uint8)
    scales = np.frombuffer(_read(f, base, spans[1]), dtype="<f4")
    at_code = at_scale = 0
    for rows, cols in shapes:
        n = rows * cols
        n_codes, n_scales = (n + 1) // 2, (n + block_size - 1) // block_size
        out.append(QuantizedMatrix(rows, cols, block_size,
                                   codes[at_code:at_code + n_codes],
                                   scales[at_scale:at_scale + n_scales]))
        at_code += n_codes
        at_scale += n_scales
    return out


def load_checkpoint(path, with_optimizer: bool = True) -> TrainState:
    """Rebuild a TrainState; load(save(x)) reproduces training bit-exactly.

    With `with_optimizer=False` the moments are not read and `optim_state`
    is None, as it is for a file saved without them.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        prefix = f.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size or prefix[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic (not a checkpoint)")
        _, version, header_len = _PREFIX.unpack(prefix)
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        base = _PREFIX.size + header_len
        if base > size:
            raise IntegrityError(f"{path}: truncated header")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise FormatError(f"{path}: unreadable header ({e})") from e
        if not (isinstance(header, dict)
                and {"configs", "tensors", "segments"} <= header.keys()):
            raise FormatError(f"{path}: header lacks configs, tensors or "
                              f"segments")

        configs = header["configs"]
        try:
            model_cfg = ModelConfig.from_dict(configs["model"])
            lora_cfg = (LoraConfig.from_dict(configs["lora"])
                        if configs.get("lora") else None)
        except (AttributeError, ConfigError, KeyError, TypeError) as e:
            raise FormatError(f"{path}: malformed configs block ({e!r})") from e
        ts = configs.get("trainer_state")
        if not (isinstance(ts, dict)
                and {"step", "epoch", "cursor"} <= ts.keys()):
            raise FormatError(f"{path}: trainer_state lacks step, epoch or cursor")
        step, epoch, cursor = ts["step"], ts["epoch"], ts["cursor"]
        if not all(map(is_count, [step, epoch, cursor])):
            raise FormatError(f"{path}: trainer_state counters must be "
                              f"non-negative ints")

        tensors, segments = header["tensors"], header["segments"]
        if not (isinstance(tensors, dict) and isinstance(segments, dict)
                and tensors.keys() == segments.keys()
                and {"f32", "q4"} <= tensors.keys() <= {"f32", "q4", "optim"}):
            raise FormatError(f"{path}: tensors and segments must both map "
                              f"f32, q4 and optionally optim")
        layout = {g: _layout(str(path), g, tensors[g], segments[g],
                             size - base) for g in tensors}
        groups = {g: (entries, _tensors(f, base, *rest))
                  for g, (entries, *rest) in layout.items()
                  if g != "optim" or with_optimizer}

    stored = {e[0]: t for g in ("f32", "q4") for e, t in zip(*groups[g])}
    if len(stored) != len(groups["f32"][0]) + len(groups["q4"][0]):
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

    state = TrainState(model=model, train_config=configs.get("train"),
                       step=step, epoch=epoch, cursor=cursor)
    if "optim" in groups:
        entries, (m, v) = groups["optim"]
        optim = AdamState([e[0] for e in entries], [e[1] for e in entries],
                          [e[2] for e in entries], m, v)
        why = optim.mismatch(model.trainable_parameters())
        if why is not None:
            raise IntegrityError(f"{path}: optimizer state {why}")
        state.optim_state = optim
    return state
