"""Binary checkpoints with bit-exact round trips, in two files: what
training changes, and the frozen base it tunes.

A checkpoint file holds the configs, the trainable f32 tensors and the
optimizer moments. Its base file, in the same directory, holds the frozen
tensors: the 4-bit kernels and every f32 parameter without requires_grad.
A model with no frozen tensors has no base.

Layout of both files: magic ("AURC" for a checkpoint, "AURB" for a base),
version u32 LE, header-length u64 LE, digest, UTF-8 JSON header, then the
payload: at most three flat segments, each a run of raw little-endian
arrays laid end to end. The digest is the first 8 bytes of the SHA-256 of
the magic, the version and the JSON header. Load checks it before it
parses the header, and so finds an edit that leaves the header valid.

Both headers hold the ordered names and shapes of each group's tensors
("tensors") and the segment table ("segments"). The groups are:

- "f32": f32 parameters as [name, shape], the trainable ones in a
  checkpoint and the frozen ones in a base; its segment is their values;
- "q4" (base): the frozen 4-bit kernels, as [name, [rows, cols]];
- "optim" (checkpoint, only with optimizer state): the trainable
  parameters in order, as [name, size, update count]; its matrices are the
  Adam moments m and v as the optimizer holds them, 1 x end over
  `quant.flat_offsets`.

A 4-bit group has two segments, "codes" (each matrix's ceil(n / 2) packed
code bytes) and "scales" (its ceil(n / block_size) f32 block scales), and
stores its "block_size" beside them. Each segment is {offset, length,
crc32}, its offset counted from the payload start. A tensor starts where
the one before it in its group ends, so no per-tensor offset is stored.

A checkpoint header also holds the config blocks and the trainer cursor
("configs") and its base ("base"): null without frozen tensors, else the
base's file name, "base-<the hex of its digest>.bin". A base header holds
its segments' CRCs, so every checkpoint saved into one directory from one
frozen base shares one base file. Copy or move a checkpoint together with
the base it names.

Adapters are `lora_a` [d_in, rank] and `lora_b` [rank, d_out], in the
[d_in, d_out] orientation of the kernel they sit on. Version 6 added the
digest and made the base reference a name; versions 1 to 5 are rejected.

Save writes the base first, then the checkpoint. Each is written to
"{file}.tmp", synced, renamed over its name, and the directory synced, so
the base a checkpoint names is on disk before the checkpoint is. Save
computes the base's CRCs anew every time and writes the base only when no
file of its name with its header and size is there. A base damaged after
its save with its header and size intact is left as it is; the load's CRC
check finds it. Save deletes no base: one that no checkpoint names any
more stays until it is removed.

The loader checks each header first, then reads each segment it needs into
its own buffer, checks its CRC and hands out writable numpy views of it;
`with_optimizer=False` reads neither optim segment. It builds the model
through `model.build_model` and `lora.load_adapters`: each weight they ask
for is taken once, at the shape they ask for. A digest that does not
match its header, a base that is missing or whose digest is not its
name's, a weight neither file holds or that no one asks for, a CRC
mismatch, and a segment that runs past its file or whose length is not
that of its tensors are IntegrityErrors.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, FormatError, IntegrityError, check_rules,
                     check_type, count_rule, is_count)
from .lora import LoraConfig, adapter_config, load_adapters
from .model import DecoderModel, ModelConfig, build_model
from .quant import (DEFAULT_BLOCK_SIZE, AdamState, QuantizedMatrix,
                    flat_offsets)

MAGIC = b"AURC"
BASE_MAGIC = b"AURB"
VERSION = 6
_PREFIX = struct.Struct("<4sIQ8s")  # magic, version, header length, digest
_BASE_FILE = re.compile(r"base-([0-9a-f]{16})\.bin")
_COUNTERS = ("step", "epoch", "cursor")


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


def _file_path(path) -> str:
    """`path` as a str; ConfigError unless it is a str, bytes or PathLike
    (a file descriptor names no directory for the base)."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ConfigError(f"checkpoint path must be a str, bytes or "
                          f"os.PathLike, got {type(path).__name__}")
    return os.fsdecode(path)


class _Payload:
    """Segments laid end to end: their arrays, and their table entries."""

    def __init__(self):
        self.blobs: list[np.ndarray] = []
        self.end = 0

    def segment(self, arrays: list[np.ndarray]) -> dict:
        crc = 0
        for a in arrays:
            crc = zlib.crc32(a, crc)
        length = sum(a.nbytes for a in arrays)
        self.blobs.extend(arrays)
        self.end += length
        return {"offset": self.end - length, "length": length, "crc32": crc}

    def f32(self, tensors) -> dict:
        return self.segment([np.ascontiguousarray(t.data, dtype="<f4")
                             for t in tensors])

    def q4(self, group: str, qs: list[QuantizedMatrix]) -> dict:
        sizes = {q.block_size for q in qs} or {DEFAULT_BLOCK_SIZE}
        if len(sizes) > 1:
            raise FormatError(f"{group}: block sizes {sorted(sizes)} differ; "
                              f"a checkpoint stores one per group")
        return {"block_size": sizes.pop(),
                "codes": self.segment([q.codes for q in qs]),
                "scales": self.segment([np.ascontiguousarray(q.scales,
                                                             dtype="<f4")
                                        for q in qs])}


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
    """Serialize adapters, optimizer moments and the cursor to `path`, and
    the frozen tensors to the base beside it, which `path` names.

    The base is written first, and only when its directory lacks it (see
    the module docstring). Each file is replaced atomically: `path` holds
    either the previous checkpoint or the new one, never a partial write,
    and the base it names is durable before it. A save killed midway leaves
    a "{file}.tmp" behind, which the next save of that file overwrites. A
    path that is not a str, bytes or os.PathLike, a state that is not a
    TrainState, a model that is not a DecoderModel, a step, epoch or cursor
    that is not an int >= 0, and an `optim_state` of other parameters than
    the model's trainable ones are ConfigErrors, raised before anything is
    written: no load would accept the file.
    """
    path = os.path.abspath(_file_path(path))
    check_type("state", state, TrainState)
    check_type("state.model", state.model, DecoderModel)
    check_rules(state, [count_rule(state, name, 0) for name in _COUNTERS])
    model = state.model
    params = model.named_parameters()
    trainable = {n: t for n, t in params.items() if t.requires_grad}
    frozen = {n: t for n, t in params.items() if not t.requires_grad}
    kernels = model.named_quantized()
    optim = state.optim_state
    if optim is not None:
        why = optim.mismatch(trainable)
        if why is not None:
            raise ConfigError(f"optimizer state {why}")

    base = name = None
    if frozen or kernels:
        base = _Payload()
        base_head = _head(BASE_MAGIC, {
            "tensors": {"f32": [[n, list(t.shape)] for n, t in frozen.items()],
                        "q4": [[n, [q.rows, q.cols]]
                               for n, q in kernels.items()]},
            "segments": {"f32": base.f32(frozen.values()),
                         "q4": base.q4("q4", list(kernels.values()))}})
        name = f"base-{_PREFIX.unpack_from(base_head)[3].hex()}.bin"

    own = _Payload()
    tensors = {"f32": [[n, list(t.shape)] for n, t in trainable.items()]}
    segments = {"f32": own.f32(trainable.values())}
    if optim is not None:
        tensors["optim"] = [list(e) for e in zip(optim.names, optim.sizes,
                                                 optim.steps)]
        segments["optim"] = own.q4("optim", [optim.m, optim.v])
    lora_cfg = adapter_config(model)
    head = _head(MAGIC, {
        "configs": {
            "model": model.config.to_dict(),
            "lora": lora_cfg.to_dict() if lora_cfg else None,
            "train": state.train_config,
            "trainer_state": {n: int(getattr(state, n)) for n in _COUNTERS},
        },
        "tensors": tensors,
        "segments": segments,
        "base": name,
    })
    if base is not None:
        base_path = os.path.join(os.path.dirname(path), name)
        if not _holds(base_path, base_head, len(base_head) + base.end):
            _write(base_path, b"".join([base_head, *base.blobs]))
    _write(path, b"".join([head, *own.blobs]))


def _layout(where: str, group: str, entries, meta, room: int):
    """Entries, shapes, block size and segment spans of one group, checked.

    The spans map a segment's label ("f32", "q4.codes", ...) to its
    (offset, length, crc32); "optim" has the shapes of its two flat
    moments. FormatError for a malformed entry or segment; IntegrityError
    if a segment runs past the `room` payload bytes or its length is not
    that of its tensors.
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
    spans = {}
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
        spans[label] = (span["offset"], length, span["crc32"])
    return entries, shapes, block_size, spans


def _read(f, where: str, start: int, label: str, span) -> bytearray:
    """The bytes of one segment, CRC-checked, in a buffer of their own."""
    offset, length, crc = span
    buf = bytearray(length)
    f.seek(start + offset)
    if f.readinto(buf) != length:
        raise IntegrityError(f"{where}: segment {label}: truncated")
    if zlib.crc32(buf) != crc:
        raise IntegrityError(f"{where}: segment {label}: CRC mismatch")
    return buf


def _tensors(f, where: str, start: int, shapes, block_size, spans) -> list:
    """One group's tensors, in order, as views of its segments' buffers:
    f32 arrays, or QuantizedMatrix when the group has a block size."""
    bufs = [_read(f, where, start, label, span)
            for label, span in spans.items()]
    out = []
    if block_size is None:
        flat = np.frombuffer(bufs[0], dtype="<f4")
        at = 0
        for shape in shapes:
            n = math.prod(shape)
            out.append(flat[at:at + n].reshape(shape))
            at += n
        return out
    codes = np.frombuffer(bufs[0], dtype=np.uint8)
    scales = np.frombuffer(bufs[1], dtype="<f4")
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


def _header(f, where: str, magic: bytes, keys: set[str], groups: set[str],
            optional: set[str] = frozenset()):
    """The header of an open file, the layout of each of its groups, where
    its payload starts, and its digest, checked before the header is parsed.

    The header must hold `keys`, "tensors" and "segments", and those two
    must both map every one of `groups` and may map the `optional` ones.
    """
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
    keys = keys | {"tensors", "segments"}
    if not (isinstance(header, dict) and keys <= header.keys()):
        raise FormatError(f"{where}: header lacks one of {sorted(keys)}")
    tensors, segments = header["tensors"], header["segments"]
    if not (isinstance(tensors, dict) and isinstance(segments, dict)
            and tensors.keys() == segments.keys()
            and groups <= tensors.keys() <= groups | optional):
        raise FormatError(f"{where}: tensors and segments must both map "
                          f"{sorted(groups)} and may map {sorted(optional)}")
    return header, {g: _layout(where, g, tensors[g], segments[g],
                               size - start) for g in tensors}, start, digest


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
        _, layout, start, digest = _header(f, f"base {where}", BASE_MAGIC,
                                           set(), {"f32", "q4"})
        if digest.hex() != match[1]:
            raise IntegrityError(f"base {where}: header digest "
                                 f"{digest.hex()} is not its name's")
        return [(e[0], t) for entries, *rest in layout.values()
                for e, t in zip(entries,
                                _tensors(f, f"base {where}", start, *rest))]


def load_checkpoint(path, with_optimizer: bool = True) -> TrainState:
    """Rebuild a TrainState from a checkpoint and its base; load(save(x))
    reproduces training bit-exactly.

    The base is read from the directory of `path`, from the file the
    checkpoint names; the digest in that name must be the base's own. With
    `with_optimizer=False` the moments are not read and `optim_state` is
    None, as it is for a file saved without them. A path that is not a
    str, bytes or os.PathLike is a ConfigError, raised before anything is
    opened.
    """
    path = _file_path(path)
    with open(path, "rb") as f:
        header, layout, start, _ = _header(f, path, MAGIC,
                                           {"configs", "base"}, {"f32"},
                                           {"optim"})
        configs = header["configs"]
        if not isinstance(configs, dict):
            raise FormatError(f"{path}: configs must be a dict")
        try:
            model_cfg = ModelConfig.from_dict(configs.get("model"))
            lora_cfg = (LoraConfig.from_dict(configs["lora"])
                        if configs.get("lora") else None)
        except ConfigError as e:
            raise FormatError(f"{path}: malformed configs block ({e})") from e
        ts = configs.get("trainer_state")
        if not (isinstance(ts, dict)
                and {"step", "epoch", "cursor"} <= ts.keys()):
            raise FormatError(f"{path}: trainer_state lacks step, epoch or cursor")
        step, epoch, cursor = ts["step"], ts["epoch"], ts["cursor"]
        if not all(map(is_count, [step, epoch, cursor])):
            raise FormatError(f"{path}: trainer_state counters must be "
                              f"non-negative ints")
        groups = {g: (entries, _tensors(f, path, start, *rest))
                  for g, (entries, *rest) in layout.items()
                  if g != "optim" or with_optimizer}

    pairs = [] if header["base"] is None else _load_base(path, header["base"])
    pairs += [(e[0], t) for e, t in zip(*groups["f32"])]
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
