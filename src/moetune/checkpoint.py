"""Binary checkpoint container with bit-exact round trips.

Layout: magic "AURC" (4 bytes), version u32 LE, header-length u64 LE, UTF-8
JSON header, raw payload. The header maps tensor names to {dtype, shape,
offset, length} plus the config blocks and trainer cursor. f32 tensors are
raw little-endian floats; "q4_sym_b64" tensors are packed 4-bit codes
followed by f32 scales (block size 64, row-major element order).

Version 2 stores each adapter as `lora_a` [d_in, rank] and `lora_b`
[rank, d_out], in the [d_in, d_out] orientation of the kernel it sits on.
Version 1 stored them transposed and is rejected.

The loader checks every tensor entry up front, then builds the model from
the file through `model.build_model` and `lora.load_adapters`: each weight
they ask for is read once, at the shape they ask for. A weight the file
lacks, or a non-`optim.` entry that no one asks for, is an IntegrityError.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, IntegrityError, is_count
from .lora import LoraConfig, adapter_config, load_adapters
from .model import DecoderModel, ModelConfig, build_model
from .quant import DEFAULT_BLOCK_SIZE, QuantizedMatrix, QuantizedOptimState

MAGIC = b"AURC"
VERSION = 2
Q4_DTYPE = f"q4_sym_b{DEFAULT_BLOCK_SIZE}"


@dataclass
class TrainState:
    """Everything needed to resume training bit-exactly.

    The adapter config is the one attached to `model`; `optim_state` holds
    the Adam moments and step counts by parameter name.
    """

    model: DecoderModel
    train_config: dict | None = None
    optim_state: dict[str, QuantizedOptimState] | None = None
    step: int = 0
    epoch: int = 0
    cursor: int = 0  # steps done in `epoch`, all of them once it has ended


def _q4_payload(q: QuantizedMatrix) -> bytes:
    if q.block_size != DEFAULT_BLOCK_SIZE:
        raise FormatError(
            f"checkpoint stores {Q4_DTYPE}; got block_size {q.block_size}")
    return q.codes.tobytes() + q.scales.astype("<f4").tobytes()


def _decode(where: str, meta, payload: bytes) -> np.ndarray | QuantizedMatrix:
    """The tensor of one header entry.

    FormatError unless the entry is a dict whose dtype is "f32" or
    "q4_sym_b64" and whose offset, length and shape (2-D for q4) are
    non-negative ints; IntegrityError if its length does not fit its dtype
    and shape or it runs past the payload.
    """
    if not isinstance(meta, dict):
        raise FormatError(f"{where}: entry is not a dict")
    dtype, shape = meta.get("dtype"), meta.get("shape")
    start, length = meta.get("offset"), meta.get("length")
    if not (dtype in ("f32", Q4_DTYPE) and is_count(start)
            and is_count(length)
            and isinstance(shape, list) and all(map(is_count, shape))
            and (dtype == "f32" or len(shape) == 2)):
        raise FormatError(f"{where}: malformed entry {meta}")
    n = int(np.prod(shape))
    n_codes = (n + 1) // 2
    want = (n_codes + 4 * ((n + DEFAULT_BLOCK_SIZE - 1) // DEFAULT_BLOCK_SIZE)
            if dtype == Q4_DTYPE else 4 * n)
    if length != want:
        raise IntegrityError(
            f"{where}: length {length} != {want} for {dtype} {shape}")
    if start + length > len(payload):
        raise IntegrityError(f"{where}: truncated payload")
    raw = payload[start:start + length]
    if dtype == "f32":
        return np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)
    codes = np.frombuffer(raw[:n_codes], dtype=np.uint8).copy()
    scales = np.frombuffer(raw[n_codes:], dtype="<f4").astype(np.float32)
    return QuantizedMatrix(shape[0], shape[1], DEFAULT_BLOCK_SIZE, codes, scales)


def save_checkpoint(state: TrainState, path) -> None:
    """Serialize model weights, adapters, optimizer moments and the cursor.

    The file at `path` is replaced atomically: it holds either the previous
    checkpoint or the new one, never a partial write.
    """
    model = state.model
    entries = [(n, "f32", t.data) for n, t in model.named_parameters().items()]
    entries += [(n, Q4_DTYPE, q) for n, q in model.named_quantized().items()]
    optim_steps: dict[str, int] = {}
    for pname, opt_state in (state.optim_state or {}).items():
        entries.append((f"optim.{pname}.m", Q4_DTYPE, opt_state.m))
        entries.append((f"optim.{pname}.v", Q4_DTYPE, opt_state.v))
        optim_steps[pname] = opt_state.step

    tensors: dict[str, dict] = {}
    blobs: list[bytes] = []
    offset = 0
    for name, dtype, obj in sorted(entries, key=lambda e: e[0]):
        raw = obj.astype("<f4").tobytes() if dtype == "f32" else _q4_payload(obj)
        tensors[name] = {"dtype": dtype, "shape": list(obj.shape),
                         "offset": offset, "length": len(raw)}
        blobs.append(raw)
        offset += len(raw)

    lora_cfg = adapter_config(model)
    header = {
        "configs": {
            "model": model.config.to_dict(),
            "lora": lora_cfg.to_dict() if lora_cfg else None,
            "train": state.train_config,
            "trainer_state": {"step": state.step, "epoch": state.epoch,
                              "cursor": state.cursor,
                              "optim_steps": optim_steps},
        },
        "tensors": tensors,
    }
    header_bytes = json.dumps(header, ensure_ascii=False,
                              sort_keys=True).encode("utf-8")
    # write a sibling file and rename it over the target, so that a crash
    # or a failed write leaves the previous checkpoint whole
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(b"".join([MAGIC, struct.pack("<I", VERSION),
                              struct.pack("<Q", len(header_bytes)),
                              header_bytes, *blobs]))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path, with_optimizer: bool = True) -> TrainState:
    """Rebuild a TrainState; load(save(x)) reproduces training bit-exactly."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic (not a checkpoint)")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    if 16 + header_len > len(raw):
        raise IntegrityError(f"{path}: truncated header")
    try:
        header = json.loads(raw[16:16 + header_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"{path}: unreadable header ({e})") from e
    if not isinstance(header, dict) or not {"configs", "tensors"} <= header.keys():
        raise FormatError(f"{path}: header lacks configs or tensors")
    payload = raw[16 + header_len:]

    configs, tensors = header["configs"], header["tensors"]
    try:
        model_cfg = ModelConfig.from_dict(configs["model"])
        lora_cfg = (LoraConfig.from_dict(configs["lora"])
                    if configs.get("lora") else None)
    except (AttributeError, ConfigError, KeyError, TypeError) as e:
        raise FormatError(f"{path}: malformed configs block ({e!r})") from e
    ts = configs.get("trainer_state") or {}
    if not isinstance(ts, dict):
        raise FormatError(f"{path}: trainer_state must be a dict")
    # files of earlier builds also hold a "seed", which train_config repeats
    step, epoch, cursor = (ts.get(k, 0) for k in ("step", "epoch", "cursor"))
    optim_steps = ts.get("optim_steps", {})
    if not (isinstance(optim_steps, dict) and all(map(
            is_count, [step, epoch, cursor, *optim_steps.values()]))):
        raise FormatError(f"{path}: trainer_state counters and optim_steps "
                          f"must be non-negative ints")
    if not isinstance(tensors, dict):
        raise FormatError(f"{path}: tensors must be a dict")
    stored = {name: _decode(f"{path}: {name}", meta, payload)
              for name, meta in tensors.items()}
    unused = {n for n in stored if not n.startswith("optim.")}

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
    if with_optimizer and any(n.startswith("optim.") for n in stored):
        state.optim_state = {}
        for pname, t in model.trainable_parameters().items():
            m, v = (weight(f"optim.{pname}.{k}", (1, t.data.size))
                    for k in "mv")
            if not (isinstance(m, QuantizedMatrix)
                    and isinstance(v, QuantizedMatrix)):
                raise IntegrityError(f"{path}: optimizer state for {pname} "
                                     f"is not {Q4_DTYPE}")
            state.optim_state[pname] = QuantizedOptimState(
                m, v, step=optim_steps.get(pname, 0))
    return state
