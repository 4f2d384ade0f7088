"""Binary checkpoint container with bit-exact round trips.

Layout: magic "AURC" (4 bytes), version u32 LE, header-length u64 LE, UTF-8
JSON header, raw payload. The header maps tensor names to {dtype, shape,
offset, length} plus the config blocks and trainer cursor. f32 tensors are
raw little-endian floats; "q4_sym_b64" tensors are packed 4-bit codes
followed by f32 scales (block size 64, row-major element order).

Version 2 stores each adapter as `lora_a` [d_in, rank] and `lora_b`
[rank, d_out], in the [d_in, d_out] orientation of the kernel it sits on.
Version 1 stored them transposed and is rejected.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, IntegrityError
from .lora import LoraConfig, adapter_config, attach_adapters
from .model import DecoderModel, ModelConfig, init_model
from .quant import QuantizedMatrix, QuantizedOptimState

MAGIC = b"AURC"
VERSION = 2
Q4_BLOCK = 64
Q4_DTYPE = "q4_sym_b64"


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
    cursor: int = 0  # optimizer steps completed within the current epoch
    seed: int = 0


def _q4_payload(q: QuantizedMatrix) -> bytes:
    if q.block_size != Q4_BLOCK:
        raise FormatError(
            f"checkpoint stores {Q4_DTYPE}; got block_size {q.block_size}")
    return q.codes.tobytes() + q.scales.astype("<f4").tobytes()


def _q4_restore(shape: tuple[int, ...], raw: bytes) -> QuantizedMatrix:
    rows, cols = shape
    n = rows * cols
    n_codes = (n + 1) // 2
    n_scales = (n + Q4_BLOCK - 1) // Q4_BLOCK
    if len(raw) != n_codes + 4 * n_scales:
        raise IntegrityError(
            f"q4 payload length {len(raw)} != {n_codes + 4 * n_scales}")
    codes = np.frombuffer(raw[:n_codes], dtype=np.uint8).copy()
    scales = np.frombuffer(raw[n_codes:], dtype="<f4").astype(np.float32)
    return QuantizedMatrix(rows, cols, Q4_BLOCK, codes, scales)


def save_checkpoint(state: TrainState, path) -> None:
    """Serialize model weights, adapters, optimizer moments and the cursor."""
    tensors: dict[str, dict] = {}
    blobs: list[bytes] = []
    offset = 0

    def put(name: str, dtype: str, shape, raw: bytes) -> None:
        nonlocal offset
        tensors[name] = {"dtype": dtype, "shape": list(shape),
                         "offset": offset, "length": len(raw)}
        blobs.append(raw)
        offset += len(raw)

    model = state.model
    entries: list[tuple[str, str, object]] = []
    for name, t in model.named_parameters().items():
        entries.append((name, "f32", t))
    for name, q in model.named_quantized().items():
        entries.append((name, Q4_DTYPE, q))
    optim_steps: dict[str, int] = {}
    if state.optim_state is not None:
        for pname, opt_state in state.optim_state.items():
            entries.append((f"optim.{pname}.m", Q4_DTYPE, opt_state.m))
            entries.append((f"optim.{pname}.v", Q4_DTYPE, opt_state.v))
            optim_steps[pname] = opt_state.step

    for name, dtype, obj in sorted(entries):
        if dtype == "f32":
            put(name, "f32", obj.data.shape, obj.data.astype("<f4").tobytes())
        else:
            put(name, Q4_DTYPE, obj.shape, _q4_payload(obj))

    lora_cfg = adapter_config(model)
    header = {
        "configs": {
            "model": model.config.to_dict(),
            "lora": lora_cfg.to_dict() if lora_cfg else None,
            "train": state.train_config,
            "trainer_state": {"step": state.step, "epoch": state.epoch,
                              "cursor": state.cursor, "seed": state.seed,
                              "optim_steps": optim_steps},
        },
        "tensors": tensors,
    }
    header_bytes = json.dumps(header, ensure_ascii=False,
                              sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for blob in blobs:
            f.write(blob)


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

    configs = header["configs"]
    model_cfg = ModelConfig.from_dict(configs["model"])
    model = init_model(model_cfg, seed=0)
    lora_cfg = (LoraConfig.from_dict(configs["lora"])
                if configs.get("lora") else None)
    if lora_cfg is not None:
        attach_adapters(model, lora_cfg, seed=0)

    tensors = header["tensors"]

    def tensor_bytes(name: str, meta: dict) -> bytes:
        start, length = meta["offset"], meta["length"]
        if start + length > len(payload):
            raise IntegrityError(f"{path}: truncated payload for {name}")
        return payload[start:start + length]

    # quantize the projections that the checkpoint stores as q4
    proj_by_name = {name: lin for name, _, lin in model._projections()}
    for name, meta in tensors.items():
        if meta["dtype"] == Q4_DTYPE and not name.startswith("optim."):
            base = name.removesuffix(".weight")
            lin = proj_by_name.get(base)
            if lin is None:
                raise IntegrityError(f"{path}: unknown quantized tensor {name}")
            if list(lin.shape) != meta["shape"]:
                raise IntegrityError(
                    f"{path}: {name} shape {meta['shape']} != model {list(lin.shape)}")
            lin.kernel = _q4_restore(tuple(meta["shape"]),
                                     tensor_bytes(name, meta))

    params = model.named_parameters()
    for name, meta in tensors.items():
        if name.startswith("optim.") or meta["dtype"] != "f32":
            continue
        t = params.get(name)
        if t is None:
            raise IntegrityError(f"{path}: unknown tensor {name}")
        if list(t.data.shape) != meta["shape"]:
            raise IntegrityError(
                f"{path}: {name} shape {meta['shape']} != model "
                f"{list(t.data.shape)}")
        arr = np.frombuffer(tensor_bytes(name, meta), dtype="<f4")
        if arr.size != t.data.size:
            raise IntegrityError(f"{path}: {name} payload size mismatch")
        t.data = arr.astype(np.float32).reshape(t.data.shape)
    missing = set(params) - {n for n in tensors if not n.startswith("optim.")}
    if missing:
        raise IntegrityError(f"{path}: missing tensors {sorted(missing)[:4]}")

    ts = configs.get("trainer_state") or {}
    state = TrainState(model=model, train_config=configs.get("train"),
                       step=ts.get("step", 0), epoch=ts.get("epoch", 0),
                       cursor=ts.get("cursor", 0), seed=ts.get("seed", 0))

    optim_names = {n for n in tensors if n.startswith("optim.")}
    if with_optimizer and optim_names:
        optim_steps = ts.get("optim_steps", {})
        state.optim_state = {}
        for pname in model.trainable_parameters():
            m_name, v_name = f"optim.{pname}.m", f"optim.{pname}.v"
            if m_name not in tensors or v_name not in tensors:
                raise IntegrityError(f"{path}: missing optimizer state for {pname}")
            m_meta, v_meta = tensors[m_name], tensors[v_name]
            state.optim_state[pname] = QuantizedOptimState(
                m=_q4_restore(tuple(m_meta["shape"]), tensor_bytes(m_name, m_meta)),
                v=_q4_restore(tuple(v_meta["shape"]), tensor_bytes(v_name, v_meta)),
                step=optim_steps.get(pname, 0))
    return state
