"""SFT loop: checkpoints it writes load back, resume is bit-exact, a step
is one batch, and the schedule knobs do what they claim."""

import contextlib
import dataclasses
import gc
import json
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from moetune import quant
from moetune import tensor as tz
from moetune.checkpoint import load_checkpoint
from moetune.data import (clean_filter, ingest_alpaca, ingest_sharegpt,
                          tokenize_corpus)
from moetune.errors import ConfigError, LengthError, NumericError, TrainingAborted
from moetune.lora import LoraConfig, attach_adapters
from moetune.model import DecoderModel, ModelConfig, init_model
from moetune.tokenizer import TokenizedSample, render_chat
from moetune.trainer import (LossLogRow, TrainConfig, _lr_at, batch_loss,
                             train, write_loss_log)

TINY = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=24, n_experts=4,
                   top_k=2, vocab_size=262, max_seq_len=32)
ADAPTERS = LoraConfig(rank=2)
CORPUS = [render_chat([("user", q), ("assistant", a)])
          for q, a in [("hi", "hello"), ("2+2?", "4"), ("sky?", "blue"),
                       ("name?", "moe"), ("yes?", "no"), ("up?", "down")]]


def adapted_model(adapters=ADAPTERS):
    model = init_model(TINY, seed=0)
    model.quantize_frozen(64)
    attach_adapters(model, adapters, seed=0)
    return model


def test_checkpoint_without_lora_config_loads_back(tmp_path):
    model = adapted_model()
    train(model, CORPUS, TrainConfig(epochs=1, batch_size=2, lr=1e-2),
          out_dir=tmp_path)
    loaded = load_checkpoint(tmp_path / "ckpt_final.bin").model
    want, got = model.named_parameters(), loaded.named_parameters()
    assert want.keys() == got.keys()
    for name in want:
        assert np.array_equal(want[name].data, got[name].data), name


def test_out_dir_may_be_bytes_or_a_str(tmp_path):
    cfg = TrainConfig(epochs=1, batch_size=2, max_steps=1)
    for out_dir in (os.fsencode(tmp_path / "b"), str(tmp_path / "s")):
        model = adapted_model()
        train(model, CORPUS, cfg, out_dir=out_dir)
        out = os.fsdecode(out_dir)
        assert {"ckpt_final.bin", "loss_log.jsonl"} <= set(os.listdir(out))
        loaded = load_checkpoint(os.path.join(out, "ckpt_final.bin"))
        assert loaded.step == 1


def test_lora_config_must_match_the_adapters():
    cfg = TrainConfig(epochs=1, batch_size=2, max_steps=1)
    with pytest.raises(ConfigError):
        train(adapted_model(), CORPUS, cfg, lora_config=LoraConfig(rank=4))
    bare = init_model(TINY, seed=0)
    with pytest.raises(ConfigError):
        train(bare, CORPUS, cfg, lora_config=ADAPTERS)


def test_mid_epoch_resume_reproduces_loss_tail_at_beta2_095(tmp_path):
    # 3 steps per epoch; step 2 is mid-epoch and the tail crosses an epoch
    cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-2, warmup_steps=0,
                      save_every=2, beta2=0.95)
    _, log = train(adapted_model(), CORPUS, cfg, out_dir=tmp_path)
    resumed = load_checkpoint(tmp_path / "ckpt_step2.bin")
    assert (resumed.step, resumed.cursor) == (2, 2)
    _, tail = train(resumed.model, CORPUS, cfg, resume=resumed)
    assert ([(r.loss, r.grad_norm) for r in tail]
            == [(r.loss, r.grad_norm) for r in log[2:]])


def test_resume_from_every_periodic_checkpoint(tmp_path):
    # 6 samples in batches of 2: 3 steps per epoch, 9 in all, so steps 3, 6
    # and 9 end an epoch
    cfg = TrainConfig(epochs=3, batch_size=2, lr=1e-2, warmup_steps=2,
                      schedule="cosine", save_every=1)
    _, log = train(adapted_model(), CORPUS, cfg, out_dir=tmp_path)
    assert [r.epoch for r in log] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    for k in range(1, 10):
        resumed = load_checkpoint(tmp_path / f"ckpt_step{k}.bin")
        assert (resumed.step, resumed.epoch, resumed.cursor) == (
            k, (k - 1) // 3, (k - 1) % 3 + 1)
        _, tail = train(resumed.model, CORPUS, cfg, resume=resumed)
        assert tail == log[k:], k


def test_epoch_end_state_resumes_like_the_next_epoch_start(tmp_path):
    # (0, 3) is the state the end of epoch 0 leaves; (1, 0) is how earlier
    # builds recorded it
    cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-2, save_every=3)
    train(adapted_model(), CORPUS, cfg, out_dir=tmp_path)
    tails = []
    for epoch, cursor in [(0, 3), (1, 0)]:
        resumed = load_checkpoint(tmp_path / "ckpt_step3.bin")
        resumed.epoch, resumed.cursor = epoch, cursor
        tails.append(train(resumed.model, CORPUS, cfg, resume=resumed)[1])
    assert len(tails[0]) == 3
    assert tails[0] == tails[1]


def test_max_steps_holds_on_resume(tmp_path):
    cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-2, save_every=2,
                      max_steps=2)
    state, log = train(adapted_model(), CORPUS, cfg, out_dir=tmp_path)
    assert len(log) == 2 and (state.step, state.epoch, state.cursor) == (2, 0, 2)
    resumed = load_checkpoint(tmp_path / "ckpt_step2.bin")
    state, tail = train(resumed.model, CORPUS, cfg, resume=resumed)
    assert tail == [] and state.step == 2


def test_completed_run_ends_at_its_last_epoch_and_step_count():
    cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-2)
    state, log = train(adapted_model(), CORPUS, cfg)
    assert len(log) == 6
    assert (state.step, state.epoch, state.cursor) == (6, 1, 3)


@pytest.mark.parametrize("change", [
    {"seed": 1}, {"batch_size": 3},
    {"train_config": None}, {"train_config": [["seed", 0]]}],
    ids=["seed", "batch_size", "no-train-config", "train-config-list"])
def test_resume_must_keep_what_fixes_the_samples(change):
    cfg = TrainConfig(epochs=1, batch_size=2, lr=1e-2, max_steps=1)
    state, _ = train(adapted_model(), CORPUS, cfg)
    if "train_config" in change:
        state.train_config = change["train_config"]
    else:
        cfg = dataclasses.replace(cfg, **change)
    with pytest.raises(ConfigError):
        train(state.model, CORPUS, cfg, resume=state)


def test_state_keeps_a_copy_of_the_config():
    cfg = TrainConfig(epochs=1, batch_size=2, lr=1e-2, max_steps=1)
    state, _ = train(adapted_model(), CORPUS, cfg)
    # the state holds the config itself, which cannot change
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 9
    assert state.train_config is cfg


@pytest.mark.parametrize("adapters, first", [
    (LoraConfig(rank=2, targets=("v",)), "wv.lora_a"),
    (LoraConfig(rank=3, targets=("q",)), "wq.lora_a', 48")],
    ids=["other-names", "other-sizes"])
def test_resume_into_other_trainable_parameters_is_rejected_before_step_0(
        adapters, first):
    cfg = TrainConfig(epochs=1, batch_size=2, lr=1e-2, max_steps=1)
    state, _ = train(adapted_model(LoraConfig(rank=2, targets=("q",))),
                     CORPUS, cfg)
    model = adapted_model(adapters)
    before = {n: t.data.copy() for n, t in model.trainable_parameters().items()}
    with pytest.raises(ConfigError, match=first):
        train(model, CORPUS, dataclasses.replace(cfg, max_steps=2),
              resume=state)
    for name, t in model.trainable_parameters().items():
        assert np.array_equal(t.data, before[name]), name


def test_resume_may_change_the_optimizer_and_the_stopping_point():
    cfg = TrainConfig(epochs=1, batch_size=2, lr=1e-2, max_steps=1)
    state, _ = train(adapted_model(), CORPUS, cfg)
    later = dataclasses.replace(cfg, lr=3e-3, beta1=0.8, beta2=0.95,
                                eps=1e-6, epochs=2, max_steps=4)
    state, tail = train(state.model, CORPUS, later, resume=state)
    assert [r.step for r in tail] == [2, 3, 4]


@pytest.mark.parametrize("field, value", [
    ("max_steps", 0), ("max_steps", -1), ("max_grad_norm", 0.0),
    ("max_grad_norm", -1.0), ("max_grad_norm", float("nan")),
    ("warmup_steps", -1), ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0),
    ("beta2", float("nan")), ("eps", 0.0), ("eps", -1e-8),
    ("lr", float("inf")), ("lr", float("nan")), ("lr", -1e-3)])
def test_config_rejects_values_that_stall_invert_or_nan_a_run(field, value):
    with pytest.raises(ConfigError):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("config, field, value", [
    (ModelConfig, "n_layers", 1.5), (ModelConfig, "max_seq_len", 32.5),
    (ModelConfig, "top_k", 1.5), (ModelConfig, "n_experts", "8"),
    (TrainConfig, "epochs", 1.5),
    (TrainConfig, "epochs", True), (TrainConfig, "batch_size", 1.5),
    (TrainConfig, "seed", -1),
    (TrainConfig, "save_every", 1.5), (TrainConfig, "warmup_steps", 0.5)])
def test_config_rejects_a_count_that_is_not_an_int_in_range(config, field,
                                                            value):
    with pytest.raises(ConfigError, match=field):
        config(**{field: value})


CONFIGS = [ModelConfig(n_layers=2, max_seq_len=64, norm_eps=1e-6),
           LoraConfig(rank=4, alpha=8, targets=["q", "v"], dropout_p=0.0),
           TrainConfig(lr=1e-3, max_steps=5, schedule="cosine")]


@pytest.mark.parametrize("cfg", CONFIGS, ids=["model", "lora", "train"])
def test_a_config_reads_back_from_its_dict(cfg):
    assert type(cfg).from_dict(cfg.to_dict()) == cfg
    assert type(cfg).from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("cfg, change, says", [
    (CONFIGS[0], {"top_k": 9}, "top_k must be an int in"),
    (CONFIGS[1], {"targets": ("router",)}, "targets must be a subset"),
    (CONFIGS[2], {"lr": np.float32(1e-3)}, "lr must be a python value")],
    ids=["model", "lora", "train"])
def test_a_config_is_checked_when_replaced_and_cannot_change(cfg, change,
                                                             says):
    with pytest.raises(ConfigError, match=says):
        dataclasses.replace(cfg, **change)
    (name, value), = change.items()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, value)


ONE_EPOCH = TrainConfig(epochs=1)


@pytest.mark.parametrize("call, says", [
    (lambda m: train(m, CORPUS, None), "cfg must be a TrainConfig"),
    (lambda m: train(None, CORPUS, ONE_EPOCH), "model must be a DecoderModel"),
    (lambda m: train(m, CORPUS, ONE_EPOCH, lora_config=5), "lora_config"),
    (lambda m: train(m, CORPUS, ONE_EPOCH, resume=5), "resume must be"),
    (lambda m: train(m, [*CORPUS, CORPUS[0].token_ids], ONE_EPOCH),
     "sample 6 must be a TokenizedSample")],
    ids=["cfg", "model", "lora-config", "resume", "corpus-entry"])
def test_arguments_of_another_type_are_rejected_before_step_0(call, says):
    model = adapted_model()
    before = {n: t.data.copy() for n, t in model.trainable_parameters().items()}
    with pytest.raises(ConfigError, match=says):
        call(model)
    for name, t in model.trainable_parameters().items():
        assert np.array_equal(t.data, before[name]), name


@pytest.mark.parametrize("sample", [TokenizedSample([5], [1]),
                                    TokenizedSample([5, 6], [1, 0])])
def test_corpus_sample_without_a_target_is_rejected_before_step_0(sample):
    # position 0 is never a target, whatever its mask bit
    cfg = TrainConfig(epochs=1, batch_size=2)
    with pytest.raises(ConfigError):
        train(adapted_model(), [*CORPUS, sample], cfg)


def test_corpus_sample_past_max_seq_len_is_rejected_before_step_0():
    # shuffle seed 1 puts the 40-token sample after a short one, so a check
    # made only inside the step loop would raise after an update
    short = TokenizedSample(list(range(5, 16)), [0] + [1] * 10)
    long = TokenizedSample(list(range(5, 45)), [0] + [1] * 39)
    model = adapted_model()
    before = {n: t.data.copy() for n, t in model.trainable_parameters().items()}
    cfg = TrainConfig(epochs=1, batch_size=1, lr=1e-2, seed=1, warmup_steps=0)
    with pytest.raises(LengthError, match="sample 2"):
        train(model, [short, short, long], cfg)
    for name, t in model.trainable_parameters().items():
        assert np.array_equal(t.data, before[name]), name


@pytest.mark.parametrize("mask", [[0, 2, 1], [0, 1, -1], [0, -1, 1],
                                  [0, 0.5, 1], [0, 1, float("nan")]])
def test_loss_mask_values_other_than_0_and_1_are_rejected_before_step_0(mask):
    # a 2 would count its token twice; a -1 would train away from the target
    model = adapted_model()
    before = {n: t.data.copy() for n, t in model.trainable_parameters().items()}
    cfg = TrainConfig(epochs=1, batch_size=1, lr=1e-2, warmup_steps=0)
    with pytest.raises(ConfigError, match="sample 6"):
        train(model, [*CORPUS, TokenizedSample([5, 6, 7], mask)], cfg)
    for name, t in model.trainable_parameters().items():
        assert np.array_equal(t.data, before[name]), name


def test_resume_without_moments_is_rejected(tmp_path):
    cfg = TrainConfig(epochs=1, batch_size=2, save_every=1)
    train(adapted_model(), CORPUS, cfg, out_dir=tmp_path)
    resumed = load_checkpoint(tmp_path / "ckpt_step1.bin", with_optimizer=False)
    with pytest.raises(ConfigError):
        train(resumed.model, CORPUS, cfg, resume=resumed)


def test_nan_adapter_aborts_at_step_0():
    model = adapted_model()
    model.layers[0].wq.adapter.b.data[:] = np.nan
    with pytest.raises(TrainingAborted) as info:
        train(model, CORPUS, TrainConfig(epochs=1, batch_size=2))
    assert info.value.step == 0
    assert isinstance(info.value.__cause__, NumericError)


def test_poisoned_adapter_aborts_naming_the_op_per_op_checks_name(
        monkeypatch):
    # the forward checks its logits and router logits, then replays with
    # every op checked; without the replay the router check would speak
    def abort() -> str:
        model = adapted_model()
        model.layers[0].wv.adapter.b.data[0] = np.nan
        before = {n: t.data.copy()
                  for n, t in model.trainable_parameters().items()}
        with pytest.raises(TrainingAborted) as info:
            train(model, CORPUS, TrainConfig(epochs=1, batch_size=2))
        assert info.value.step == 0
        for name, t in model.trainable_parameters().items():
            assert t.data.tobytes() == before[name].tobytes(), name
        assert isinstance(info.value.__cause__, NumericError)
        message = str(info.value)
        # the traceback holds this frame and the frame `info`: a cycle that
        # would keep the failed forward's tape alive until a collection
        del info
        return message

    deferred = abort()
    with monkeypatch.context() as patch:
        patch.setattr(tz, "no_op_checks", contextlib.nullcontext)
        per_op = abort()
    assert deferred == per_op == "step 0: lora_linear produced non-finite values"


def test_nonfinite_gradient_aborts_and_names_the_parameter(monkeypatch):
    model = adapted_model()
    trainable = model.trainable_parameters()
    name = next(n for n in trainable if n.endswith("lora_a"))
    backward, poisoned_at = tz.Tensor.backward, []
    snapshots = []  # parameters after each optimizer step

    def poisoned(self):
        backward(self)
        if len(snapshots) == 1 and not poisoned_at:  # step 1's first backward
            poisoned_at.append(1)
            trainable[name].grad.reshape(-1)[3] = np.inf

    monkeypatch.setattr(tz.Tensor, "backward", poisoned)
    real_step = quant.QuantizedAdam.step

    def step(self, *args):
        norm = real_step(self, *args)
        snapshots.append({n: t.data.copy() for n, t in trainable.items()})
        return norm

    monkeypatch.setattr(quant.QuantizedAdam, "step", step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingAborted) as info:
            train(model, CORPUS, TrainConfig(epochs=1, batch_size=2, lr=1e-2))
    assert info.value.step == 1
    assert isinstance(info.value.__cause__, NumericError)
    assert name in str(info.value.__cause__)
    assert len(snapshots) == 1
    assert all(np.array_equal(t.data, snapshots[0][n])
               for n, t in trainable.items())


def test_step_tape_is_released_before_the_optimizer_runs(monkeypatch):
    # only op outputs have parents: none may be alive once a backward is
    # done, so none when a sample's forward starts or the optimizer runs
    def tape_tensors():
        return sum(isinstance(o, tz.Tensor) and bool(o._parents)
                   for o in gc.get_objects())

    # what another test left unreachable, the tape in a caught error's
    # traceback, say, is not alive: collect it so it is not counted
    gc.collect()
    at_forward, at_step = [], []
    real_forward, real_step = DecoderModel.forward, quant.QuantizedAdam.step

    def forward(self, *args, **kwargs):
        at_forward.append(tape_tensors())
        return real_forward(self, *args, **kwargs)

    def step(self, *args):
        at_step.append(tape_tensors())
        return real_step(self, *args)

    monkeypatch.setattr(DecoderModel, "forward", forward)
    monkeypatch.setattr(quant.QuantizedAdam, "step", step)
    for batch_size in (2, 1):
        at_forward.clear()
        at_step.clear()
        train(adapted_model(), CORPUS, TrainConfig(epochs=1,
                                                   batch_size=batch_size))
        assert at_forward == [0] * len(CORPUS), batch_size
        assert at_step == [0] * (len(CORPUS) // batch_size), batch_size


def longest_fixture_samples(n):
    """The n longest samples of the cleaned, tokenized fixture corpus."""
    fixtures = Path(__file__).parent / "fixtures"
    chats = (ingest_alpaca(fixtures / "alpaca_fixture.json").samples
             + ingest_alpaca(fixtures / "alpaca_gpt4_fixture.json",
                             source="alpaca_gpt4_zh").samples
             + ingest_sharegpt(fixtures / "sharegpt_fixture.json").samples)
    corpus = tokenize_corpus(clean_filter(chats)[0])
    return sorted(corpus, key=lambda s: len(s.token_ids))[-n:]


def test_step_peak_does_not_grow_with_the_batch():
    # a step holds one sample's activations, so batch 4 peaks as 4 steps of
    # batch 1 do: the peak is set by the longest sample, padded or not
    samples = longest_fixture_samples(4)
    peaks = []
    for batch_size in (4, 1):
        model = init_model(ModelConfig(), seed=0)
        model.quantize_frozen(64)
        attach_adapters(model, LoraConfig(), seed=0)
        model.forward(samples[-1].token_ids[:-1])  # dequantizes the kernels
        cfg = TrainConfig(epochs=1, batch_size=batch_size)
        tracemalloc.start()
        try:
            train(model, samples, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    batch, single = peaks
    assert batch < 1.25 * single, peaks


@pytest.mark.parametrize("max_norm, clipped", [(1e-6, True), (1e9, False)])
def test_log_reports_grad_norm_and_clipping(tmp_path, max_norm, clipped):
    cfg = TrainConfig(epochs=1, batch_size=2, lr=1e-2, max_grad_norm=max_norm)
    _, log = train(adapted_model(), CORPUS, cfg, out_dir=tmp_path)
    assert len(log) == 3
    assert all(r.clipped is clipped and r.grad_norm > 1e-6 for r in log)
    with open(tmp_path / "loss_log.jsonl", encoding="utf-8") as f:
        rows = [json.loads(line) for line in f]
    assert rows == [dataclasses.asdict(r) for r in log]
    assert [r["grad_norm"] for r in rows] == [r.grad_norm for r in log]
    assert all(r["clipped"] is clipped for r in rows)


@pytest.mark.parametrize("field, value", [("loss", np.float32(0.5)),
                                          ("step", np.int64(2)),
                                          ("clipped", np.bool_(True)),
                                          ("epoch", b"0")])
def test_a_loss_log_row_json_cannot_write_is_a_config_error_before_the_file(
        tmp_path, field, value):
    path = tmp_path / "loss_log.jsonl"
    path.write_text("earlier log\n", encoding="utf-8")
    good = LossLogRow(1, 0, 0.25, 1e-3, 0.5, False)
    bad = dataclasses.replace(good, **{"step": 2, field: value})
    with pytest.raises(ConfigError, match="^row 1 "):
        write_loss_log([good, bad], path)
    assert path.read_text(encoding="utf-8") == "earlier log\n"


def test_first_step_sees_the_gradient_of_batch_loss_under_its_key(
        monkeypatch):
    # the first batch of the (seed, 0) order, with dropout drawn from
    # default_rng([seed, 0, 0]), which equals default_rng([seed, 0])
    seed = 5
    first = np.random.default_rng([seed, 0]).permutation(len(CORPUS))[:3]
    grads = []
    for key in ([seed, 0, 0], [seed, 1, 0]):
        model = adapted_model()
        batch_loss(model, [CORPUS[i] for i in first],
                   np.random.default_rng(key)).backward()
        grads.append({n: t.grad for n, t in
                      model.trainable_parameters().items()})
    want, other_key = grads
    assert any(not np.array_equal(want[n], other_key[n]) for n in want
               if want[n] is not None)

    model = adapted_model()
    got = []
    real_step = quant.QuantizedAdam.step

    def step(self, *args):
        got.append({n: None if t.grad is None else t.grad.copy()
                    for n, t in model.trainable_parameters().items()})
        return real_step(self, *args)

    monkeypatch.setattr(quant.QuantizedAdam, "step", step)
    train(model, CORPUS, TrainConfig(batch_size=3, seed=seed, max_steps=1))
    assert len(got) == 1 and got[0].keys() == want.keys()
    for name, grad in got[0].items():  # an expert no token chose has none
        assert (grad is None if want[name] is None
                else np.array_equal(grad, want[name])), name


@pytest.mark.parametrize("schedule", ["constant", "cosine"])
def test_lr_warms_up_linearly_then_never_rises(schedule):
    cfg = TrainConfig(lr=3e-4, warmup_steps=4, schedule=schedule)
    lrs = [_lr_at(cfg, step, 20) for step in range(1, 23)]
    assert lrs[:4] == pytest.approx([3e-4 * s / 4 for s in range(1, 5)])
    after = lrs[3:]
    assert after[0] == 3e-4
    assert all(a >= b for a, b in zip(after, after[1:]))
    assert min(after) >= 0.0
    if schedule == "constant":
        assert after == [3e-4] * len(after)
    else:
        assert after[1] < 3e-4 and after[-1] == 0.0


def test_released_arrays_change_no_gradient_and_leave_the_tape(monkeypatch):
    # each layer releases its pre-rotary q and k, the o projection's output
    # and the MoE output, and the trainer the logits: the gradients are
    # bitwise those of a tape that keeps them, and the tape holds fewer
    # bytes when the backward starts, by at least what was released
    release = tz.Tensor.release

    def forward_and_backward(release_fn):
        model = adapted_model()
        released = []

        def counted(t):
            released.append(t.data.nbytes)
            release_fn(t)

        monkeypatch.setattr(tz.Tensor, "release", counted)
        tracemalloc.start()
        try:
            loss = batch_loss(model, CORPUS[:2], np.random.default_rng(3))
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        loss.backward()
        # an expert that no row reaches has no gradient
        grads = {n: None if t.grad is None else t.grad.tobytes()
                 for n, t in model.trainable_parameters().items()}
        return live, released, grads

    forward_and_backward(release)  # warm-up: one-time allocations
    live, released, grads = forward_and_backward(release)
    live_kept, released_kept, grads_kept = forward_and_backward(
        lambda t: None)
    assert grads == grads_kept
    assert released == released_kept
    assert len(released) == 2 * (4 * TINY.n_layers + 1)  # per sample
    assert live_kept - live >= sum(released), (live_kept, live, released)
