"""Decoding: the cached loop picks the tokens a full-prefix loop picks."""

import math

import numpy as np
import pytest

from moetune.errors import ConfigError, LengthError
from moetune.lora import LoraConfig, attach_adapters
from moetune.model import ModelConfig, init_model
from moetune.trainer import generate

TINY = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=24, n_experts=4,
                   top_k=2, vocab_size=262, max_seq_len=48)
NEVER = -1  # a stop id no token can equal
PROMPT = [5, 80, 101, 7, 200, 33, 9]


@pytest.fixture(scope="module")
def model():
    m = init_model(TINY, seed=0)
    m.quantize_frozen(64)
    attach_adapters(m, LoraConfig(rank=2), seed=1)
    rng = np.random.default_rng(2)
    for t in m.trainable_parameters().values():
        t.data[:] = 0.5 * rng.standard_normal(t.data.shape)
    return m


def softmax64(logits):
    z = logits.astype(np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def full_forward_generate(model, prompt, max_new, mode="greedy",
                          temperature=1.0, top_p=0.9, seed=0, stop_id=NEVER):
    """Reference: one forward over the whole prefix per new token."""
    rng = np.random.default_rng(seed)
    ids, out = list(prompt), []
    for _ in range(max_new):
        logits = model.forward(ids).data[-1]
        if mode == "greedy":
            nxt = int(np.argmax(logits))
        elif mode == "temperature":
            probs = softmax64(logits / max(temperature, 1e-8))
            nxt = int(rng.choice(len(probs), p=probs))
        else:
            probs = softmax64(logits)
            order = np.argsort(-probs, kind="stable")
            cut = int(np.searchsorted(np.cumsum(probs[order]), top_p) + 1)
            keep = order[:cut]
            nxt = int(rng.choice(keep, p=probs[keep] / probs[keep].sum()))
        ids.append(nxt)
        out.append(nxt)
        if nxt == stop_id:
            break
    return out


@pytest.mark.parametrize("mode, kwargs", [
    ("greedy", {}),
    ("temperature", {"temperature": 0.7, "seed": 3}),
    ("top_p", {"top_p": 0.8, "seed": 4}),
])
def test_matches_full_forward_reference(model, mode, kwargs):
    got = generate(model, PROMPT, 20, mode=mode, stop_id=NEVER, **kwargs)
    assert len(got) == 20
    assert got == full_forward_generate(model, PROMPT, 20, mode=mode, **kwargs)


def test_greedy_is_deterministic(model):
    first = generate(model, PROMPT, 12, stop_id=NEVER)
    assert generate(model, PROMPT, 12, stop_id=NEVER) == first


def test_stop_id_ends_decoding_and_is_returned(model):
    free = generate(model, PROMPT, 12, stop_id=NEVER)
    stop = free[3]
    want = free[:free.index(stop) + 1]
    assert generate(model, PROMPT, 12, stop_id=stop) == want


def test_prompt_plus_max_new_over_max_seq_len(model):
    assert len(generate(model, PROMPT, 48 - len(PROMPT), stop_id=NEVER)) == 41
    with pytest.raises(LengthError):
        generate(model, PROMPT, 49 - len(PROMPT))


def test_unknown_mode(model):
    with pytest.raises(ConfigError):
        generate(model, PROMPT, 4, mode="beam")


def test_negative_max_new(model):
    with pytest.raises(ConfigError):
        generate(model, PROMPT, -1)


@pytest.mark.parametrize("kwargs", [
    {"mode": "temperature", "temperature": math.nan},
    {"mode": "temperature", "temperature": -0.5},
    {"mode": "top_p", "top_p": math.nan},
    {"mode": "top_p", "top_p": -1.0},
    {"mode": "top_p", "top_p": 1.5},
    {"temperature": "0.7"},
    {"max_new": 1.5},
    {"max_new": True},
    {"mode": "top_p", "seed": -1}])
def test_bad_decode_arguments_raise_before_the_first_forward(
        model, monkeypatch, kwargs):
    def forward(*args, **kw):
        raise AssertionError("generate ran a forward")

    monkeypatch.setattr(model, "forward", forward)
    with pytest.raises(ConfigError):
        generate(model, PROMPT, **{"max_new": 4, **kwargs})


def test_temperature_zero_is_greedy(model):
    greedy = generate(model, PROMPT, 12, stop_id=NEVER)
    assert generate(model, PROMPT, 12, mode="temperature", temperature=0.0,
                    stop_id=NEVER) == greedy
