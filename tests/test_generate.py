"""Decoding: the cached loop picks the tokens a full-prefix loop picks."""

import math

import numpy as np
import pytest

from moetune.errors import ConfigError, LengthError, VocabError
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


def full_forward_generate(model, prompt, max_new, temperature=0.0,
                          top_p=1.0, seed=0, stop_id=NEVER):
    """Reference: one forward over the whole prefix per new token; greedy at
    temperature 0, else a draw from the temperature-scaled softmax, cut to
    its top_p nucleus when top_p < 1."""
    rng = np.random.default_rng(seed)
    ids, out = list(prompt), []
    for _ in range(max_new):
        logits = model.forward(ids).data[-1]
        if temperature == 0:
            nxt = int(np.argmax(logits))
        else:
            probs = softmax64(logits / max(temperature, 1e-8))
            keep = np.arange(len(probs))
            if top_p < 1:
                order = np.argsort(-probs, kind="stable")
                cut = int(np.searchsorted(np.cumsum(probs[order]), top_p) + 1)
                keep = order[:cut]
                probs = probs[keep] / probs[keep].sum()
            nxt = int(rng.choice(keep, p=probs))
        ids.append(nxt)
        out.append(nxt)
        if nxt == stop_id:
            break
    return out


@pytest.mark.parametrize("case, kwargs", [
    ("greedy", {"temperature": 0.0, "top_p": 1.0}),
    ("temperature", {"temperature": 0.7, "top_p": 1.0, "seed": 3}),
    ("top_p", {"temperature": 1.0, "top_p": 0.8, "seed": 4}),
    # a nucleus of the temperature-scaled distribution
    ("temperature_top_p", {"temperature": 0.7, "top_p": 0.8, "seed": 5}),
])
def test_matches_full_forward_reference(model, case, kwargs):
    got = generate(model, PROMPT, 20, stop_id=NEVER, **kwargs)
    assert len(got) == 20
    assert got == full_forward_generate(model, PROMPT, 20, **kwargs)


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


def test_negative_max_new(model):
    with pytest.raises(ConfigError):
        generate(model, PROMPT, -1)


@pytest.mark.parametrize("kwargs", [
    {"temperature": math.nan},
    {"temperature": -0.5},
    {"top_p": math.nan},
    {"top_p": -1.0},
    {"top_p": 1.5},
    {"temperature": "0.7"},
    {"max_new": 1.5},
    {"max_new": True},
    {"temperature": 1.0, "seed": -1},
    {"stop_id": "x"},
    {"stop_id": 1.0},
    {"stop_id": None}])
def test_bad_decode_arguments_raise_before_the_first_forward(
        model, monkeypatch, kwargs):
    def forward(*args, **kw):
        raise AssertionError("generate ran a forward")

    monkeypatch.setattr(model, "forward", forward)
    with pytest.raises(ConfigError):
        generate(model, PROMPT, **{"max_new": 4, **kwargs})


@pytest.mark.parametrize("prompt", [[1.5, 2], [5, True], "ab", [10 ** 20]])
def test_prompt_tokens_that_are_not_ints_are_a_vocab_error(model, prompt):
    with pytest.raises(VocabError):
        generate(model, prompt, 4, stop_id=NEVER)


def test_temperature_zero_is_greedy(model):
    greedy = generate(model, PROMPT, 12, stop_id=NEVER)
    assert generate(model, PROMPT, 12, temperature=0.0,
                    stop_id=NEVER) == greedy
    # a temperature below the 1e-8 floor samples from a one-hot distribution
    assert generate(model, PROMPT, 12, temperature=1e-12,
                    stop_id=NEVER) == greedy



# prompt_len + max_new - 1 positions are fed: 10, 64, 65 and 132, in a
# model whose max_seq_len rounds up to 256 rows
@pytest.mark.parametrize("prompt_len, max_new, rows", [(7, 4, 64), (60, 5, 64),
                                                        (60, 6, 128),
                                                        (130, 3, 192)])
def test_the_cache_has_rows_for_the_positions_fed_in_whole_key_blocks(
        monkeypatch, prompt_len, max_new, rows):
    config = ModelConfig(**{**TINY.to_dict(), "max_seq_len": 200})
    model = init_model(config, seed=0)
    seen = []
    forward = type(model).forward

    def spy(self, ids, rng=None, cache=None):
        seen.append(cache.keys.shape)
        return forward(self, ids, rng, cache)

    monkeypatch.setattr(type(model), "forward", spy)
    prompt = (PROMPT * 20)[:prompt_len]
    assert len(generate(model, prompt, max_new, stop_id=NEVER)) == max_new
    assert seen == [(config.n_layers, rows, config.d_model)] * max_new
