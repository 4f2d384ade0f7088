"""Seeded input generators: every input comes from the three in-repo fixtures.

The same seed always gives the same inputs. Lengths are held in narrow
windows so that the cost of a run depends on the seed as little as
possible; the seed chooses content and order.
"""

from __future__ import annotations

import os

import numpy as np

from moetune import data, tokenizer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")

# sft_long: packed multi-round conversations, in rendered tokens
LONG_SAMPLE_TOKENS = (480, 511)
LONG_POOL = 16
# chat: rendered prompt lengths of the two request groups
SHORT_PROMPT_TOKENS = (24, 40)
LONG_PROMPT_TOKENS = (290, 310)
LONG_PROMPTS = 8


def fixture_chats() -> list[data.ChatSample]:
    """The three fixture files, ingested in source order and cleaned."""
    samples = (
        data.ingest_alpaca(os.path.join(FIXTURES, "alpaca_fixture.json"),
                           source="alpaca_zh").samples
        + data.ingest_alpaca(os.path.join(FIXTURES, "alpaca_gpt4_fixture.json"),
                             source="alpaca_gpt4_zh").samples
        + data.ingest_sharegpt(os.path.join(FIXTURES, "sharegpt_fixture.json"),
                               source="sharegpt").samples)
    kept, _ = data.clean_filter(samples)
    return kept


def fixture_corpus() -> list[tokenizer.TokenizedSample]:
    """sft_mixed: the cleaned, tokenized fixture corpus (seed-independent)."""
    return data.tokenize_corpus(fixture_chats())


def fixture_rounds(chats: list[data.ChatSample]) -> list[tuple[str, str]]:
    """Every (user, assistant) round of the fixture conversations."""
    rounds = []
    for chat in chats:
        body = [t for t in chat.turns if t.role != "system"]
        rounds += [(body[i].text, body[i + 1].text)
                   for i in range(0, len(body) - 1, 2)]
    return rounds


def _round_tokens(user: str, assistant: str) -> int:
    # render_chat is additive per turn after the single leading <bos>
    return len(tokenizer.render_chat(
        [("user", user), ("assistant", assistant)]).token_ids) - 1


def _pack(rng: np.random.Generator, rounds: list[tuple[str, str]],
          start: int, lo: int, hi: int) -> list[tuple[str, str]]:
    """Random rounds whose token costs, plus ``start``, land in [lo, hi]."""
    costs = [_round_tokens(u, a) for u, a in rounds]
    while True:
        picked: list[tuple[str, str]] = []
        length = start
        while True:
            fitting = [i for i, c in enumerate(costs) if length + c <= hi]
            if not fitting:
                break
            i = fitting[int(rng.integers(len(fitting)))]
            picked.append(rounds[i])
            length += costs[i]
        if length >= lo:
            return picked


def long_conversations(seed: int, n: int = LONG_POOL
                       ) -> list[tokenizer.TokenizedSample]:
    """sft_long: fixture rounds packed into multi-round conversations.

    Each conversation renders to LONG_SAMPLE_TOKENS tokens; the samples go
    through the same clean/tokenize pipeline as the fixture corpus.
    """
    rng = np.random.default_rng([seed, 1])
    rounds = fixture_rounds(fixture_chats())
    lo, hi = LONG_SAMPLE_TOKENS
    chats = []
    for _ in range(n):
        turns = []
        for user, assistant in _pack(rng, rounds, 1, lo, hi):
            turns += [data.Turn("user", user), data.Turn("assistant", assistant)]
        chats.append(data.ChatSample(turns=turns, source="sharegpt",
                                     category="packed"))
    kept, _ = data.clean_filter(chats)
    return data.tokenize_corpus(kept)


def chat_prompts(seed: int) -> tuple[list[list[int]], list[list[int]]]:
    """chat: (short single-turn prompts, long multi-round histories).

    Short prompts are every fixture user turn whose rendered prompt has
    SHORT_PROMPT_TOKENS tokens, in seeded order. Long prompts are seeded
    histories of fixture rounds plus one user turn, LONG_PROMPT_TOKENS long.
    """
    rng = np.random.default_rng([seed, 2])
    rounds = fixture_rounds(fixture_chats())
    users = sorted({u for u, _ in rounds})
    lo, hi = SHORT_PROMPT_TOKENS
    short = [p for p in (tokenizer.render_prompt([("user", u)]) for u in users)
             if lo <= len(p) <= hi]
    short = [short[i] for i in rng.permutation(len(short))]
    lo, hi = LONG_PROMPT_TOKENS
    long_prompts = []
    while len(long_prompts) < LONG_PROMPTS:
        last = users[int(rng.integers(len(users)))]
        tail = len(tokenizer.render_prompt([("user", last)])) - 1
        turns = []
        for user, assistant in _pack(rng, rounds, 1 + tail, lo, hi):
            turns += [("user", user), ("assistant", assistant)]
        prompt = tokenizer.render_prompt(turns + [("user", last)])
        if lo <= len(prompt) <= hi:
            long_prompts.append(prompt)
    return short, long_prompts


def chat_mix() -> tuple[int, int]:
    """chat: (short, long) requests per block of the closed loop.

    The mix is that of the cleaned fixture corpus: a block has one request
    per fixture conversation, and a long one for each multi-round
    conversation (2 of the 9).
    """
    chats = fixture_chats()
    n_long = sum(sum(t.role == "user" for t in c.turns) > 1 for c in chats)
    return len(chats) - n_long, n_long


def request_block(seed: int, block: int, short: list[list[int]],
                  long_prompts: list[list[int]], n_short: int, n_long: int
                  ) -> list[list[int]]:
    """Prompts of one closed-loop block: n_short short and n_long long ones.

    Both kinds cycle through their lists in order, so every block mix is
    the same; the seed places the long requests within the block.
    """
    rng = np.random.default_rng([seed, 3, block])
    size = n_short + n_long
    slots = set(rng.choice(size, n_long, replace=False).tolist())
    next_short, next_long = block * n_short, block * n_long
    prompts = []
    for i in range(size):
        if i in slots:
            prompts.append(long_prompts[next_long % len(long_prompts)])
            next_long += 1
        else:
            prompts.append(short[next_short % len(short)])
            next_short += 1
    return prompts


def train_seed(seed: int, call: int) -> int:
    """TrainConfig seed of one timed train() call."""
    return int(np.random.default_rng([seed, 4, call]).integers(2 ** 31))
