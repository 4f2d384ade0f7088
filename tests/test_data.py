"""Ingest, cleaning and template rendering."""

import json
from pathlib import Path

import pytest

from moetune import tokenizer as tok
from moetune.data import (
    ChatSample,
    Turn,
    clean_filter,
    ingest_alpaca,
    ingest_sharegpt,
    tokenize_corpus,
)
from moetune.errors import (ConfigError, DimensionError, ParseError,
                             RecordError, VocabError)

FIXTURES = Path(__file__).parent / "fixtures"


def n_rounds(sample):
    return sum(1 for t in sample.turns if t.role == "assistant")


# ---------------------------------------------------------------------------
# alpaca ingest


def test_alpaca_minimal_record(tmp_path):
    p = tmp_path / "a.json"
    p.write_text(json.dumps([{"instruction": "你好", "output": "你好！"}]),
                 encoding="utf-8")
    result = ingest_alpaca(p)
    (sample,) = result.samples
    assert [(t.role, t.text) for t in sample.turns] == \
        [("user", "你好"), ("assistant", "你好！")]
    assert n_rounds(sample) == 1


def test_alpaca_input_concatenation(tmp_path):
    p = tmp_path / "a.json"
    p.write_text(json.dumps([{"instruction": "翻译", "input": "文本A",
                              "output": "text A"}]), encoding="utf-8")
    (sample,) = ingest_alpaca(p).samples
    assert sample.turns[0].text == "翻译\n文本A"


def test_alpaca_fixture_counts_and_order():
    result = ingest_alpaca(FIXTURES / "alpaca_fixture.json")
    assert len(result.samples) == 3
    assert result.samples[0].turns[0].text == "你好"  # order preserved


def test_alpaca_missing_field_strict_vs_lenient(tmp_path):
    p = tmp_path / "a.json"
    p.write_text(json.dumps([{"instruction": "x", "output": "y"},
                             {"instruction": "no output"}]), encoding="utf-8")
    with pytest.raises(RecordError) as err:
        ingest_alpaca(p)
    assert "[1]" in str(err.value)
    result = ingest_alpaca(p, lenient=True)
    assert len(result.samples) == 1
    assert result.skipped == 1


def test_alpaca_non_string_input_strict_vs_lenient(tmp_path):
    p = tmp_path / "a.json"
    p.write_text(json.dumps([{"instruction": "x", "input": 5, "output": "y"},
                             {"instruction": "x", "output": "y"}]),
                 encoding="utf-8")
    with pytest.raises(RecordError) as err:
        ingest_alpaca(p)
    assert "[0]" in str(err.value)
    result = ingest_alpaca(p, lenient=True)
    assert len(result.samples) == 1 and result.skipped == 1


def test_alpaca_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("[{", encoding="utf-8")
    with pytest.raises(ParseError):
        ingest_alpaca(p)
    result = ingest_alpaca(p, lenient=True)
    assert result.samples == [] and result.skipped == 1


@pytest.mark.parametrize("ingest", [ingest_alpaca, ingest_sharegpt])
def test_non_array_file_strict_vs_lenient(tmp_path, ingest):
    p = tmp_path / "obj.json"
    p.write_text(json.dumps({"instruction": "x", "output": "y"}),
                 encoding="utf-8")
    with pytest.raises(ParseError, match="top-level JSON array"):
        ingest(p)
    result = ingest(p, lenient=True)
    assert result.samples == [] and result.skipped == 1


# ---------------------------------------------------------------------------
# sharegpt ingest


def test_sharegpt_single_round(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps([{"conversations": [
        {"from": "human", "value": "hi"}, {"from": "gpt", "value": "hello"}]}]),
        encoding="utf-8")
    (sample,) = ingest_sharegpt(p).samples
    assert n_rounds(sample) == 1


def test_sharegpt_three_rounds(tmp_path):
    convo = []
    for i in range(3):
        convo.append({"from": "human", "value": f"q{i}"})
        convo.append({"from": "gpt", "value": f"a{i}"})
    p = tmp_path / "s.json"
    p.write_text(json.dumps([{"conversations": convo}]), encoding="utf-8")
    (sample,) = ingest_sharegpt(p).samples
    assert n_rounds(sample) == 3


def test_sharegpt_trailing_human_dropped():
    result = ingest_sharegpt(FIXTURES / "sharegpt_fixture.json")
    assert len(result.samples) == 4
    # second fixture record ends with a dangling human turn
    assert result.samples[1].turns[-1].role == "assistant"
    assert n_rounds(result.samples[1]) == 1
    rounds = [n_rounds(s) for s in result.samples]
    assert sum(1 for r in rounds if r == 1) == 2
    assert sum(1 for r in rounds if r > 1) == 2


def test_sharegpt_alternation_violation(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps([{"conversations": [
        {"from": "gpt", "value": "I speak first"},
        {"from": "gpt", "value": "and again"}]}]), encoding="utf-8")
    with pytest.raises(RecordError):
        ingest_sharegpt(p)
    result = ingest_sharegpt(p, lenient=True)
    assert result.samples == [] and result.skipped == 1


GOOD_CONVERSATION = [{"from": "human", "value": "hi"},
                     {"from": "gpt", "value": "hello"}]


@pytest.mark.parametrize("conversations", [
    ["hi"],  # a turn that is a string, not an object
    5,  # not a list of turns
    [{"from": ["human"], "value": "hi"}, {"from": "gpt", "value": "hello"}],
], ids=["string_turn", "number", "list_speaker"])
def test_sharegpt_malformed_conversations_strict_vs_lenient(tmp_path,
                                                            conversations):
    p = tmp_path / "s.json"
    p.write_text(json.dumps([{"conversations": GOOD_CONVERSATION},
                             {"conversations": conversations}]),
                 encoding="utf-8")
    with pytest.raises(RecordError) as err:
        ingest_sharegpt(p)
    assert "[1]" in str(err.value)
    result = ingest_sharegpt(p, lenient=True)
    assert len(result.samples) == 1 and result.skipped == 1


MISSING = object()


def ingest_with_categories(tmp_path, fmt, categories, lenient=False):
    """Ingest one valid record of format `fmt` per entry of `categories`,
    with that `category` field, or none for the MISSING entry."""
    ingest, body = {
        "alpaca": (ingest_alpaca, {"instruction": "x", "output": "y"}),
        "sharegpt": (ingest_sharegpt, {"conversations": GOOD_CONVERSATION}),
    }[fmt]
    records = [body if c is MISSING else dict(body, category=c)
               for c in categories]
    p = tmp_path / "c.json"
    p.write_text(json.dumps(records), encoding="utf-8")
    return ingest(p, lenient=lenient)


@pytest.mark.parametrize("fmt", ["alpaca", "sharegpt"])
@pytest.mark.parametrize("category", [["a", 1], 5, 0, False, {}])
def test_non_string_category_strict_vs_lenient(tmp_path, fmt, category):
    with pytest.raises(RecordError, match=r"\[1\].*category"):
        ingest_with_categories(tmp_path, fmt, ["qa", category])
    result = ingest_with_categories(tmp_path, fmt, ["qa", category],
                                    lenient=True)
    assert [s.category for s in result.samples] == ["qa"]
    assert result.skipped == 1


@pytest.mark.parametrize("fmt", ["alpaca", "sharegpt"])
def test_missing_null_or_empty_category_is_unknown(tmp_path, fmt):
    result = ingest_with_categories(tmp_path, fmt, [MISSING, None, ""])
    assert [s.category for s in result.samples] == ["unknown"] * 3


# ---------------------------------------------------------------------------
# cleaning


def sample_of(*pairs, source="alpaca_zh"):
    return ChatSample(turns=[Turn(r, t) for r, t in pairs], source=source)


def test_duplicate_dropped_first_kept():
    a = sample_of(("user", "你好"), ("assistant", "回答"))
    b = sample_of(("user", "你好"), ("assistant", "回答"))
    kept, report = clean_filter([a, b], max_seq_len=64)
    assert len(kept) == 1
    assert report.counts["duplicate"]["alpaca_zh"] == 1


def test_empty_turn_rejected():
    s = sample_of(("user", "问题"), ("assistant", "   "))
    kept, report = clean_filter([s], max_seq_len=64)
    assert kept == []
    assert report.counts["empty_turn"]["alpaca_zh"] == 1


def test_control_characters_stripped():
    s = sample_of(("user", "\x00问\x07题\x1b"), ("assistant", "答\t案\n第二行"))
    kept, _ = clean_filter([s], max_seq_len=64)
    assert kept[0].turns[0].text == "问题"
    assert kept[0].turns[1].text == "答\t案\n第二行"


def test_too_long_rejected():
    s = sample_of(("user", "长" * 300), ("assistant", "好"))
    kept, report = clean_filter([s], max_seq_len=64)
    assert kept == []
    assert report.counts["too_long"]["alpaca_zh"] == 1


@pytest.mark.parametrize("max_seq_len", ["512", -1, 0, 2.5, None, True])
def test_clean_filter_rejects_a_max_seq_len_that_is_not_a_count(max_seq_len):
    s = sample_of(("user", "问题"), ("assistant", "回答"))
    with pytest.raises(ConfigError, match="max_seq_len"):
        clean_filter([s], max_seq_len=max_seq_len)


def test_clean_filter_idempotent():
    samples = [
        sample_of(("user", "  你好 "), ("assistant", "\x02答案")),
        sample_of(("user", "你好"), ("assistant", "答案")),  # dup after cleaning
        sample_of(("user", "另一个"), ("assistant", "回复"), source="sharegpt"),
    ]
    once, _ = clean_filter(samples, max_seq_len=128)
    twice, report2 = clean_filter(once, max_seq_len=128)
    assert [(s.source, [(t.role, t.text) for t in s.turns]) for s in once] == \
        [(s.source, [(t.role, t.text) for t in s.turns]) for s in twice]
    assert report2.counts == {}


# ---------------------------------------------------------------------------
# template rendering


def test_single_turn_mask_regions():
    ts = tok.render_chat([("user", "你好"), ("assistant", "好的")])
    ids, mask = ts.token_ids, ts.loss_mask
    assert ids[0] == tok.BOS_ID and mask[0] == 0
    # everything before the assistant marker is masked out
    a_pos = ids.index(tok.ASSISTANT_ID)
    assert all(m == 0 for m in mask[:a_pos + 2])  # marker + newline
    body = "好的".encode("utf-8")
    eot_pos = ids.index(tok.EOT_ID)
    assert mask[eot_pos] == 1
    assert all(m == 1 for m in mask[eot_pos - len(body):eot_pos])
    assert sum(mask) == len(body) + 1


def test_multi_round_mask_sum_oracle():
    turns = [("system", "系统"), ("user", "甲"), ("assistant", "乙答"),
             ("user", "丙"), ("assistant", "丁答复")]
    ts = tok.render_chat(turns)
    expected = sum(len(t.encode("utf-8")) for r, t in turns if r == "assistant")
    n_rounds = sum(1 for r, _ in turns if r == "assistant")
    assert sum(ts.loss_mask) == expected + n_rounds
    assert sum(ts.loss_mask) > 0


def test_empty_system_omitted():
    with_sys = tok.render_chat([("system", ""), ("user", "a"), ("assistant", "b")])
    without = tok.render_chat([("user", "a"), ("assistant", "b")])
    assert with_sys.token_ids == without.token_ids
    assert tok.SYSTEM_ID not in with_sys.token_ids


def test_render_round_trip_lossless():
    turns = [("system", "你是助手"), ("user", "写诗"), ("assistant", "春眠不觉晓")]
    ts = tok.render_chat(turns)
    assert tok.decode_tokens(ts.token_ids) == (
        "<bos><|system|>\n你是助手\n<|user|>\n写诗\n"
        "<|assistant|>\n春眠不觉晓<eot>\n")


def test_unknown_role_raises():
    with pytest.raises(VocabError, match="unknown role"):
        tok.render_chat([("user", "a"), ("tool", "b"), ("assistant", "c")])


def test_tokenized_sample_rejects_mask_length_mismatch():
    with pytest.raises(DimensionError):
        tok.TokenizedSample([tok.BOS_ID, 65, tok.EOT_ID], [0, 1])


def test_render_prompt_ends_open():
    ids = tok.render_prompt([("user", "问")])
    assert ids[-2] == tok.ASSISTANT_ID
    assert ids[-1] == ord("\n")


def prompt_histories():
    """Single-turn, system and empty-system histories, then each sharegpt
    fixture conversation and every prefix of it that ends with a user turn."""
    histories = [[("user", "问")],
                 [("system", "你是助手"), ("user", "写诗")],
                 [("system", ""), ("user", "a")]]
    roles = {"human": "user", "gpt": "assistant", "system": "system"}
    with open(FIXTURES / "sharegpt_fixture.json", encoding="utf-8") as f:
        for rec in json.load(f):
            turns = [(roles[t["from"]], t["value"]) for t in rec["conversations"]]
            histories.append(turns)
            histories += [turns[:i + 1] for i, (role, _) in enumerate(turns)
                          if role == "user"]
    return histories


def test_render_prompt_is_the_chat_template_plus_an_open_assistant_turn():
    histories = prompt_histories()
    assert sum(1 for h in histories
               if sum(r == "assistant" for r, _ in h) >= 2) == 2
    for turns in histories:
        assert tok.render_prompt(turns) == \
            tok.render_chat(turns).token_ids + [tok.ASSISTANT_ID, ord("\n")]


def test_tokenize_corpus_masks_positive():
    result = ingest_sharegpt(FIXTURES / "sharegpt_fixture.json")
    for ts in tokenize_corpus(result.samples):
        assert sum(ts.loss_mask) > 0
        assert len(ts.token_ids) == len(ts.loss_mask)
