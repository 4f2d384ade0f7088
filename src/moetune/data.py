"""Three-source instruction corpus: ingest, clean/filter and tokenize.

Sources: two alpaca-format files (single-round instruction/output pairs)
and one sharegpt-format file (multi-round conversations). Both formats go
through one record loop; each differs only in how it parses a record into
turns. Each ingest keeps its file's record order. The caller concatenates
the sources; since `clean_filter` keeps the first copy of a duplicate, that
order decides which source a duplicate is counted against.
"""

from __future__ import annotations

import hashlib
import json
import unicodedata
from dataclasses import dataclass, field

from .errors import ConfigError, ParseError, RecordError, check_path, is_count
from .tokenizer import TokenizedSample, render_chat


@dataclass
class Turn:
    role: str
    text: str


@dataclass
class ChatSample:
    """One conversation: optional system turn, then alternating user and
    assistant turns ending with assistant."""

    turns: list[Turn]
    source: str
    category: str = "unknown"

    def is_valid(self) -> bool:
        body = [t for t in self.turns if t.role != "system"]
        sys_count = sum(1 for t in self.turns if t.role == "system")
        if sys_count > 1 or (sys_count == 1 and self.turns[0].role != "system"):
            return False
        if not body or body[-1].role != "assistant":
            return False
        for i, t in enumerate(body):
            if t.role != ("user" if i % 2 == 0 else "assistant"):
                return False
        return True


@dataclass
class IngestResult:
    samples: list[ChatSample]
    skipped: int = 0


def _load_json_array(path) -> list:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: malformed JSON ({e})") from e
    if not isinstance(data, list):
        raise ParseError(f"{path}: expected a top-level JSON array")
    return data


def _ingest(path, source: str, lenient: bool, turns_of) -> IngestResult:
    """The one record loop of both formats.

    `turns_of(rec, where)` parses one record of the file's JSON array into
    turns, or raises RecordError. A turn list that is empty or breaks the
    ChatSample role order is a RecordError too, and so is a `category`
    that is present but not a string; a missing, null or empty one is
    "unknown". Strict mode raises every error; lenient mode counts each
    bad record as skipped, and a file that is not a JSON array as one
    skipped record. A path that is not a str, bytes or os.PathLike is a
    ConfigError in both modes.
    """
    path = check_path(path)
    try:
        data = _load_json_array(path)
    except ParseError:
        if lenient:
            return IngestResult([], skipped=1)
        raise
    samples: list[ChatSample] = []
    skipped = 0
    for idx, rec in enumerate(data):
        where = f"{path}[{idx}]"
        try:
            turns = turns_of(rec, where)  # a RecordError unless rec is a dict
            category = rec.get("category")
            if category is not None and not isinstance(category, str):
                raise RecordError(f"{where}: category must be a string")
            sample = ChatSample(turns=turns, source=source,
                                category=category or "unknown")
            if not sample.turns or not sample.is_valid():
                raise RecordError(f"{where}: roles do not alternate")
            samples.append(sample)
        except RecordError:
            if not lenient:
                raise
            skipped += 1
    return IngestResult(samples, skipped)


def _alpaca_turns(rec, where: str) -> list[Turn]:
    if not isinstance(rec, dict):
        raise RecordError(f"{where}: record is not an object")
    try:
        instruction = rec["instruction"]
        output = rec["output"]
    except KeyError as e:
        raise RecordError(f"{where}: missing field {e}") from e
    if not isinstance(instruction, str) or not isinstance(output, str):
        raise RecordError(f"{where}: fields must be strings")
    extra = rec.get("input") or ""
    if not isinstance(extra, str):
        raise RecordError(f"{where}: input must be a string")
    user_text = instruction + ("\n" + extra if extra else "")
    return [Turn("user", user_text), Turn("assistant", output)]


def ingest_alpaca(path, source: str = "alpaca_zh",
                  lenient: bool = False) -> IngestResult:
    """Parse an alpaca-format JSON array into single-round chat samples.

    Each record becomes one user turn (instruction, plus newline + input
    when input is non-empty) and one assistant turn (output).
    """
    return _ingest(path, source, lenient, _alpaca_turns)


_SHAREGPT_ROLES = {"human": "user", "gpt": "assistant", "system": "system"}


def _sharegpt_turns(rec, where: str) -> list[Turn]:
    if not isinstance(rec, dict) or "conversations" not in rec:
        raise RecordError(f"{where}: missing 'conversations'")
    if not isinstance(rec["conversations"], list):
        raise RecordError(f"{where}: 'conversations' is not a list")
    turns: list[Turn] = []
    for turn in rec["conversations"]:
        if not isinstance(turn, dict):
            raise RecordError(f"{where}: turn is not an object")
        speaker = turn.get("from")
        role = (_SHAREGPT_ROLES.get(speaker)
                if isinstance(speaker, str) else None)
        if role is None:
            raise RecordError(f"{where}: unknown role {speaker!r}")
        value = turn.get("value")
        if not isinstance(value, str):
            raise RecordError(f"{where}: non-string value")
        turns.append(Turn(role, value))
    while turns and turns[-1].role != "assistant":
        turns.pop()
    return turns


def ingest_sharegpt(path, source: str = "sharegpt",
                    lenient: bool = False) -> IngestResult:
    """Parse a sharegpt-format JSON array of multi-round conversations.

    human maps to user and gpt to assistant; trailing non-assistant turns
    are dropped; conversations that still violate alternation are record
    errors (skippable in lenient mode).
    """
    return _ingest(path, source, lenient, _sharegpt_turns)


# ---------------------------------------------------------------------------
# cleaning


@dataclass
class RejectionReport:
    """Counts of dropped samples per rule per source."""

    counts: dict = field(default_factory=dict)

    def add(self, rule: str, source: str) -> None:
        self.counts.setdefault(rule, {})
        self.counts[rule][source] = self.counts[rule].get(source, 0) + 1


def _normalize_text(text: str) -> str:
    # remove control characters other than \n and \t, then trim the ends
    cleaned = "".join(
        ch for ch in text
        if ch in "\n\t" or unicodedata.category(ch) != "Cc")
    return cleaned.strip()


def _sample_fingerprint(sample: ChatSample) -> str:
    h = hashlib.sha256()
    for t in sample.turns:
        h.update(t.role.encode())
        h.update(b"\x00")
        h.update(t.text.encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()


def _check_samples(samples) -> None:
    """ConfigError unless `samples` is a list of ChatSample, each with a str
    source and a list of Turns of str role and text."""
    if not (isinstance(samples, list) and all(
            isinstance(s, ChatSample) and isinstance(s.source, str)
            and isinstance(s.turns, list)
            and all(isinstance(t, Turn) and isinstance(t.role, str)
                    and isinstance(t.text, str) for t in s.turns)
            for s in samples)):
        raise ConfigError(f"samples must be a list of ChatSample with a str "
                          f"source and turns of str role and text, got "
                          f"{samples!r:.60}")


def clean_filter(samples: list[ChatSample], max_seq_len: int = 512
                 ) -> tuple[list[ChatSample], RejectionReport]:
    """Normalize text, then drop empty-turn samples, exact duplicates
    (first occurrence kept) and samples that render to more than
    `max_seq_len` tokens, in that order.

    Rejections are data, not errors; the report counts them per rule and
    source. The whole pass is idempotent. Samples that are not a list of
    ChatSample with a str source and str roles and texts, or a max_seq_len
    that is not an int >= 1, are a ConfigError.
    """
    _check_samples(samples)
    if not is_count(max_seq_len, 1):
        raise ConfigError(
            f"max_seq_len must be an int >= 1, got {max_seq_len!r}")
    report = RejectionReport()
    kept: list[ChatSample] = []
    seen: set[str] = set()
    for sample in samples:
        turns = [Turn(t.role, _normalize_text(t.text)) for t in sample.turns]
        cleaned = ChatSample(turns=turns, source=sample.source,
                             category=sample.category)
        if any(not t.text for t in turns):
            report.add("empty_turn", sample.source)
            continue
        fp = _sample_fingerprint(cleaned)
        if fp in seen:
            report.add("duplicate", sample.source)
            continue
        seen.add(fp)
        if max_seq_len < len(
                render_chat([(t.role, t.text) for t in turns]).token_ids):
            report.add("too_long", sample.source)
            continue
        kept.append(cleaned)
    return kept, report


def tokenize_corpus(samples: list[ChatSample]) -> list[TokenizedSample]:
    """The rendered chats of a list of ChatSample (ConfigError otherwise)."""
    _check_samples(samples)
    return [render_chat([(t.role, t.text) for t in s.turns]) for s in samples]
