"""Three-source instruction corpus: ingest, clean/filter and tokenize.

Sources: two alpaca-format files (single-round instruction/output pairs)
and one sharegpt-format file (multi-round conversations). Each ingest keeps
its file's record order. The caller concatenates the sources; since
`clean_filter` keeps the first copy of a duplicate, that order decides
which source a duplicate is counted against.
"""

from __future__ import annotations

import hashlib
import json
import unicodedata
from dataclasses import dataclass, field

from .errors import ParseError, RecordError
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


def _load_json_array(path, lenient: bool) -> list | None:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        if lenient:
            return None
        raise ParseError(f"{path}: malformed JSON ({e})") from e
    if not isinstance(data, list):
        if lenient:
            return None
        raise ParseError(f"{path}: expected a top-level JSON array")
    return data


def ingest_alpaca(path, source: str = "alpaca_zh",
                  lenient: bool = False) -> IngestResult:
    """Parse an alpaca-format JSON array into single-round chat samples.

    Each record becomes one user turn (instruction, plus newline + input
    when input is non-empty) and one assistant turn (output).
    """
    data = _load_json_array(path, lenient)
    if data is None:
        return IngestResult([], skipped=1)
    samples: list[ChatSample] = []
    skipped = 0
    for idx, rec in enumerate(data):
        try:
            if not isinstance(rec, dict):
                raise RecordError(f"{path}[{idx}]: record is not an object")
            try:
                instruction = rec["instruction"]
                output = rec["output"]
            except KeyError as e:
                raise RecordError(f"{path}[{idx}]: missing field {e}") from e
            if not isinstance(instruction, str) or not isinstance(output, str):
                raise RecordError(f"{path}[{idx}]: fields must be strings")
            extra = rec.get("input") or ""
            if not isinstance(extra, str):
                raise RecordError(f"{path}[{idx}]: input must be a string")
            user_text = instruction + ("\n" + extra if extra else "")
            samples.append(ChatSample(
                turns=[Turn("user", user_text), Turn("assistant", output)],
                source=source,
                category=rec.get("category", "unknown") or "unknown"))
        except RecordError:
            if not lenient:
                raise
            skipped += 1
    return IngestResult(samples, skipped)


_SHAREGPT_ROLES = {"human": "user", "gpt": "assistant", "system": "system"}


def ingest_sharegpt(path, source: str = "sharegpt",
                    lenient: bool = False) -> IngestResult:
    """Parse a sharegpt-format JSON array of multi-round conversations.

    human maps to user and gpt to assistant; trailing non-assistant turns
    are dropped; conversations that still violate alternation are record
    errors (skippable in lenient mode).
    """
    data = _load_json_array(path, lenient)
    if data is None:
        return IngestResult([], skipped=1)
    samples: list[ChatSample] = []
    skipped = 0
    for idx, rec in enumerate(data):
        try:
            if not isinstance(rec, dict) or "conversations" not in rec:
                raise RecordError(f"{path}[{idx}]: missing 'conversations'")
            if not isinstance(rec["conversations"], list):
                raise RecordError(
                    f"{path}[{idx}]: 'conversations' is not a list")
            turns: list[Turn] = []
            for turn in rec["conversations"]:
                if not isinstance(turn, dict):
                    raise RecordError(f"{path}[{idx}]: turn is not an object")
                speaker = turn.get("from")
                role = (_SHAREGPT_ROLES.get(speaker)
                        if isinstance(speaker, str) else None)
                if role is None:
                    raise RecordError(
                        f"{path}[{idx}]: unknown role {speaker!r}")
                value = turn.get("value")
                if not isinstance(value, str):
                    raise RecordError(f"{path}[{idx}]: non-string value")
                turns.append(Turn(role, value))
            while turns and turns[-1].role != "assistant":
                turns.pop()
            sample = ChatSample(turns=turns, source=source,
                                category=rec.get("category", "unknown") or "unknown")
            if not turns or not sample.is_valid():
                raise RecordError(f"{path}[{idx}]: roles do not alternate")
            samples.append(sample)
        except RecordError:
            if not lenient:
                raise
            skipped += 1
    return IngestResult(samples, skipped)


# ---------------------------------------------------------------------------
# cleaning


@dataclass
class CleaningRules:
    max_seq_len: int | None = 512


@dataclass
class RejectionReport:
    """Counts of dropped samples per rule per source."""

    counts: dict = field(default_factory=dict)
    total_in: int = 0
    total_kept: int = 0

    def add(self, rule: str, source: str) -> None:
        self.counts.setdefault(rule, {})
        self.counts[rule][source] = self.counts[rule].get(source, 0) + 1

    def to_dict(self) -> dict:
        return {"total_in": self.total_in, "total_kept": self.total_kept,
                "by_rule": self.counts}


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


def rendered_length(sample: ChatSample) -> int:
    return len(render_chat([(t.role, t.text) for t in sample.turns]).token_ids)


def clean_filter(samples: list[ChatSample],
                 rules: CleaningRules | None = None
                 ) -> tuple[list[ChatSample], RejectionReport]:
    """Normalize text, then drop empty-turn samples, exact duplicates
    (first occurrence kept) and over-length samples, in that order.

    Rejections are data, not errors; the report counts them per rule and
    source. The whole pass is idempotent.
    """
    rules = rules or CleaningRules()
    report = RejectionReport(total_in=len(samples))
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
        if rules.max_seq_len is not None and \
                rendered_length(cleaned) > rules.max_seq_len:
            report.add("too_long", sample.source)
            continue
        kept.append(cleaned)
    report.total_kept = len(kept)
    return kept, report


def tokenize_corpus(samples: list[ChatSample]) -> list[TokenizedSample]:
    return [render_chat([(t.role, t.text) for t in s.turns]) for s in samples]
