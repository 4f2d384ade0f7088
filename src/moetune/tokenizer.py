"""Byte-level tokenizer and the bit-exact chat template.

Ids 0-255 are raw UTF-8 bytes; 256+ are the special tokens. This keeps the
vocabulary self-contained (no external artifact) and lossless for Chinese
text. The template renders a conversation as

    <bos> [<|system|>\\n{text}\\n] per round: <|user|>\\n{text}\\n<|assistant|>\\n{text}<eot>\\n

with the loss mask set to 1 exactly on assistant text bytes plus the <eot>
closing each assistant turn.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, VocabError, is_int

PAD_ID = 256
BOS_ID = 257
EOT_ID = 258
SYSTEM_ID = 259
USER_ID = 260
ASSISTANT_ID = 261
VOCAB_SIZE = 262

SPECIAL_NAMES = {
    PAD_ID: "<pad>",
    BOS_ID: "<bos>",
    EOT_ID: "<eot>",
    SYSTEM_ID: "<|system|>",
    USER_ID: "<|user|>",
    ASSISTANT_ID: "<|assistant|>",
}

_NL = list("\n".encode("utf-8"))
# the roles whose turns render unmasked as marker, newline, text, newline
_PROMPT_MARKERS = {"system": SYSTEM_ID, "user": USER_ID}


def encode_text(text: str) -> list[int]:
    """Raw UTF-8 bytes of the text; never produces special ids."""
    return list(text.encode("utf-8"))


def decode_tokens(ids) -> str:
    """Lossless inverse of the renderers: bytes decode as UTF-8, special ids
    map back to their literal marker strings. An id that is not an int (a
    float, a bool, a string, None) or is outside the vocabulary is a
    VocabError."""
    out: list[str] = []
    buf = bytearray()

    def flush():
        if buf:
            out.append(buf.decode("utf-8", errors="replace"))
            buf.clear()

    for i in ids:
        if not is_int(i):
            raise VocabError(f"token id {i!r} is not an int")
        if 0 <= i < 256:
            buf.append(i)
        elif i in SPECIAL_NAMES:
            flush()
            out.append(SPECIAL_NAMES[i])
        else:
            raise VocabError(f"token id {i} outside vocabulary")
    flush()
    return "".join(out)


@dataclass
class TokenizedSample:
    token_ids: list[int]
    loss_mask: list[int]

    def __post_init__(self):
        if len(self.token_ids) != len(self.loss_mask):
            raise DimensionError(
                f"{len(self.token_ids)} token ids vs {len(self.loss_mask)} "
                "loss-mask entries")


def render_chat(turns: list[tuple[str, str]]) -> TokenizedSample:
    """Render (role, text) turns to token ids with the assistant-only mask.

    An empty system turn is omitted entirely. Mask is 1 on assistant text
    bytes and the <eot> that terminates the turn, 0 everywhere else.
    """
    ids: list[int] = [BOS_ID]
    mask: list[int] = [0]
    for role, text in turns:
        if role in _PROMPT_MARKERS:
            if role == "system" and not text:
                continue
            piece = [_PROMPT_MARKERS[role]] + _NL + encode_text(text) + _NL
            ids += piece
            mask += [0] * len(piece)
        elif role == "assistant":
            head = [ASSISTANT_ID] + _NL
            ids += head
            mask += [0] * len(head)
            body = encode_text(text)
            ids += body + [EOT_ID]
            mask += [1] * (len(body) + 1)
            ids += _NL
            mask += [0]
        else:
            raise VocabError(f"unknown role {role!r}")
    return TokenizedSample(ids, mask)


def render_prompt(turns: list[tuple[str, str]]) -> list[int]:
    """Render history for generation: the chat template followed by
    '<|assistant|>\\n', so the model continues with assistant bytes."""
    return render_chat(turns).token_ids + [ASSISTANT_ID] + _NL
