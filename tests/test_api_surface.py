"""Every public module-level function and class of moetune has a caller.

A name counts as called when another moetune module refers to it in code,
as a `Name` or an `Attribute` of the syntax tree; a docstring or comment
that mentions it does not count. A name meant for users of the package, or
kept for a stated reason, is listed in ENTRY_POINTS with that reason.
"""

import ast
from pathlib import Path

import moetune

ENTRY_POINTS = {
    "checkpoint.load_checkpoint": "resumes a run and loads a tuned model",
    "data.Turn": "one chat turn; callers build ChatSamples from them",
    "data.ChatSample": "the pipeline's sample type; the benchmark builds them",
    "data.IngestResult": "what the ingest functions return",
    "data.ingest_alpaca": "pipeline entry: Alpaca-style JSON",
    "data.ingest_sharegpt": "pipeline entry: ShareGPT-style JSON",
    "data.RejectionReport": "what clean_filter returns besides the samples",
    "data.clean_filter": "pipeline entry: normalize, dedupe, length-filter",
    "data.tokenize_corpus": "pipeline entry: samples to training tokens",
    "errors.MoetuneError": "the base class a caller catches",
    "lora.LoraPair": "the adapter type a Linear holds",
    "lora.attach_adapters": "adds fresh adapters before tuning",
    "model.Linear": "a projection of the model build_model assembles",
    "model.Expert": "an expert of the model build_model assembles",
    "model.MoELayer": "the MoE block of the model build_model assembles",
    "model.DecoderLayer": "a layer of the model build_model assembles",
    "model.moe_forward": "DecoderModel.forward's MoE block",
    "model.init_model": "builds a fresh model",
    "quant.dequantize": "the 4-bit value format; QuantizedMatrix.dequant",
    "tokenizer.encode_text": "the byte-level text encoding",
    "tokenizer.decode_tokens": "how a caller reads generate's output",
    "tokenizer.render_prompt": "builds a generate prompt from a chat",
    "trainer.LossLogRow": "one row of train's loss log",
    "trainer.write_loss_log": "train's JSONL step log, one LossLogRow "
                              "per line",
    "trainer.batch_loss": "the batch objective train minimizes per "
                          "sample, which the benchmark backprops",
    "trainer.train": "runs SFT",
    "trainer.generate": "decodes from a tuned model",
}


def _modules() -> dict[str, ast.Module]:
    root = Path(moetune.__file__).parent
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(root.glob("*.py"))}


def _public_definitions(tree: ast.Module) -> list[str]:
    return [n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_or_a_reason():
    modules = _modules()
    refs = {name: _references(tree) for name, tree in modules.items()}
    uncalled = {f"{mod}.{name}" for mod, tree in modules.items()
                for name in _public_definitions(tree)
                if not any(name in r for other, r in refs.items()
                           if other != mod)}
    missing = sorted(uncalled - set(ENTRY_POINTS))
    assert not missing, (
        f"no other moetune module calls {missing}: give each a caller, "
        "delete it, or list it in ENTRY_POINTS with a reason")
    stale = sorted(set(ENTRY_POINTS) - uncalled)
    assert not stale, f"drop {stale} from ENTRY_POINTS: gone or called now"
