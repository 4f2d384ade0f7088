"""Tests of the benchmark's own code: inputs, tracing and metric arithmetic.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from moetune import lora, model, tensor, trainer  # noqa: E402
from moetune.tokenizer import TokenizedSample  # noqa: E402


# -- workload generators -------------------------------------------------------


def test_long_conversations_deterministic_and_in_window():
    a = inputs.long_conversations(7, n=4)
    b = inputs.long_conversations(7, n=4)
    assert [(s.token_ids, s.loss_mask) for s in a] == \
        [(s.token_ids, s.loss_mask) for s in b]
    lo, hi = inputs.LONG_SAMPLE_TOKENS
    assert all(lo <= len(s.token_ids) <= hi for s in a)
    assert all(sum(s.loss_mask) > 0 for s in a)
    c = inputs.long_conversations(8, n=4)
    assert [s.token_ids for s in a] != [s.token_ids for s in c]


def test_chat_prompts_deterministic_and_in_window():
    short, long_prompts = inputs.chat_prompts(3)
    assert (short, long_prompts) == inputs.chat_prompts(3)
    assert long_prompts != inputs.chat_prompts(4)[1]
    assert all(inputs.SHORT_PROMPT_TOKENS[0] <= len(p) <= inputs.SHORT_PROMPT_TOKENS[1]
               for p in short)
    assert all(inputs.LONG_PROMPT_TOKENS[0] <= len(p) <= inputs.LONG_PROMPT_TOKENS[1]
               for p in long_prompts)


def test_chat_mix_is_the_fixture_share_of_multi_round_conversations():
    # 9 cleaned fixture conversations, 2 of them with two user rounds
    assert inputs.chat_mix() == (7, 2)


def test_request_blocks_have_a_fixed_mix():
    short, long_prompts = inputs.chat_prompts(0)
    for block in range(6):
        prompts = inputs.request_block(0, block, short, long_prompts, 7, 2)
        assert prompts == inputs.request_block(0, block, short, long_prompts, 7, 2)
        assert sum(p in long_prompts for p in prompts) == 2
        assert sum(p in short for p in prompts) == 7


def test_train_seed_deterministic():
    assert inputs.train_seed(5, 2) == inputs.train_seed(5, 2)
    assert inputs.train_seed(5, 2) != inputs.train_seed(5, 3)


def test_fixture_corpus_is_the_nine_cleaned_samples():
    lengths = sorted(len(s.token_ids) for s in inputs.fixture_corpus())
    assert lengths == [44, 56, 62, 66, 83, 92, 101, 131, 137]


# -- tracing -------------------------------------------------------------------


def _tiny_model():
    cfg = model.ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16,
                            n_experts=4, top_k=2, max_seq_len=32)
    m = model.init_model(cfg, seed=0)
    m.quantize_frozen(64)
    lora.attach_adapters(m, lora.LoraConfig(rank=2), seed=0)
    return m


def _bindings():
    """Every attribute of the moetune modules and of the traced classes."""
    out = {}
    for module in tracing._moetune_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    out[(module.__name__, attr, cattr)] = cvalue
    return out


def test_trace_restores_every_wrapped_function():
    before = _bindings()
    m = _tiny_model()
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(tracing.layer_targets())
        assert trainer.batch_loss is not before[("moetune.trainer", "batch_loss")]
        assert model.qmatmul is not before[("moetune.model", "qmatmul")]
        m.forward([1, 2, 3])
    assert tracer.spans
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []


def test_pad_frac_and_rows_match_hand_count():
    # lengths 5 and 3: batch_loss pads both to 5 and runs 4 input positions
    # each, so 8 rows run and 4 + 2 = 6 of them are useful.
    m = _tiny_model()
    samples = [TokenizedSample([1, 2, 3, 4, 5], [0, 0, 1, 1, 1]),
               TokenizedSample([1, 2, 3], [0, 1, 1])]
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(tracing.layer_targets())
        loss = trainer.batch_loss(m, samples, np.random.default_rng(0))
        loss.backward()
    metrics = run.layer_metrics(tracer.spans, (0, 0), (0, len(tracer.spans)), 1)
    assert metrics["trainer.pad_frac"] == pytest.approx(0.25)
    assert metrics["model.forward.calls"] == 2
    assert metrics["model.forward.rows"] == 8
    # per forward of T=4 rows: q, k, v, o see 4 rows each, and each row goes
    # to top_k=2 experts whose gate, up and down projections all see it
    assert metrics["quant.qmatmul.rows"] == 2 * (4 * 4 + 3 * 2 * 4)
    assert metrics["model.expert.rows_max_share"] <= 1.0
    assert metrics["tensor.backward.ms"] > 0


def test_summarize_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0, None],
             ["b", 2.0, 5.0, 0, 3, None],
             ["b", 6.0, 7.0, 0, 1, None],
             ["c", 2.5, 3.0, 1, 0, None]]
    st = tracing.summarize(spans)
    assert st["a"].self_s == pytest.approx(6.0)
    assert st["b"].calls == 2 and st["b"].rows == 4
    assert st["b"].self_s == pytest.approx(3.5)
    assert tracing.outermost_s(spans, ("a", "b")) == pytest.approx(10.0)
    assert tracing.child_durations(spans, "c", "b") == [pytest.approx(0.5)]


def test_tensor_ops_exclude_gradient_helpers():
    names = tracing.tensor_op_names()
    assert "matmul" in names and "causal_attention" in names
    assert "gradient_check" not in names
    assert all(callable(getattr(tensor, n)) for n in names)


# -- entry point ---------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in bench["per_layer"]] == list(run.PER_LAYER.values())
    assert [w["name"] for w in bench["workloads"]] == ["sft_mixed", "sft_long", "chat"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
