"""Run one moetune benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sft_mixed --seed 1 --seconds 25 --trace 0

Workloads: sft_mixed, sft_long, chat (see perfbench/README.md). With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a traced run and the tracing overhead.
Every metric is printed by name with its unit, then a line of host and run
information, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The benchmark runs the package from ``src/`` next to this directory and its
inputs from ``tests/fixtures/``; without them it exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

# numpy and moetune are imported inside functions, after limit_blas_threads()
# has set the BLAS thread count that numpy reads when it loads
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "setup_s": "s",
    "tok_s": "tok/s",
    "latency_ms": "ms",
    "latency_tail_ms": "ms",
    "ckpt_save_ms_p50": "ms",
    "ckpt_load_ms_p50": "ms",
    "ckpt_bytes": "bytes",
    "model_resident_bytes": "bytes",
    "op_peak_bytes": "bytes",
}

# what the generic metric names mean on each kind of workload
ALIASES = {
    "sft": {"tok_s": "train_tok_s", "latency_ms": "train_step_ms_p50",
            "latency_tail_ms": "train_step_ms_p90",
            "op_peak_bytes": "train_peak_bytes"},
    "chat": {"tok_s": "decode_tok_s", "latency_ms": "ttft_short_ms_mean",
             "latency_tail_ms": "ttft_long_ms_mean",
             "op_peak_bytes": "request_peak_bytes"},
}

PER_LAYER = {
    "trainer.batch_loss.ms": "ms/op",
    "tensor.backward.ms": "ms/op",
    "quant.adam_step.ms": "ms/op",
    "trainer.other_ms": "ms/op",
    "trainer.pad_frac": "frac",
    "quant.qmatmul.self_ms": "ms/op",
    "quant.qmatmul.calls": "1/op",
    "quant.qmatmul.rows": "rows/op",
    "tensor.matmul.self_ms": "ms/op",
    "tensor.matmul.calls": "1/op",
    "tensor.causal_attention.self_ms": "ms/op",
    "lora.branch.self_ms": "ms/op",
    "tensor.dropout.self_ms": "ms/op",
    "tensor.transpose.calls": "1/op",
    "tensor.transpose.self_ms": "ms/op",
    "model.moe_forward.self_ms": "ms/op",
    "tensor.ops.calls": "1/op",
    "tensor.ops.self_ms": "ms/op",
    "model.forward.calls": "1/op",
    "model.forward.rows": "rows/op",
    "quant.dequant.calls": "count",
    "quant.dequant.ms": "ms",
    "checkpoint.save.ms": "ms",
    "checkpoint.load.ms": "ms",
    "checkpoint.load.init_model_ms": "ms",
    "data.prepare_ms": "ms",
    "model.expert.rows_max_share": "frac",
    "trace.overhead_pct": "%",
    "trace.work_ops": "count",
}


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return nproc


def import_moetune():
    """Import moetune from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import moetune
    found = os.path.dirname(os.path.abspath(moetune.__file__))
    if found != os.path.join(src, "moetune"):
        raise ImportError(f"moetune imported from {found}, not {src}")
    return moetune


def host_info(args, nproc: int) -> dict:
    import numpy as np
    from moetune import tensor
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "finite_checks": bool(tensor.FINITE_CHECKS),
            "machine": platform.machine()}


def percentile(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_untraced(wl, seconds: float) -> tuple[dict, dict, int]:
    """Returns (metrics, notes, operations attempted)."""
    import tracing
    from workloads import CKPT_ROUNDS, SETUP_ROUNDS, timed
    if wl.name == "chat":
        wl.tune()
    setups = [timed(wl.setup)[0]]
    wl.unit(0)  # warm-up: the first unit after set-up runs cold
    units = []
    clock = tracing.Tracer()
    clock.install(tracing.coarse_targets())
    try:
        deadline = time.perf_counter() + seconds
        while not units or time.perf_counter() < deadline:
            units.append(wl.unit(1 + len(units), clock))
            # spread over the run, checkpoint and set-up timings see the
            # same host conditions as the units rather than a few seconds
            for _ in range(CKPT_ROUNDS):
                wl.ckpt_round()
            setups += [wl.timed_setup() for _ in range(SETUP_ROUNDS)]
    finally:
        clock.restore()
    wl.finish()
    if wl.name == "chat":
        metrics, notes, n_ops = chat_timings(units)
    else:
        metrics, notes, n_ops = sft_timings(units)
    metrics["setup_s"] = statistics.median(setups)
    metrics["ckpt_save_ms_p50"] = percentile(wl.saves_s, 50) * 1e3
    metrics["ckpt_load_ms_p50"] = percentile(wl.loads_s, 50) * 1e3
    metrics["ckpt_bytes"] = wl.ckpt_bytes
    notes.update({"setup_s": f"median of {len(setups)}",
                  "ckpt_save_ms_p50": f"n={len(wl.saves_s)}",
                  "ckpt_load_ms_p50": f"n={len(wl.loads_s)}"})
    metrics["model_resident_bytes"], metrics["op_peak_bytes"] = wl.memory()
    return metrics, notes, n_ops


def sft_timings(units) -> tuple[dict, dict, int]:
    """Token rate over the timed train() calls; median and p90 step wall."""
    steps = [x for u in units for x in u.latencies_s]
    metrics = {
        "tok_s": sum(u.tokens for u in units) / sum(u.wall_s for u in units),
        "latency_ms": percentile(steps, 50) * 1e3,
        "latency_tail_ms": percentile(steps, 90) * 1e3,
    }
    notes = {"tok_s": f"{len(units)} train() calls",
             "latency_ms": f"p50 of {len(steps)} steps",
             "latency_tail_ms": f"p90 of {len(steps)} steps"}
    return metrics, notes, len(steps)


def chat_timings(units) -> tuple[dict, dict, int]:
    """Decode rate over the wall of every decode; mean TTFT per prompt group.

    The host's slow periods last seconds and come and go within a run;
    means over the run average them out, where a percentile of a few dozen
    requests depends on how many fast periods the run happened to catch.
    """
    short, long_ = [], []
    for u in units:
        for ttft, is_long in zip(u.latencies_s, u.long_flags):
            (long_ if is_long else short).append(ttft)
    metrics = {
        "tok_s": sum(u.tokens for u in units) / sum(u.wall_s for u in units),
        "latency_ms": statistics.fmean(short) * 1e3,
        "latency_tail_ms": statistics.fmean(long_) * 1e3,
    }
    n_requests = len(short) + len(long_)
    notes = {"tok_s": f"{n_requests} requests of {len(long_)} long",
             "latency_ms": f"mean of {len(short)} short prompts",
             "latency_tail_ms": f"mean of {len(long_)} long prompts"}
    return metrics, notes, n_requests


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def trace_units(wl) -> int:
    """Units of work in each half of the traced run (a few seconds each)."""
    return 2 if wl.name == "sft_long" else 1


def run_traced(wl) -> tuple[dict, dict, int]:
    """Set-up traced, the work untraced then traced, then the checks traced.

    Returns (metrics, notes, operations attempted).
    """
    import tracing
    import workloads
    if wl.name == "chat":
        wl.tune()
    targets = tracing.layer_targets()
    tracer = tracing.Tracer()
    n = trace_units(wl)

    def work() -> None:
        for i in range(1, n + 1):
            wl.unit(i)

    with tracer:
        tracer.install(targets)
        s0 = tracer.mark()
        wl.setup()
        setup = (s0, tracer.mark())
        tracer.restore()
        wl.unit(0)  # warm-up, as in the untraced run
        done = len(_outputs(wl))
        untraced_s, _ = workloads.timed(work)
        untraced_out = _outputs(wl)[done:]
        tracer.install(targets)
        w0 = tracer.mark()
        traced_s, _ = workloads.timed(work)
        span = (w0, tracer.mark())
        wl.finish()
    traced_out = _outputs(wl)[done + len(untraced_out):]
    wl.checks.expect(traced_out == untraced_out,
                     f"{wl.name}: traced run computed different outputs")
    if wl.name == "chat":
        attempted = len(traced_out)
        n_ops = attempted * (1 + workloads.CHAT_NEW_TOKENS)
    else:
        n_ops = tracing.summarize(tracer.spans, *span)["quant.adam_step"].calls
        attempted = n_ops
    metrics = layer_metrics(tracer.spans, setup, span, n_ops)
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    notes = {"trace.overhead_pct":
             f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s",
             "trace.work_ops": "steps" if wl.name != "chat" else "new tokens"}
    return metrics, notes, attempted


def _outputs(wl) -> list:
    """What the timed units computed: loss sequences or generated tokens."""
    if wl.name == "chat":
        return [out for _, out in wl.requests]
    return [[r.loss for r in log] for _, log in wl.runs]


def layer_metrics(spans, setup: tuple[int, int], work: tuple[int, int],
                  n_ops: int) -> dict:
    """Per-layer metrics from the spans of the set-up and work phases.

    Work-phase times and counts are per operation (an optimizer step, or a
    generated token on chat); checkpoint times are per call over the whole
    run; dequantization and data preparation are totals of one set-up.
    """
    import tracing
    from tracing import Stat
    w = tracing.summarize(spans, *work)
    s = tracing.summarize(spans, *setup)
    every = tracing.summarize(spans)

    def get(stats, name) -> Stat:
        return stats.get(name, Stat())

    def ms_per_op(name: str, field: str = "self_s") -> float:
        return getattr(get(w, name), field) * 1e3 / n_ops

    def per_op(name: str, field: str) -> float:
        return getattr(get(w, name), field) / n_ops

    def mean_ms(durations: list[float]) -> float:
        return statistics.fmean(durations) * 1e3 if durations else 0.0

    train_s = get(w, "trainer.train").total_s
    accounted = sum(get(w, name).total_s for name in (
        "trainer.batch_loss", "tensor.backward", "quant.adam_step",
        "checkpoint.save"))
    run_rows = tracing.forward_rows_in(spans, "trainer.batch_loss", *work)
    useful_rows = get(w, "trainer.batch_loss").rows
    ops = [st for name, st in w.items()
           if name.startswith("tensor.") and name != "tensor.backward"]
    save, load = get(every, "checkpoint.save"), get(every, "checkpoint.load")
    return {
        "trainer.batch_loss.ms": ms_per_op("trainer.batch_loss", "total_s"),
        "tensor.backward.ms": ms_per_op("tensor.backward", "total_s"),
        "quant.adam_step.ms": ms_per_op("quant.adam_step", "total_s"),
        "trainer.other_ms": (train_s - accounted) * 1e3 / n_ops if train_s else 0.0,
        "trainer.pad_frac": 1.0 - useful_rows / run_rows if run_rows else 0.0,
        "quant.qmatmul.self_ms": ms_per_op("quant.qmatmul"),
        "quant.qmatmul.calls": per_op("quant.qmatmul", "calls"),
        "quant.qmatmul.rows": per_op("quant.qmatmul", "rows"),
        "tensor.matmul.self_ms": ms_per_op("tensor.matmul"),
        "tensor.matmul.calls": per_op("tensor.matmul", "calls"),
        "tensor.causal_attention.self_ms": ms_per_op("tensor.causal_attention"),
        "lora.branch.self_ms": ms_per_op("lora.branch"),
        "tensor.dropout.self_ms": ms_per_op("tensor.dropout"),
        "tensor.transpose.calls": per_op("tensor.transpose", "calls"),
        "tensor.transpose.self_ms": ms_per_op("tensor.transpose"),
        "model.moe_forward.self_ms": ms_per_op("model.moe_forward"),
        "tensor.ops.calls": sum(st.calls for st in ops) / n_ops,
        "tensor.ops.self_ms": sum(st.self_s for st in ops) * 1e3 / n_ops,
        "model.forward.calls": per_op("model.forward", "calls"),
        "model.forward.rows": per_op("model.forward", "rows"),
        "quant.dequant.calls": get(s, "quant.dequant").calls,
        "quant.dequant.ms": get(s, "quant.dequant").total_s * 1e3,
        "checkpoint.save.ms": save.total_s * 1e3 / save.calls if save.calls else 0.0,
        "checkpoint.load.ms": load.total_s * 1e3 / load.calls if load.calls else 0.0,
        "checkpoint.load.init_model_ms": mean_ms(tracing.child_durations(
            spans, "model.init_model", "checkpoint.load")),
        "data.prepare_ms": tracing.outermost_s(
            spans, ("data.", "tokenizer."), *setup) * 1e3,
        "model.expert.rows_max_share": tracing.expert_rows_max_share(spans, *work),
        "trace.work_ops": n_ops,
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sft_mixed", "sft_long", "chat"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    try:
        import_moetune()
    except ImportError as e:
        print(f"perfbench: cannot import moetune from this checkout: {e}",
              file=sys.stderr)
        return 2
    import inputs
    import workloads
    if not os.path.isdir(inputs.FIXTURES):
        print(f"perfbench: fixtures missing: {inputs.FIXTURES}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, ".work")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        if args.trace:
            metrics, notes, ops = run_traced(wl)
            units = PER_LAYER
        else:
            metrics, notes, ops = run_untraced(wl, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "chat" if args.workload == "chat" else "sft"
    attempted = ops + wl.checks.attempted
    failed = wl.checks.failed
    for name, unit in units.items():
        alias = ALIASES[kind].get(name) if not args.trace else None
        extra = " ".join(x for x in (alias and f"[{alias}]", notes.get(name)) if x)
        print(f"{name} = {metrics[name]:.6g} {unit}" + (f"  {extra}" if extra else ""))
    if hasattr(wl, "final_loss"):
        ref = wl.reference
        print(f"eval_loss = {wl.final_loss!r} (reference window "
              f"[{ref['eval_loss_min']}, {ref['eval_loss_max']}])")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for what in wl.checks.failures:
        print(f"FAILED: {what}")
    print("host " + json.dumps(host_info(args, nproc), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
