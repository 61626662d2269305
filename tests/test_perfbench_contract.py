"""The names the benchmark's traced run wraps must keep existing and keep
being called: a traced `accelerated_dp_srgd` run draws its noise from
`counting.tree_rows`, which builds a `TreeState` and opens and reads its
nodes through `tree_ingest`/`tree_prefix` (looked up in `counting`, where
the tracer also wraps them), and it never factorizes. A traced `dp_memf`
run factorizes its strategy, and the tracer's callback reads the result's
`objective` and `converged`. The tracer is imported read-only from
`perfbench/spans.py`."""

import sys
from pathlib import Path

import dpsrgd
import dpsrgd.cli  # noqa: F401  (spans wraps pkg.cli.main)
from dpsrgd.harness import ExperimentSpec, run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_traced_tree_run_calls_the_wrapped_tree_names():
    spec = ExperimentSpec(task="synthetic", algorithm="accelerated_dp_srgd",
                          epsilon=2.0, dim=5, steps=16, batch_size=16,
                          train_size=256, seed_base=3)
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer, dpsrgd):
        run_experiment(spec)
    metrics = spans.layer_metrics(tracer)
    for name in ("TreeState", "tree_ingest", "tree_prefix"):
        assert metrics[f"counting.{name}.calls"] > 0, name
    assert metrics["counting.factorize.calls"] == 0


def test_traced_memf_run_calls_the_wrapped_factorize():
    spec = ExperimentSpec(task="synthetic", algorithm="dp_memf", epsilon=2.0, dim=5,
                          epochs=2, batch_size=16, train_size=64, seed_base=3)
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer, dpsrgd):
        run_experiment(spec)
    metrics = spans.layer_metrics(tracer)
    assert metrics["counting.factorize.calls"] > 0
    assert metrics["counting.factorize.objective"] > 0
