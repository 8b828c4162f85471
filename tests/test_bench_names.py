"""The colmatch names the benchmark reaches from outside stay in place.

bench/tracing.py wraps module attributes by name and bench/workloads.py
calls them, so a rename under src/ would first fail in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# every colmatch attribute bench/workloads.py calls, by module
WORKLOAD_NAMES = {
    "ablation": ("ExperimentGrid", "run_grid"),
    "augmentation": ("build_classes",),
    "embedding": ("EmbeddingProviderConfig", "get_provider"),
    "finetune": ("TrainConfig", "save_head", "train"),
    "metrics": ("mrr", "recall_at_gt"),
    "pipeline": ("PRESETS", "PipelineConfig", "build_provider", "column_samples", "rerank_llm", "run_pipeline"),
    "rerank_bipartite": ("rerank_bipartite", "solve_assignment"),
    "rerank_llm": ("LlmConfig",),
    "retrieval": (
        "embed_table",
        "exact_name_override",
        "retrieve_from_vectors",
        "write_match_csv",
        "write_match_json",
    ),
    "sampling": ("SamplerConfig",),
    "tables": ("load_ground_truth", "load_table"),
}


@pytest.fixture
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))


def test_the_tracer_installs_over_every_name_it_wraps(bench_path):
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_the_workloads_find_every_name_they_call(bench_path):
    importlib.import_module("workloads")
    missing = [
        f"{module}.{name}"
        for module, names in WORKLOAD_NAMES.items()
        for name in names
        if not hasattr(importlib.import_module(f"colmatch.{module}"), name)
    ]
    assert missing == []
