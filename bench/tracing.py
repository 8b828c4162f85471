"""Per-layer spans and counters, recorded from outside colmatch.

A Tracer replaces module attributes that colmatch looks up at call time
(colmatch.retrieval.sample_values, colmatch.pipeline.rerank_bipartite, the
HashProvider.embed method, ...) with wrappers that open a span around the
original call and bump counters at the same boundary.  Spans and counters
stay in memory; the benchmark turns them into per-layer metrics and writes
them out when it ends.  Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import colmatch.ablation as ablation
import colmatch.augmentation as augmentation
import colmatch.embedding as embedding
import colmatch.finetune as finetune
import colmatch.metrics as metrics
import colmatch.pipeline as pipeline
import colmatch.rerank_bipartite as rerank_bipartite
import colmatch.rerank_llm as rerank_llm
import colmatch.retrieval as retrieval
import colmatch.tables as tables

from gen import normalise


class Tracer:
    def __init__(self) -> None:
        self.spans = []  # [layer, start, end, parent index or -1]
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def inside(self, layer: str) -> bool:
        return any(self.spans[i][0] == layer for i in self._stack())

    @contextmanager
    def span(self, layer: str):
        stack = self._stack()
        if self.inside(layer):  # a layer calling itself is one span
            yield
            return
        with self._lock:
            index = len(self.spans)
            self.spans.append([layer, time.perf_counter(), None, stack[-1] if stack else -1])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, owner, attr: str, layer=None, after=None) -> None:
        """Replace owner.attr by a wrapper; `after(result, *args)` counts at the boundary."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if layer is None:
                result = original(*args, **kwargs)
            else:
                with self.span(layer):
                    result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def install(self) -> None:
        """Wrap every public function through which the pipeline reaches a layer."""
        for owner in (tables, ablation):
            self.wrap(owner, "load_table", "tables.load", self._after_load)
        for owner in (retrieval, pipeline, augmentation):
            self.wrap(owner, "sample_values", "sampling.sample", self._after_sample)
        for owner in (retrieval, finetune):
            self.wrap(owner, "serialize", "serialization.serialize", self._after_serialize)
        self.wrap(embedding.HashProvider, "embed", "embedding.embed", self._after_embed)
        self.wrap(embedding.VectorCache, "get", None, self._after_cache_get)
        self.wrap(retrieval, "retrieve_from_vectors", "retrieval.rank", self._after_rank)
        self.wrap(pipeline, "exact_name_override", "retrieval.pin", self._after_pin)
        for name in ("write_match_json", "write_match_csv"):
            self.wrap(retrieval, name, "retrieval.write", self._after_write)
        self.wrap(pipeline, "rerank_bipartite", "rerank_bipartite.rerank")
        self.wrap(rerank_bipartite, "solve_assignment", "rerank_bipartite.solve")
        # colmatch may import the solver at module level or inside the call
        solver_owner = (
            rerank_bipartite
            if hasattr(rerank_bipartite, "linear_sum_assignment")
            else importlib.import_module("scipy.optimize")
        )
        self.wrap(solver_owner, "linear_sum_assignment", None, self._after_lsa)
        self.wrap(pipeline, "rerank_llm", "rerank_llm.rerank")
        self._wrap_parse()
        self.wrap(augmentation, "build_classes", "augmentation.build", self._after_build)
        self.wrap(finetune, "train", "finetune.train")
        self.wrap(finetune, "loss_gradient", "finetune.gradient")
        self.wrap(finetune, "batch_hard_loss", "finetune.loss")
        self.wrap(ablation, "run_grid", "ablation.grid")
        self.wrap(ablation, "evaluate", None, lambda *a, **k: self.count("ablation.cells_run"))
        for name in ("mrr", "recall_at_gt", "first_correct_ranks"):
            self.wrap(metrics, name, "metrics.score")
        self.wrap(pipeline, "run_pipeline", "pipeline.run", self._after_run)

    def _wrap_parse(self) -> None:
        original = rerank_llm.parse_response

        @functools.wraps(original)
        def traced(text):
            try:
                return original(text)
            except rerank_llm.LlmParseError:
                self.count("rerank_llm.parse_failures")
                raise

        rerank_llm.parse_response = traced
        self._patches.append((rerank_llm, "parse_response", original))

    # -- counters -------------------------------------------------------------

    def _after_load(self, table, *args, **kwargs) -> None:
        rows = len(table.columns[0].values) if table.columns else 0
        self.count("tables.cells", rows * len(table.columns))
        if self.inside("ablation.grid"):
            self.count("ablation.table_loads")

    def _after_sample(self, sample, *args, **kwargs) -> None:
        self.count("sampling.calls")
        if self.inside("pipeline.run"):
            self.count("sampling.pipeline_calls")

    def _after_serialize(self, text, *args, **kwargs) -> None:
        self.count("serialization.text_bytes", len(text.encode("utf-8")))

    def _after_embed(self, vectors, provider, texts) -> None:
        self.count("embedding.texts", len(texts))
        for layer in ("finetune.train", "ablation.grid"):
            if self.inside(layer):
                self.count(layer.split(".")[0] + ".texts_embedded", len(texts))

    def _after_cache_get(self, vector, *args) -> None:
        self.count("embedding.cache_misses" if vector is None else "embedding.cache_hits")

    def _after_rank(self, matches, source, target, *args, **kwargs) -> None:
        self.count("retrieval.pairs_scored", len(source.columns) * len(target.columns))

    def _after_pin(self, matches, before, source, target) -> None:
        norms = Counter(normalise(name) for name in target.column_names())
        self.count("retrieval.pins", sum(norms[normalise(name)] for name in source.column_names()))

    def _after_write(self, result, matches, path) -> None:
        self.count("retrieval.output_bytes", Path(path).stat().st_size)

    def _after_lsa(self, result, cost, *args, **kwargs) -> None:
        self.count("rerank_bipartite.graph_cells", cost.size)

    def _after_build(self, classes, *args, **kwargs) -> None:
        self.count("augmentation.members", sum(len(c.members) for c in classes))

    def _after_run(self, matches, source, target, *args, **kwargs) -> None:
        self.count("pipeline.columns", len(source.columns) + len(target.columns))

    # -- summary --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Time per layer, pipeline self time and the counters, for the spans so far."""
        out = Counter()
        children = {}
        for layer, start, end, parent in self.spans:
            out[f"{layer}_s"] += end - start
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        self_s = 0.0
        for index, (layer, start, end, _) in enumerate(self.spans):
            if layer == "pipeline.run":
                self_s += (end - start) - _covered(children.get(index, []))
        out["pipeline.self_s"] = self_s
        out.update(self.counts)
        return dict(out)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
