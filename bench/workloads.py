"""Runs one benchmark workload in a process of its own and checks its outputs.

    PYTHONPATH=src python3 bench/workloads.py --workload wide-pair \\
        --data DIR --out DIR --seed 0 --seconds 20 --trace 0

reads the inputs bench/gen.py wrote into --data, runs one untimed
warm-up round of the workload's operations, then repeats timed rounds
until --seconds have passed, records peak RSS, checks the last round's
outputs and prints one JSON object.  Every round repeats the same
operations after its output files are deleted and colmatch's in-process
memo caches are cleared, and each timed round's outputs must equal the
warm-up round's.  With --trace 1 the timed rounds run under the Tracer.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import colmatch.ablation as ablation
import colmatch.augmentation as augmentation
import colmatch.embedding as embedding
import colmatch.finetune as finetune
import colmatch.metrics as metrics
import colmatch.pipeline as pipeline
import colmatch.retrieval as retrieval
import colmatch.tables as tables
from colmatch.embedding import EmbeddingProviderConfig
from colmatch.pipeline import PipelineConfig
from colmatch.rerank_llm import LlmConfig
from colmatch.sampling import SamplerConfig

import checks
from responder import ScriptedResponder

NPROC = os.cpu_count() or 1
# colmatch stops training after 5 epochs without a change in validation
# score; capping at 5 trains exactly 5 epochs on every seed, where a higher
# cap trained 5 to 10 depending on the seed and made the round's cost vary
TRAIN_EPOCHS = 5

class Pair:
    def __init__(self, data: Path, entry: dict) -> None:
        self.label = Path(entry["source"]).stem
        self.source = data / entry["source"]
        self.target = data / entry["target"]
        self.ground_truth = data / entry["ground_truth"]
        self.truth = tables.load_ground_truth(self.ground_truth).pairs


class Workload:
    """Whole rounds of one workload's operations, written under `out`."""

    config: PipelineConfig

    def __init__(self, data: Path, out: Path, seed: int) -> None:
        manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        self.pairs = [Pair(data, entry) for entry in manifest["pairs"]]
        self.out = out
        self.seed = seed
        self.ops = self.failed = 0
        self.scores = []  # (MRR, Recall@GT) per pair operation of the last round

    def attempt(self, operation, *args):
        """Run one operation; a raised error counts it as failed."""
        self.ops += 1
        try:
            return operation(*args)
        except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
            self.failed += 1
            traceback.print_exc()
            return None

    def pair_operation(self, pair: Pair, client=None) -> float:
        """What `colmatch evaluate` does for one pair, writing its matches too."""
        started = time.perf_counter()
        source = tables.load_table(pair.source)
        target = tables.load_table(pair.target)
        truth = tables.load_ground_truth(pair.ground_truth)
        matches = pipeline.run_pipeline(source, target, self.config, llm_client=client)
        out = self.out / pair.label
        out.mkdir(exist_ok=True)
        retrieval.write_match_json(matches, out / "matches.json")
        retrieval.write_match_csv(matches, out / "matches.csv")
        self.scores.append((metrics.mrr(matches, truth), metrics.recall_at_gt(matches, truth)))
        return time.perf_counter() - started

    def clear(self) -> None:
        """Delete the last round's outputs, so a failed operation cannot leave stale ones."""
        for pair in self.pairs:
            shutil.rmtree(self.out / pair.label, ignore_errors=True)

    def round(self) -> list:
        """Run the timed operations; returns the pair operations' seconds."""
        raise NotImplementedError

    def round_layers(self) -> dict:
        """Per-layer values the workload itself knows after a round."""
        return {}

    def outputs(self) -> list:
        """Files whose bytes must repeat in every round."""
        return [self.out / p.label / "matches.json" for p in self.pairs]

    def digest(self) -> str:
        sha = hashlib.sha256()
        for path in self.outputs():
            sha.update(path.read_bytes() if path.exists() else b"<missing>")
        return sha.hexdigest()

    # -- checks, outside the timed region ---------------------------------------

    def check_pair(self, result: checks.Checks, pair: Pair, score, client=None) -> dict:
        """Recompute the pipeline stage by stage and check each stage's output."""
        label = f"{self.name}/{pair.label}"
        source = tables.load_table(pair.source)
        target = tables.load_table(pair.target)
        config = self.config
        provider = pipeline.build_provider(config)
        written = checks.read_match_json(self.out / pair.label / "matches.json")
        checks.lists_well_formed(result, written, target.column_names(), label)
        checks.scores_match(result, written, pair.truth, score, label)

        # retrieve() is embed_table() on both tables, then retrieve_from_vectors()
        vectors = [
            retrieval.embed_table(t, config.sampling, config.serialization, provider)
            for t in (source, target)
        ]
        retrieved = retrieval.retrieve_from_vectors(source, target, *vectors, config.k)
        checks.retrieval_top_k(result, retrieved, *vectors, source, target, config.k, label)
        pinned = retrieval.exact_name_override(retrieved, source, target)
        checks.pins_on_top(result, retrieved, pinned, source, target, label)
        if config.reranker == "bipartite":
            import colmatch.rerank_bipartite as rerank_bipartite

            final = rerank_bipartite.rerank_bipartite(pinned)
            facts = checks.bipartite(
                result, pinned, final, rerank_bipartite.solve_assignment, label
            )
        else:
            final = pipeline.rerank_llm(
                pinned,
                pipeline.column_samples(source, config.sampling),
                pipeline.column_samples(target, config.sampling),
                config.llm,
                n_send=config.llm_top_k,
                client=client,
            )
            facts = checks.llm(result, pinned, final, client, label)
        checks.same_as_written(result, final, written, label)
        return facts

    def client(self, pair: Pair):
        """The llm_client a pair operation passes to run_pipeline."""
        return None

    def check(self, result: checks.Checks) -> dict:
        """Check the last round's outputs; returns per-layer fault counts."""
        facts = Counter()
        for pair, score in zip(self.pairs, self.scores):
            facts.update(self.check_pair(result, pair, score, self.client(pair)))
        return dict(facts)


class WidePair(Workload):
    name = "wide-pair"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        reranker, _ = pipeline.PRESETS["zs-bp"]
        self.config = PipelineConfig(reranker=reranker, seed=self.seed)

    def round(self) -> list:
        self.scores = []
        return [self.attempt(self.pair_operation, self.pairs[0])]


class ManyToOneLlm(Workload):
    name = "many-to-one-llm"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.cache = self.out / "vectors.cache"
        self.config = PipelineConfig(
            reranker="llm",
            llm=LlmConfig(endpoint="scripted://responder", max_concurrent=NPROC),
            provider=EmbeddingProviderConfig(cache_path=str(self.cache)),
            seed=self.seed,
        )
        self.responders = []

    def client(self, pair: Pair) -> ScriptedResponder:
        truth = {}
        for source, target in pair.truth:
            truth.setdefault(source, set()).add(target)
        return ScriptedResponder(self.seed, truth)

    def clear(self) -> None:
        super().clear()
        self.cache.unlink(missing_ok=True)

    def round(self) -> list:
        self.scores = []
        self.responders = [self.client(pair) for pair in self.pairs]
        return [
            self.attempt(self.pair_operation, pair, client)
            for pair, client in zip(self.pairs, self.responders)
        ]

    def outputs(self) -> list:
        return super().outputs() + [self.cache]

    def round_layers(self) -> dict:
        return {
            "rerank_llm.calls": sum(r.calls for r in self.responders),
            "rerank_llm.wait_s": sum(r.wait_s for r in self.responders),
            "rerank_llm.prompt_bytes": sum(r.prompt_bytes for r in self.responders),
            "rerank_llm.fallbacks": sum(r.fallbacks for r in self.responders),
            "embedding.cache_file_bytes": self.cache.stat().st_size,
        }


class FinetuneGrid(Workload):
    name = "finetune-grid"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.head_path = self.out / "head.bin"
        self.grid_dir = self.out / "grid"
        reranker, _ = pipeline.PRESETS["ft-bp"]
        self.config = PipelineConfig(
            reranker=reranker, projection_path=str(self.head_path), seed=self.seed
        )
        first = self.pairs[0]
        self.grid = ablation.ExperimentGrid(
            suite=((str(first.source), str(first.target), str(first.ground_truth)),),
            sampling=("priority", "coordinated"),
            rerankers=("none", "bipartite"),
            projections=(None, str(self.head_path)),
            repetitions=1,
            seeds=(self.seed,),
        )
        self.history = []
        self.head = None

    def build(self):
        target = tables.load_table(self.pairs[0].target)
        return augmentation.build_classes(
            target,
            n_semantic=0,
            seed=self.seed,
            sampling=SamplerConfig(seed=self.seed),
            max_concurrent=NPROC,
        )

    def fit(self, classes) -> None:
        self.history = []
        provider = embedding.get_provider(EmbeddingProviderConfig())
        config = finetune.TrainConfig(epochs=TRAIN_EPOCHS, seed=self.seed)
        self.head = finetune.train(classes, provider, config, self.history)
        finetune.save_head(self.head, self.head_path)

    def clear(self) -> None:
        super().clear()
        self.head_path.unlink(missing_ok=True)
        shutil.rmtree(self.grid_dir, ignore_errors=True)

    def round(self) -> list:
        self.scores = []
        classes = self.attempt(self.build)
        self.attempt(self.fit, classes)
        seconds = [self.attempt(self.pair_operation, pair) for pair in self.pairs]
        self.attempt(ablation.run_grid, self.grid, self.grid_dir)
        return seconds

    def outputs(self) -> list:
        return super().outputs() + [self.head_path, self.grid_dir / "results.csv"]

    def round_layers(self) -> dict:
        return {
            "finetune.epochs": len(self.history) - 1,
            "finetune.val_score": self.head.score,
        }

    def check(self, result: checks.Checks) -> dict:
        facts = super().check(result)
        result.require(
            self.head.score >= self.history[0]["score"],
            f"{self.name}: head scores {self.head.score}, below the identity head's "
            f"{self.history[0]['score']}",
        )
        checks.grid(
            result, self.grid_dir, self.grid.repetitions, len(self.grid.cells()), self.name
        )
        return facts


WORKLOADS = {w.name: w for w in (WidePair, ManyToOneLlm, FinetuneGrid)}


def clear_memo_caches() -> None:
    """Empty colmatch's module-level lru_caches, which a CLI call starts without."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "colmatch":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.data, args.out, args.seed)
    result = checks.Checks()
    # an untimed, untraced warm-up round lets lazy imports and caches settle;
    # every timed round must reproduce its outputs and scores
    workload.clear()
    clear_memo_caches()
    started = time.perf_counter()
    workload.round()
    warmup_wall = time.perf_counter() - started
    reference, scores = workload.digest(), list(workload.scores)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    walls, pair_seconds, layers = [], [], []
    same = True
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < args.seconds:
        if tracer is not None:
            tracer.reset()
        workload.clear()
        clear_memo_caches()
        gc.collect()  # start every round from the same heap state
        started = time.perf_counter()
        seconds = workload.round()
        walls.append(time.perf_counter() - started)
        pair_seconds.extend(s for s in seconds if s is not None)
        same = same and workload.digest() == reference and workload.scores == scores
        if tracer is not None:
            layers.append({**tracer.layer_metrics(), **workload.round_layers()})
    peak = peak_rss_mib()
    if tracer is not None:
        tracer.uninstall()

    result.require(same, f"{workload.name}: a timed round's outputs differ from the warm-up round's")
    facts = {}
    if result.require(
        workload.failed == 0, f"{workload.name}: {workload.failed} operations failed; output checks skipped"
    ):
        facts = workload.check(result)

    report = {
        "attempted": workload.ops,
        "failed": workload.failed,
        "rounds": len(walls),
        "wall_s": walls,
        "pair_s": pair_seconds,
        "peak_rss_mb": peak,
        "mrr": statistics.fmean(s[0] for s in scores) if scores else 0.0,
        "recall_at_gt": statistics.fmean(s[1] for s in scores) if scores else 0.0,
        "warmup_wall_s": warmup_wall,
        "checks_passed": result.passed,
        "check_failures": result.failures,
    }
    if tracer is not None:
        for values in layers:
            columns = values.get("pipeline.columns", 0)
            values["sampling.calls_per_column"] = (
                values.get("sampling.pipeline_calls", 0) / columns if columns else 0.0
            )
            values.update(facts)
        report["layers"] = {
            name: statistics.median(values.get(name, 0) for values in layers)
            for name in sorted(set().union(*layers))
        }
        trace_file = args.out / "trace.json"
        trace_file.write_text(
            json.dumps(
                {
                    "spans": [
                        {"layer": l, "start": s, "end": e, "parent": p} for l, s, e, p in tracer.spans
                    ],
                    "rounds": layers,
                    "wall_s": walls,
                },
                indent=1,
            )
            + "\n",
            encoding="utf-8",
        )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
