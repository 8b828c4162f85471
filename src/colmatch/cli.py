"""Command line entry point: match, evaluate, augment, finetune, ablate.

Configuration can come from a JSON file (--config) whose layout mirrors
PipelineConfig.as_dict(); presets fill in the reranker; explicit flags win
over both.  Exit codes: 0 success, 1 bad input or configuration, 2 when an
embedding/LLM endpoint fails with no fallback left.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .ablation import load_grid, run_grid
from .augmentation import build_classes, load_classes, write_classes
from .embedding import ProviderError, get_provider
from .finetune import TrainConfig, train, save_head
from .metrics import evaluate, write_report
from .pipeline import PRESETS, RERANKERS, PipelineConfig, run_pipeline
from .rerank_llm import HttpLlmClient, RecordingLlmClient, ReplayLlmClient
from .retrieval import write_match_csv, write_match_json
from .sampling import STRATEGIES
from .serialization import FORMATS
from .tables import load_ground_truth, load_table

EPILOG = """\
flags across subcommands:
  --sampling        value sampling strategy (priority, coordinated, frequency, weighted, random)
  --sample-size     values sampled per column
  --seed            master seed for sampling / training / grids
  --serialization   column text format (default, verbose, repeat, header-only)
  --repeat-k        name repetitions for the repeat format
  --reranker        second phase: none, bipartite, or llm
  --llm-endpoint    chat-completion endpoint for the llm reranker / augment
  --llm-model       model name sent to the endpoint
  --llm-top-k       how many candidates per column the llm rescores
  --projection      trained projection head applied to both tables
  --preset          zs-bp | ft-bp | zs-llm | ft-llm
  --config          JSON config file mirroring the pipeline config
  --replay          transcript file; answers LLM prompts offline
  --record          write prompt/response transcript while running live
  --report          evaluation report output path (JSON)
  --classes         training classes file (JSON lines)
  --grid            ablation grid spec (JSON)
  --out             output path or directory
  --no-llm          augment without semantic variants
environment: LLM_API_KEY is sent as a bearer token when set.
"""


def _pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sampling", choices=STRATEGIES)
    parser.add_argument("--sample-size", type=int, dest="sample_size")
    parser.add_argument(
        "--serialization",
        type=lambda v: v.replace("-", "_"),
        choices=FORMATS,
    )
    parser.add_argument("--repeat-k", type=int, dest="repeat_k")
    parser.add_argument("--reranker", choices=RERANKERS)
    parser.add_argument("--llm-endpoint", dest="llm_endpoint")
    parser.add_argument("--llm-model", dest="llm_model")
    parser.add_argument("--llm-top-k", type=int, dest="llm_top_k")
    parser.add_argument("--projection")
    parser.add_argument("--preset", choices=sorted(PRESETS))
    parser.add_argument("--replay")
    parser.add_argument("--record")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colmatch",
        description="Schema matching: retrieve candidate column pairs, then rerank.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--config")

    p_match = sub.add_parser("match", help="write ranked column matches for a table pair")
    common(p_match)
    _pipeline_flags(p_match)
    p_match.add_argument("source")
    p_match.add_argument("target")
    p_match.add_argument("--out", default="matches")
    p_match.set_defaults(func=cmd_match)

    p_eval = sub.add_parser("evaluate", help="score the pipeline against a ground truth")
    common(p_eval)
    _pipeline_flags(p_eval)
    p_eval.add_argument("source")
    p_eval.add_argument("target")
    p_eval.add_argument("ground_truth")
    p_eval.add_argument("--report")
    p_eval.set_defaults(func=cmd_evaluate)

    p_aug = sub.add_parser("augment", help="build synthetic training classes from a target table")
    common(p_aug)
    p_aug.add_argument("target")
    p_aug.add_argument("--out", default="classes.jsonl")
    p_aug.add_argument("--no-llm", action="store_true", dest="no_llm")
    p_aug.add_argument("--llm-endpoint", dest="llm_endpoint")
    p_aug.add_argument("--llm-model", dest="llm_model")
    p_aug.add_argument("--replay")
    p_aug.add_argument("--record")
    p_aug.set_defaults(func=cmd_augment)

    p_ft = sub.add_parser("finetune", help="train a projection head from a classes file")
    common(p_ft)
    p_ft.add_argument("--classes", required=True)
    p_ft.add_argument("--out", required=True)
    p_ft.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_ft.set_defaults(func=cmd_finetune)

    p_abl = sub.add_parser("ablate", help="run a grid of pipeline variants and aggregate")
    p_abl.add_argument("--seed", type=int)  # every other setting comes from the grid file
    p_abl.add_argument("--grid", required=True)
    p_abl.add_argument("--out", required=True)
    p_abl.set_defaults(func=cmd_ablate)

    return parser


# flag -> the dotted paths it sets in the config layout (PipelineConfig.as_dict)
FLAG_PATHS = {
    "seed": ("seed", "sampling.seed"),
    "sampling": ("sampling.strategy",),
    "sample_size": ("sampling.sample_size",),
    "serialization": ("serialization.format",),
    "repeat_k": ("serialization.repeat_count",),
    "reranker": ("reranker",),
    "llm_endpoint": ("llm.endpoint",),
    "llm_model": ("llm.model",),
    "llm_top_k": ("llm_top_k",),
    "projection": ("projection_path",),
}


def _lay_over(spec: dict, path: str, value) -> None:
    """Set `path` in `spec`, making absent or null sections; from_dict rejects any other non-object."""
    *sections, key = path.split(".")
    for name in sections:
        if spec.get(name) is None:
            spec[name] = {}
        spec = spec[name]
        if not isinstance(spec, dict):
            return
    spec[key] = value


def resolve_config(args) -> PipelineConfig:
    """defaults < config file < preset < explicit flags, read by PipelineConfig.from_dict.

    Every subcommand but ablate takes its seed, provider and LLM settings
    from here; flags a subcommand does not define count as absent, and an
    explicit 0 counts as given.
    """
    spec = {} if args.config is None else json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(spec, dict):
        raise ValueError("config file must hold a JSON object")
    preset = getattr(args, "preset", None)
    if preset:
        _lay_over(spec, "reranker", PRESETS[preset][0])
    for name, paths in FLAG_PATHS.items():
        if getattr(args, name, None) is not None:
            for path in paths:
                _lay_over(spec, path, getattr(args, name))
    if preset and PRESETS[preset][1] and spec.get("projection_path") is None:
        raise ValueError(f"preset {preset} requires --projection")

    llm = spec.get("llm")
    if llm is None or isinstance(llm, dict) and "endpoint" not in llm:
        if spec.get("reranker") == "llm" and getattr(args, "replay", None):
            # transport is never used, the client is
            spec["llm"] = {**(llm or {}), "endpoint": "replay://local"}
        else:
            spec.pop("llm", None)  # no endpoint, no LLM: its model and temperature go unused
    return PipelineConfig.from_dict(spec)


def _llm_client(args, llm):
    """Replay when --replay is given, else HTTP on the resolved config; --record wraps either."""
    if args.replay:
        client = ReplayLlmClient(args.replay)
    elif llm is not None:
        client = HttpLlmClient(llm)
    else:
        return None
    return RecordingLlmClient(client, args.record) if args.record else client


def cmd_match(args) -> int:
    config = resolve_config(args)
    source = load_table(args.source)
    target = load_table(args.target)
    matches = run_pipeline(source, target, config, llm_client=_llm_client(args, config.llm))
    json_path = Path(f"{args.out}.json")
    csv_path = Path(f"{args.out}.csv")
    write_match_json(matches, json_path)
    write_match_csv(matches, csv_path)
    print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_evaluate(args) -> int:
    config = resolve_config(args)
    source = load_table(args.source)
    target = load_table(args.target)
    gt = load_ground_truth(args.ground_truth)
    report = evaluate(source, target, gt, config, llm_client=_llm_client(args, config.llm))
    print(report.as_text())
    if args.report:
        write_report(report, args.report)
        print(f"wrote {args.report}")
    return 0


def cmd_augment(args) -> int:
    config = resolve_config(args)
    target = load_table(args.target)
    client = None if args.no_llm else _llm_client(args, config.llm)
    classes = build_classes(target, seed=config.seed, client=client)
    write_classes(classes, args.out)
    print(f"wrote {len(classes)} classes to {args.out}")
    return 0


def cmd_finetune(args) -> int:
    config = resolve_config(args)
    classes = load_classes(args.classes)
    provider = get_provider(config.provider)
    head = train(classes, provider, TrainConfig(epochs=args.epochs, seed=config.seed))
    save_head(head, args.out)
    print(f"wrote head ({head.dimension}x{head.dimension}, validation score {head.score:.4f}) to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    grid = load_grid(args.grid)
    if args.seed is not None:
        grid = dataclasses.replace(grid, seeds=(args.seed,))
    rows = run_grid(grid, args.out)
    print((Path(args.out) / "results.txt").read_text(encoding="utf-8"), end="")
    print(f"{len(rows)} cells written to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProviderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        message = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
