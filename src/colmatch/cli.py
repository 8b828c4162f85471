"""Command line entry point: match, evaluate, augment, finetune, ablate.

Configuration can come from a JSON file (--config) whose layout mirrors
PipelineConfig.as_dict(); presets fill in the reranker; explicit flags win
over both.  Exit codes: 0 success, 1 bad input or configuration, 2 when an
embedding/LLM endpoint fails with no fallback left.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .ablation import load_grid, run_grid
from .augmentation import DEFAULT_N_SEMANTIC, build_classes, load_classes, write_classes
from .embedding import ProviderError, get_provider
from .finetune import TrainConfig, train, save_head
from .metrics import evaluate, write_report
from .pipeline import PRESETS, RERANKERS, PipelineConfig, read_json_file, run_pipeline
from .rerank_llm import DEFAULT_MAX_CONCURRENT, HttpLlmClient, RecordingLlmClient, ReplayLlmClient
from .retrieval import write_match_csv, write_match_json
from .sampling import STRATEGIES
from .serialization import FORMATS
from .tables import load_ground_truth, load_table

# every flag once: its EPILOG line, the config paths it sets (in PipelineConfig.as_dict's
# layout) and its add_argument keywords; a subcommand adds the flags it takes by name
FLAGS = {
    "--sampling": (
        "value sampling strategy (priority, coordinated, frequency, weighted, random)",
        ("sampling.strategy",),
        {"choices": STRATEGIES},
    ),
    "--sample-size": ("values sampled per column", ("sampling.sample_size",), {"type": int}),
    "--seed": ("master seed for sampling / training / grids", ("seed", "sampling.seed"), {"type": int}),
    "--serialization": (
        "column text format (default, verbose, repeat, header-only)",
        ("serialization.format",),
        {"type": lambda v: v.replace("-", "_"), "choices": FORMATS},
    ),
    "--repeat-k": ("name repetitions for the repeat format", ("serialization.repeat_count",), {"type": int}),
    "--reranker": ("second phase: none, bipartite, or llm", ("reranker",), {"choices": RERANKERS}),
    "--llm-endpoint": ("chat-completion endpoint for the llm reranker / augment", ("llm.endpoint",), {}),
    "--llm-model": ("model name sent to the endpoint", ("llm.model",), {}),
    "--llm-top-k": ("how many candidates per column the llm rescores", ("llm_top_k",), {"type": int}),
    "--projection": ("trained projection head applied to both tables", ("projection_path",), {}),
    "--preset": ("zs-bp | ft-bp | zs-llm | ft-llm", (), {"choices": sorted(PRESETS)}),
    "--config": ("JSON config file mirroring the pipeline config", (), {}),
    "--replay": ("transcript file; answers LLM prompts offline", (), {}),
    "--record": ("write prompt/response transcript while running live", (), {}),
    "--report": ("evaluation report output path (JSON)", (), {}),
    "--classes": ("training classes file (JSON lines)", (), {"required": True}),
    "--epochs": ("training epochs for finetune", (), {"type": int, "default": TrainConfig.epochs}),
    "--grid": ("ablation grid spec (JSON)", (), {"required": True}),
    "--out": ("output path or directory", (), {}),
    "--no-llm": ("augment without semantic variants", (), {"action": "store_true"}),
}

EPILOG = (
    "flags across subcommands:\n"
    + "".join(f"  {flag:<18}{line}\n" for flag, (line, _, _) in FLAGS.items())
    + "environment: LLM_API_KEY is sent as a bearer token when set.\n"
)

PIPELINE_FLAGS = (
    "--sampling", "--sample-size", "--serialization", "--repeat-k", "--reranker", "--llm-endpoint",
    "--llm-model", "--llm-top-k", "--projection", "--preset", "--replay", "--record",
)


def _dest(flag: str) -> str:
    """The attribute argparse stores `flag` under."""
    return flag[2:].replace("-", "_")


def _add_flags(parser: argparse.ArgumentParser, flags, **at_call) -> None:
    """Add `flags` from FLAGS in this order; at_call maps a flag's dest to keywords for this parser alone."""
    for flag in flags:
        parser.add_argument(flag, **{**FLAGS[flag][2], **at_call.get(_dest(flag), {})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colmatch",
        description="Schema matching: retrieve candidate column pairs, then rerank.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="write ranked column matches for a table pair")
    _add_flags(p_match, ("--seed", "--config", *PIPELINE_FLAGS, "--out"), out={"default": "matches"})
    p_match.add_argument("source")
    p_match.add_argument("target")
    p_match.set_defaults(func=cmd_match)

    p_eval = sub.add_parser("evaluate", help="score the pipeline against a ground truth")
    _add_flags(p_eval, ("--seed", "--config", *PIPELINE_FLAGS, "--report"))
    p_eval.add_argument("source")
    p_eval.add_argument("target")
    p_eval.add_argument("ground_truth")
    p_eval.set_defaults(func=cmd_evaluate)

    p_aug = sub.add_parser("augment", help="build synthetic training classes from a target table")
    _add_flags(
        p_aug,
        ("--seed", "--config", "--out", "--no-llm", "--llm-endpoint", "--llm-model", "--replay", "--record"),
        out={"default": "classes.jsonl"},
    )
    p_aug.add_argument("target")
    p_aug.set_defaults(func=cmd_augment)

    p_ft = sub.add_parser("finetune", help="train a projection head from a classes file")
    _add_flags(p_ft, ("--seed", "--config", "--classes", "--out", "--epochs"), out={"required": True})
    p_ft.set_defaults(func=cmd_finetune)

    p_abl = sub.add_parser("ablate", help="run a grid of pipeline variants and aggregate")
    # every other setting comes from the grid file
    _add_flags(p_abl, ("--seed", "--grid", "--out"), out={"required": True})
    p_abl.set_defaults(func=cmd_ablate)

    return parser


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
    spec = {} if args.config is None else read_json_file(args.config)
    preset = getattr(args, "preset", None)
    if preset:
        _lay_over(spec, "reranker", PRESETS[preset][0])
    for flag, (_, paths, _) in FLAGS.items():
        value = getattr(args, _dest(flag), None)
        if value is not None:
            for path in paths:
                _lay_over(spec, path, value)
    if preset and PRESETS[preset][1] and spec.get("projection_path") is None:
        raise ValueError(f"preset {preset} requires --projection")

    if isinstance(spec.get("llm"), dict) and "endpoint" not in spec["llm"]:
        del spec["llm"]  # no endpoint, no LLM: its model and temperature go unused
    return PipelineConfig.from_dict(spec)


def _llm_client(args, config: PipelineConfig):
    """Replay for --replay, else HTTP on config.llm, --record wrapping either; the llm reranker needs one."""
    if args.replay:
        client = ReplayLlmClient(args.replay)
    elif config.llm is not None:
        client = HttpLlmClient(config.llm)
    elif config.reranker == "llm":
        raise ValueError("llm endpoint required")
    else:
        return None
    return RecordingLlmClient(client, args.record) if args.record else client


def cmd_match(args) -> int:
    config = resolve_config(args)
    client = _llm_client(args, config)  # before any table is read: a missing endpoint fails fast
    source = load_table(args.source)
    target = load_table(args.target)
    matches = run_pipeline(source, target, config, llm_client=client)
    json_path = Path(f"{args.out}.json")
    csv_path = Path(f"{args.out}.csv")
    write_match_json(matches, json_path)
    write_match_csv(matches, csv_path)
    print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_evaluate(args) -> int:
    config = resolve_config(args)
    client = _llm_client(args, config)
    source = load_table(args.source)
    target = load_table(args.target)
    gt = load_ground_truth(args.ground_truth)
    report = evaluate(source, target, gt, config, llm_client=client)
    print(report.as_text())
    if args.report:
        write_report(report, args.report)
        print(f"wrote {args.report}")
    return 0


def cmd_augment(args) -> int:
    config = resolve_config(args)
    target = load_table(args.target)
    client = None if args.no_llm else _llm_client(args, config)
    max_concurrent = DEFAULT_MAX_CONCURRENT if config.llm is None else config.llm.max_concurrent
    n_semantic = 0 if args.no_llm else DEFAULT_N_SEMANTIC
    classes = build_classes(
        target, n_semantic=n_semantic, seed=config.seed, client=client, max_concurrent=max_concurrent
    )
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
