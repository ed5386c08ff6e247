"""Command-line interface.

Subcommands:

* ``stats``       dataset summary statistics as JSON
* ``synth``       build a semi-synthetic censored dataset plus a JSON sidecar
* ``fit``         fit a reference model and export it as JSON
* ``eval``        score a curve file against a dataset, all metrics as JSON
* ``experiment``  cross-validated model comparison, report as JSON (+ CSV)
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .core import dataset_stats, load_dataset, save_dataset
from .errors import ConfigurationError
from .estimators import model_to_json
from .harness import (
    REFERENCE_MODELS,
    evaluate_dataset,
    load_curve_file,
    parse_model_spec,
    run_experiment,
)
from .synth import CensoringSpec, make_semi_synthetic


def _add_column_options(parser):
    parser.add_argument("--time-column", default="time", help="name of the time column")
    parser.add_argument("--event-column", default="event", help="name of the event column")


def _load(args):
    return load_dataset(
        args.data, time_column=args.time_column, event_column=args.event_column
    )


def _cmd_stats(args) -> int:
    stats = dataset_stats(_load(args))
    print(json.dumps(asdict(stats), indent=2))
    return 0


# hyphenated command-line spellings of the censoring kinds
_KIND_ALIASES = {
    "uniform-admin": "uniform_admin",
    "orig-indep": "original_independent",
    "orig-dep": "original_dependent",
}


def _cmd_synth(args) -> int:
    ds = _load(args)
    args.kind = _KIND_ALIASES.get(args.kind, args.kind)
    params = {}
    if args.kind == "external":
        if not args.external:
            raise ConfigurationError("--external is required for the external kind")
        params["reference"] = args.external
    spec = CensoringSpec(kind=args.kind, params=params)
    out = make_semi_synthetic(ds, spec, seed=args.seed)
    save_dataset(out, args.output)
    sidecar = {
        "kind": args.kind,
        "seed": args.seed,
        "source": str(args.data),
        "n": out.n,
        "achieved_censor_rate": float(np.mean(~out.events)),
        "source_stats": asdict(dataset_stats(ds)),
    }
    if args.external:
        sidecar["external_reference"] = str(args.external)
    sidecar_path = Path(args.output).with_suffix(".json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {args.output} and {sidecar_path}")
    return 0


def _cmd_fit(args) -> int:
    fit, _ = REFERENCE_MODELS[args.model]
    text = model_to_json(fit(_load(args)), path=args.output)
    if args.output:
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_eval(args) -> int:
    ds = _load(args)
    curves = load_curve_file(args.curves).select(range(ds.n))
    scores = evaluate_dataset(ds, curves, pred_method=args.pred_method)
    cleaned = {
        k: (None if v is None or not np.isfinite(v) else float(v))
        for k, v in scores.items()
    }
    print(json.dumps(cleaned, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    ds = _load(args)
    models = [parse_model_spec(text) for text in args.models.split(",") if text]
    report = run_experiment(
        ds, models, k=args.k, seed=args.seed, pred_method=args.pred_method
    )
    payload = json.dumps(report.to_json_dict(), indent=2)
    if args.output:
        Path(args.output).write_text(payload + "\n")
        print(f"wrote {args.output}")
    else:
        print(payload)
    if args.csv:
        with Path(args.csv).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "metric", "fold", "score"])
            for name in report.model_names:
                for met in report.metric_names:
                    for fold, score in enumerate(report.per_fold[name][met]):
                        writer.writerow(
                            [name, met, fold, "" if score is None else repr(float(score))]
                        )
        print(f"wrote {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survmae",
        description="Evaluation toolkit for time-to-event models under censoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print dataset summary statistics")
    p_stats.add_argument("data", help="CSV dataset")
    _add_column_options(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_synth = sub.add_parser("synth", help="build a semi-synthetic censored dataset")
    p_synth.add_argument("data", help="CSV dataset to draw events from")
    p_synth.add_argument(
        "--kind",
        required=True,
        choices=[
            "uniform",
            "uniform_admin",
            "uniform-admin",
            "exponential",
            "original_independent",
            "orig-indep",
            "original_dependent",
            "orig-dep",
            "external",
        ],
    )
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("-o", "--output", required=True, help="output CSV path")
    p_synth.add_argument("--external", help="reference CSV for the external kind")
    _add_column_options(p_synth)
    p_synth.set_defaults(func=_cmd_synth)

    p_fit = sub.add_parser("fit", help="fit a reference model, export JSON")
    p_fit.add_argument("data", help="CSV dataset")
    p_fit.add_argument("--model", required=True, choices=list(REFERENCE_MODELS))
    p_fit.add_argument("-o", "--output", help="output JSON path (default: stdout)")
    _add_column_options(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_eval = sub.add_parser("eval", help="score a curve file against a dataset")
    p_eval.add_argument("data", help="CSV dataset")
    p_eval.add_argument("--curves", required=True, help="curve file (t,<grid> header)")
    p_eval.add_argument(
        "--method",
        "--pred-method",
        dest="pred_method",
        default="median",
        choices=["median", "mean"],
    )
    _add_column_options(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_exp = sub.add_parser("experiment", help="cross-validated model comparison")
    p_exp.add_argument("data", help="CSV dataset")
    p_exp.add_argument(
        "--models",
        required=True,
        help="comma list: km, coxph, weibull_aft, noisy:<sd>, external:<path>",
    )
    p_exp.add_argument("--k", type=int, default=5, help="number of folds")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--pred-method", default="median", choices=["median", "mean"])
    p_exp.add_argument("-o", "--output", help="report JSON path (default: stdout)")
    p_exp.add_argument("--csv", help="also write per-fold scores as flat CSV")
    _add_column_options(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
