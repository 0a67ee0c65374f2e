"""Pipeline command line: make or ingest a market panel, then run each
analysis stage as its own subcommand writing plain-file artifacts.

Stages read ``dataset.csv`` from the output directory (or ``--input``)
and write their own artifacts next to it, so a full run is::

    chainlens generate --out run1 --seed 7
    chainlens clean --out run1
    chainlens lifetimes --out run1
    chainlens correlate --out run1
    chainlens cluster --out run1
    chainlens classify --out run1
    chainlens flags --out run1
    chainlens report --out run1

Artifacts carry no timestamps; the same config and seed produce
byte-identical files. ``report`` only composes artifacts that earlier
stages already wrote, never recomputing them, so a stale report is
impossible to mistake for a fresh analysis.

Exit codes: 0 success, 1 stage failure (one-line JSON error on stderr,
partial outputs removed), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import html
import json
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from .api import ApiClientConfig, fetch_history
from .classify import (
    CLASSIFY_FEATURES,
    ClassifierSpec,
    evaluate,
    fit,
    label_risky,
    manipulability_flags,
    predict,
    prepare_features,
    save_metrics_csv,
    save_model,
    train_test_split,
)
from .cleaning import aggregate_stats
# not called here: perfbench/tracer.py patches these three bindings
from .cleaning import impute_max_supply, impute_mean, row_feature_table  # noqa: F401
from .clustering import cluster_report, save_assignments_csv, save_elbow_csv
from .config import ConfigError, RunConfig, build_config
from .correlation import METHODS, price_factor_report, save_correlations_csv
from .dataset import load_csv, parse_day, save_csv
from .errors import ChainlensError
from .survival import lifetimes, pareto, save_lifetimes_csv, save_pareto_csv, survival_summary
from .svgcharts import elbow_chart, emit_plot_data, metrics_chart, pareto_chart
from .synthetic import SyntheticSpec, generate_synthetic

# Demo-scale defaults for `generate` (only knobs that differ from the
# SyntheticSpec defaults). 100 coins keeps an end-to-end run fast while
# still exercising disappearance, coupling, clusters, and missing data.
GENERATE_DEFAULTS: dict = {
    "n_coins": 100,
    "disappeared_fraction": 0.39,
    "price_supply_coupling": 0.6,
    "planted_clusters": 5,
    "snapshot_interval_days": 7,
    "missing_max_supply_rate": 0.1,
}

# What `report` composes. Present iff the owning stage ran with a rich
# enough --format (json implies the csv artifacts too).
REPORT_INPUTS = (
    "survival_summary.json",
    "pareto.csv",
    "correlations.csv",
    "cluster_summary.json",
    "assignments.csv",
    "metrics.csv",
)


class ArtifactWriter:
    """Tracks every file a stage writes so a mid-stage failure can
    remove partial outputs instead of leaving a half-written run."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.written: list[Path] = []

    def path(self, relative: str) -> Path:
        target = self.out_dir / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        self.written.append(target)
        return target

    def write_text(self, relative: str, text: str) -> None:
        self.path(relative).write_text(text, encoding="utf-8")

    def write_json(self, relative: str, document: dict) -> None:
        self.write_text(
            relative, json.dumps(document, indent=2, sort_keys=True) + "\n"
        )

    def discard_written(self) -> None:
        for target in self.written:
            target.unlink(missing_ok=True)


def _load_dataset(cfg: RunConfig):
    source = Path(cfg.input) if cfg.input else Path(cfg.out) / "dataset.csv"
    if not source.exists():
        raise ChainlensError(
            f"no dataset at {source}; pass --input or run generate/ingest first"
        )
    return load_csv(source)


def _dataset_summary(ds) -> dict:
    first, last = ds.date_range
    return {
        "coins": len(ds.keys),
        "rows": len(ds.snapshots),
        "first_day": first.isoformat(),
        "last_day": last.isoformat(),
    }


def cmd_generate(cfg: RunConfig, writer: ArtifactWriter) -> str:
    settings = dict(GENERATE_DEFAULTS)
    settings.update(cfg.generate)
    if isinstance(settings.get("start_day"), str):
        settings["start_day"] = parse_day(settings["start_day"])
    spec = SyntheticSpec(seed=cfg.seed, **settings)
    ds = generate_synthetic(spec)
    save_csv(ds, writer.path("dataset.csv"))
    if cfg.wants_json:
        doc = _dataset_summary(ds)
        doc["planted_disappeared"] = spec.disappeared_count
        doc["seed"] = spec.seed
        writer.write_json("dataset_summary.json", doc)
    return (
        f"generate: {len(ds.keys)} coins, {len(ds.snapshots)} rows"
        f" (seed {spec.seed}) -> dataset.csv"
    )


def cmd_ingest(cfg: RunConfig, writer: ArtifactWriter) -> str:
    if cfg.input:
        ds = load_csv(cfg.input)
        origin = cfg.input
    elif cfg.api.get("base_url"):
        client = ApiClientConfig(date_range=cfg.date_range, **cfg.api)
        ds = fetch_history(client)
        origin = client.base_url
    else:
        raise ConfigError(
            "ingest needs --input FILE or an 'api' config block with base_url"
        )
    save_csv(ds, writer.path("dataset.csv"))
    if cfg.wants_json:
        writer.write_json("dataset_summary.json", _dataset_summary(ds))
    return f"ingest: {len(ds.keys)} coins, {len(ds.snapshots)} rows from {origin}"


def cmd_clean(cfg: RunConfig, writer: ArtifactWriter) -> str:
    ds = _load_dataset(cfg)
    table, (before, after_rule, after_mean) = prepare_features(ds, cfg.date_range)
    matrix = table.matrix(CLASSIFY_FEATURES)
    with writer.path("features.csv").open("w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(("row_id",) + CLASSIFY_FEATURES)
        for row_id, row in zip(table.row_ids, matrix):
            out.writerow([row_id] + [repr(float(v)) for v in row])
    if cfg.wants_json:
        writer.write_json(
            "cleaning_summary.json",
            {
                "rows": table.n_rows,
                "features": list(CLASSIFY_FEATURES),
                "missing_before": before,
                "filled_by_supply_rule": before["max_supply"]
                - after_rule["max_supply"],
                "filled_by_column_mean": {
                    name: after_rule[name] - after_mean[name]
                    for name in CLASSIFY_FEATURES
                    if after_rule[name] != after_mean[name]
                },
                "missing_after": after_mean,
            },
        )
    filled = sum(before.values()) - sum(after_mean.values())
    return (
        f"clean: {table.n_rows} rows x {len(CLASSIFY_FEATURES)} features,"
        f" {filled} cells imputed -> features.csv"
    )


def cmd_lifetimes(cfg: RunConfig, writer: ArtifactWriter) -> str:
    ds = _load_dataset(cfg)
    records = lifetimes(ds, cfg.cutoff_date)
    summary = survival_summary(records)
    data = pareto(records)
    save_lifetimes_csv(records, writer.path("lifetimes.csv"))
    save_pareto_csv(data, writer.path("pareto.csv"))
    if cfg.wants_json:
        doc = asdict(summary)
        doc["cutoff"] = (cfg.cutoff_date or ds.date_range[1]).isoformat()
        writer.write_json("survival_summary.json", doc)
    if cfg.wants_svg and data.buckets:
        rows = [
            (f"{b.start}-{b.end}d", b.count, b.cumulative_pct) for b in data.buckets
        ]
        writer.write_text("pareto.svg", pareto_chart(rows))
    return (
        f"lifetimes: {summary.total} coins, {summary.disappeared_count} disappeared"
        f" ({summary.disappeared_fraction:.1%}) -> lifetimes.csv, pareto.csv"
    )


def cmd_correlate(cfg: RunConfig, writer: ArtifactWriter) -> str:
    ds = _load_dataset(cfg)
    report = price_factor_report(ds, cfg.date_range)
    chosen = [
        p for p in report.pooled + report.aggregate if p.method in cfg.methods
    ]
    if "spearman" in cfg.methods:
        # the pairwise matrix is rank-based, so it rides with spearman
        chosen.extend(report.matrix.pairs())
    save_correlations_csv(chosen, writer.path("correlations.csv"))
    if cfg.wants_json:
        writer.write_json("correlation_report.json", report.as_dict())
    return (
        f"correlate: {len(chosen)} pairs ({', '.join(cfg.methods)})"
        " -> correlations.csv"
    )


def cmd_cluster(cfg: RunConfig, writer: ArtifactWriter) -> str:
    ds = _load_dataset(cfg)
    day = cfg.cutoff_date or ds.date_range[1]
    report = cluster_report(ds, day, k=cfg.k_value, seed=cfg.seed)
    save_assignments_csv(report, writer.path("assignments.csv"))
    if report.elbow_curve is not None:
        save_elbow_csv(report.elbow_curve, writer.path("elbow.csv"))
        if cfg.wants_svg:
            points = list(zip(report.elbow_curve.ks, report.elbow_curve.wcss))
            writer.write_text("elbow.svg", elbow_chart(points))
    if cfg.wants_json:
        sizes = Counter(int(c) for c in report.model.assignments)
        writer.write_json(
            "cluster_summary.json",
            {
                "date": report.date.isoformat(),
                "k": report.model.k,
                "k_chosen_by": "elbow" if report.elbow_curve else "flag",
                "wcss": report.model.wcss,
                "iterations_run": report.model.iterations_run,
                "coins": len(report.keys),
                "excluded": sorted(report.excluded),
                "sizes": {str(c): sizes[c] for c in sorted(sizes)},
            },
        )
    return (
        f"cluster: k={report.model.k}, {len(report.keys)} coins on"
        f" {report.date.isoformat()} -> assignments.csv"
    )


def cmd_classify(cfg: RunConfig, writer: ArtifactWriter) -> str:
    ds = _load_dataset(cfg)
    table = label_risky(ds, cfg.cutoff_date, cfg.date_range)
    train, test = train_test_split(table, cfg.split, seed=cfg.seed)
    named = []
    detail = {}
    for kind in cfg.classifiers:
        trained = fit(ClassifierSpec.make(kind), train, seed=cfg.seed)
        result = evaluate(predict(trained, test), test.y)
        named.append((kind, result))
        save_model(trained, writer.path(f"models/{kind}.json"))
        detail[kind] = {
            "precision": result.precision,
            "recall": result.recall,
            "f1": result.f1,
            "accuracy": result.accuracy,
            "zero_division_hit": result.zero_division_hit,
            "counts": asdict(result.counts),
        }
    save_metrics_csv(named, writer.path("metrics.csv"))
    if cfg.wants_json:
        writer.write_json(
            "classify_summary.json",
            {
                "cutoff": (cfg.cutoff_date or ds.date_range[1]).isoformat(),
                "split": cfg.split,
                "seed": cfg.seed,
                "train_rows": train.n_rows,
                "test_rows": test.n_rows,
                "risky_fraction_train": float(train.y.mean()),
                "classifiers": detail,
            },
        )
    if cfg.wants_svg:
        rows = [
            (
                kind,
                {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "accuracy": m.accuracy,
                },
            )
            for kind, m in named
        ]
        writer.write_text("metrics.svg", metrics_chart(rows))
    best_kind, best = max(named, key=lambda kv: kv[1].f1)
    degenerate = [kind for kind, m in named if m.zero_division_hit]
    return (
        f"classify: {len(named)} classifier(s) on {test.n_rows} test rows,"
        f" best f1 {best.f1:.3f} ({best_kind})"
        + (f", zero division: {', '.join(degenerate)}" if degenerate else "")
        + " -> metrics.csv"
    )


def cmd_flags(cfg: RunConfig, writer: ArtifactWriter) -> str:
    ds = _load_dataset(cfg)
    stats = aggregate_stats(ds, cfg.date_range)
    counts: Counter = Counter()
    rows = []
    skipped = 0
    for key in ds.keys:
        series = ds.series(key)
        if cfg.cutoff_date is not None:
            series = tuple(s for s in series if s.date <= cfg.cutoff_date)
        if not series:
            skipped += 1
            continue
        flags = sorted(manipulability_flags(series[-1], stats.get(key)))
        counts.update(flags)
        rows.append((key, " ".join(flags)))
    with writer.path("flags.csv").open("w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["coin_key", "flags"])
        out.writerows(rows)
    flagged = sum(1 for _, joined in rows if joined)
    if cfg.wants_json:
        writer.write_json(
            "flags_summary.json",
            {
                "coins": len(rows),
                "coins_flagged": flagged,
                "coins_skipped": skipped,
                "flag_counts": dict(sorted(counts.items())),
            },
        )
    return f"flags: {flagged}/{len(rows)} coins flagged -> flags.csv"


def _esc(value) -> str:
    return html.escape(str(value))


def _html_table(header, rows) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in header)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _kv_table(document: dict) -> str:
    return _html_table(
        ("field", "value"),
        [(k, json.dumps(v)) for k, v in sorted(document.items())],
    )


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def cmd_report(cfg: RunConfig, writer: ArtifactWriter) -> str:
    out = Path(cfg.out)
    missing = [name for name in REPORT_INPUTS if not (out / name).exists()]
    if missing:
        raise ChainlensError(
            "report composes existing artifacts but these are missing: "
            + ", ".join(missing)
            + "; run the earlier stages (with --format json or svg) first"
        )

    def inline_svg(name: str) -> str:
        path = out / name
        if not path.exists():
            return ""
        return f"<figure>{path.read_text(encoding='utf-8')}</figure>"

    survival = json.loads((out / "survival_summary.json").read_text("utf-8"))
    cluster = json.loads((out / "cluster_summary.json").read_text("utf-8"))
    pareto_head, pareto_rows = _read_csv(out / "pareto.csv")
    corr_head, corr_rows = _read_csv(out / "correlations.csv")
    metrics_head, metrics_rows = _read_csv(out / "metrics.csv")
    _, assign_rows = _read_csv(out / "assignments.csv")
    cluster_sizes = Counter(row[1] for row in assign_rows if len(row) > 1)

    sections = [
        "<h2>Survival</h2>",
        _kv_table(survival),
        _html_table(pareto_head, pareto_rows),
        inline_svg("pareto.svg"),
        "<h2>Correlations</h2>",
        _html_table(corr_head, corr_rows),
        "<h2>Clustering</h2>",
        _kv_table(cluster),
        _html_table(
            ("cluster", "coins"),
            [(c, cluster_sizes[c]) for c in sorted(cluster_sizes)],
        ),
        inline_svg("elbow.svg"),
        "<h2>Classification</h2>",
        _html_table(metrics_head, metrics_rows),
        inline_svg("metrics.svg"),
    ]
    flags_path = out / "flags.csv"
    if flags_path.exists():
        _, flag_rows = _read_csv(flags_path)
        flagged = [(key, joined) for key, joined in flag_rows if joined]
        sections.append("<h2>Manipulability flags</h2>")
        sections.append(
            f"<p>{len(flagged)} of {len(flag_rows)} coins carry at least one flag.</p>"
        )
        sections.append(_html_table(("coin", "flags"), flagged))

    style = (
        "body{font-family:system-ui,sans-serif;max-width:64rem;margin:2rem auto;"
        "padding:0 1rem;color:#222}"
        "h1{border-bottom:2px solid #333;padding-bottom:.3rem}"
        "table{border-collapse:collapse;margin:1rem 0}"
        "td,th{border:1px solid #aaa;padding:.25rem .6rem;text-align:right}"
        "th{background:#eee}td:first-child,th:first-child{text-align:left}"
        "figure{margin:1rem 0}svg{max-width:100%;height:auto}"
    )
    page = (
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>chainlens report</title><style>{style}</style></head><body>"
        "<h1>chainlens report</h1>"
        f"<p>Composed from artifacts in <code>{_esc(out)}</code>."
        " Rerun the analysis stages to refresh the numbers.</p>"
        + "".join(sections)
        + "</body></html>\n"
    )
    writer.write_text("report.html", page)
    return f"report: composed {len(REPORT_INPUTS)} artifacts -> report.html"


def cmd_plot(cfg: RunConfig, writer: ArtifactWriter) -> str:
    if not cfg.input:
        raise ConfigError(
            "plot needs --input pointing at pareto.csv, elbow.csv, or metrics.csv"
        )
    source = Path(cfg.input)
    if not source.exists():
        raise ChainlensError(f"no artifact at {source}")
    with source.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    kind = source.stem
    svg_text, echo_csv = emit_plot_data(kind, rows)
    writer.write_text(f"{kind}.svg", svg_text)
    writer.write_text(f"{kind}_plot.csv", echo_csv)
    return f"plot: {kind} -> {kind}.svg, {kind}_plot.csv"


COMMANDS = {
    "generate": (cmd_generate, "synthesize a dataset with planted structure"),
    "ingest": (cmd_ingest, "load a CSV (or fetch via the API) into dataset.csv"),
    "clean": (cmd_clean, "derive and impute the per-row feature table"),
    "lifetimes": (cmd_lifetimes, "coin lifetimes, survival summary, pareto data"),
    "correlate": (cmd_correlate, "price-vs-factor correlation artifacts"),
    "cluster": (cmd_cluster, "k-means daily clustering with elbow selection"),
    "classify": (cmd_classify, "train and score disappearance classifiers"),
    "flags": (cmd_flags, "manipulability flags per coin"),
    "report": (cmd_report, "compose prior artifacts into report.html"),
    "plot": (cmd_plot, "re-render one artifact CSV as SVG + plotted numbers"),
}


def run(command: str, config: RunConfig) -> str:
    """Execute one subcommand; returns its one-line summary.

    Raises ChainlensError (or a subclass) on failure after removing
    any partially written artifacts.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    writer = ArtifactWriter(config.out)
    handler = COMMANDS[command][0]
    try:
        return handler(config, writer)
    except Exception:
        writer.discard_written()
        raise


def _k_flag(text: str):
    if text == "auto":
        return text
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"k must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainlens",
        description="cryptocurrency survival, correlation, clustering,"
        " and risk-classification pipeline",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="declarative JSON config")
    common.add_argument("--input", metavar="PATH", help="input file for this stage")
    common.add_argument("--out", metavar="DIR", help="artifact directory")
    common.add_argument("--seed", type=int, metavar="N", help="RNG seed")
    common.add_argument("--cutoff", metavar="YYYY-MM-DD", help="disappearance cutoff")
    common.add_argument("--start", metavar="YYYY-MM-DD", help="range start (inclusive)")
    common.add_argument("--end", metavar="YYYY-MM-DD", help="range end (inclusive)")
    common.add_argument(
        "--format",
        choices=["csv", "json", "svg"],
        help="artifact richness: csv only, +json summaries, +svg figures",
    )

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text) in COMMANDS.items():
        stage = sub.add_parser(name, parents=[common], help=help_text)
        if name == "correlate":
            stage.add_argument(
                "--method", choices=list(METHODS) + ["all"], help="which coefficient(s)"
            )
        if name == "cluster":
            stage.add_argument(
                "--k", type=_k_flag, metavar="N|auto", help="cluster count or 'auto'"
            )
        if name == "classify":
            stage.add_argument("--classifier", help="classifier kind, or 'all'")
            stage.add_argument(
                "--split", type=float, metavar="R", help="train fraction in (0,1)"
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "config") and value is not None
    }
    try:
        config = build_config(args.config, overrides)
        summary = run(args.command, config)
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except ChainlensError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
