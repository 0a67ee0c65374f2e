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

Every file a stage writes goes through ``ArtifactWriter``, and every
stage CSV through its ``write_csv``. Artifacts carry no timestamps; the
same config and seed produce byte-identical files. ``report`` only
composes artifacts that earlier stages already wrote, never recomputing
them, so a stale report is impossible to mistake for a fresh analysis.

Exit codes: 0 success, 1 stage failure (one-line JSON error on stderr,
earlier artifacts left untouched), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import html
import json
import sys
from collections import Counter
from dataclasses import asdict, astuple
from pathlib import Path

from .api import ApiClientConfig, fetch_history
from .cache import load_panel
from .classify import (
    CLASSIFY_FEATURES,
    ClassifierSpec,
    evaluate,
    fit,
    label_risky,
    manipulability_flags,
    predict,
    prepare_features,
    save_model,
    train_test_split,
)
from .cleaning import aggregate_stats
# not called here: perfbench/tracer.py patches these three bindings
from .cleaning import impute_max_supply, impute_mean, row_feature_table  # noqa: F401
from .clustering import cluster_report
from .config import ConfigError, RunConfig, build_config
from .correlation import METHODS, price_factor_report
from .dataset import load_csv, parse_day, save_csv
from .errors import ChainlensError
from .survival import lifetimes, pareto, survival_summary
from .svgcharts import (
    METRIC_SERIES,
    elbow_chart,
    emit_plot_data,
    metrics_chart,
    pareto_chart,
    pareto_label,
)
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
    "metrics.csv",
)

# Header of the stage CSV whose columns ``report`` reads by position.
_FLAGS_HEADER = ("coin_key", "flags")


class ArtifactWriter:
    """Stages each file a stage writes as a temporary sibling of its
    target; ``commit`` moves them all into place once the stage has
    succeeded, and ``discard_written`` removes them after a failure, so
    a failed or interrupted stage leaves the previous run's files as
    they were."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.written: list[tuple[Path, Path]] = []  # (temporary, target)

    def path(self, relative: str) -> Path:
        """Where to write the artifact ``relative`` until the commit."""
        target = self.out_dir / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        temporary = target.with_name(f".{target.name}.tmp")
        self.written.append((temporary, target))
        return temporary

    def write_text(self, relative: str, text: str) -> None:
        self.path(relative).write_text(text, encoding="utf-8")

    def write_json(self, relative: str, document: dict) -> None:
        self.write_text(
            relative, json.dumps(document, indent=2, sort_keys=True) + "\n"
        )

    def write_csv(self, relative: str, header, rows) -> None:
        """The one CSV format of every stage file: the default ``csv``
        dialect (CRLF line ends), floats as ``repr``, None as an empty
        cell."""
        with self.path(relative).open("w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(header)
            out.writerows(rows)

    def commit(self) -> None:
        """Move every staged file into place. If a move fails, each target
        already replaced gets its previous file back (one that was new is
        removed) before the error propagates, so a failed commit leaves
        no mix of new and old artifacts."""
        done: list[tuple[Path, Path | None]] = []  # (target, its previous file)
        try:
            for temporary, target in self.written:
                if target.is_file():
                    previous = target.with_name(f".{target.name}.previous")
                    target.replace(previous)
                    done.append((target, previous))
                    temporary.replace(target)
                else:
                    temporary.replace(target)
                    done.append((target, None))
        except BaseException:
            for target, previous in reversed(done):
                if previous is None:
                    target.unlink()
                else:
                    previous.replace(target)
            raise
        for _, previous in done:
            if previous is not None:
                previous.unlink()
        self.written = []

    def discard_written(self) -> None:
        for temporary, _ in self.written:
            temporary.unlink(missing_ok=True)


def _load_dataset(cfg: RunConfig):
    """The panel a stage reads: ``--input``, else ``dataset.csv`` in ``--out``.

    It is parsed with ``load_csv`` only when the panel cache holds no
    checked entry for the file's bytes (``cache.load_panel``)."""
    source = Path(cfg.input) if cfg.input else Path(cfg.out) / "dataset.csv"
    if not source.exists():
        hint = "" if cfg.input else "; pass --input or run generate/ingest first"
        raise ChainlensError(f"no dataset at {source}{hint}")
    try:
        ds = load_panel(source, load_csv)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ChainlensError(f"dataset {source} is not UTF-8 CSV: {exc}") from None
    return _require_rows(ds, source)


def _require_rows(ds, source):
    if len(ds) == 0:
        raise ChainlensError(f"no snapshot rows in {source}")
    return ds


def _dataset_summary(ds) -> dict:
    first, last = ds.date_range
    return {
        "coins": len(ds.keys),
        "rows": len(ds),
        "first_day": first.isoformat(),
        "last_day": last.isoformat(),
    }


def cmd_generate(cfg: RunConfig, writer: ArtifactWriter) -> str:
    settings = dict(GENERATE_DEFAULTS)
    settings.update(cfg.generate)
    if "start_day" in settings:
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
        f"generate: {len(ds.keys)} coins, {len(ds)} rows"
        f" (seed {spec.seed}) -> dataset.csv"
    )


def cmd_ingest(cfg: RunConfig, writer: ArtifactWriter) -> str:
    if cfg.input:
        ds = _load_dataset(cfg)
        origin = cfg.input
    elif cfg.api.get("base_url"):
        client = ApiClientConfig(date_range=cfg.date_range, **cfg.api)
        origin = client.base_url
        ds = _require_rows(fetch_history(client), origin)
    else:
        raise ConfigError(
            "ingest needs --input FILE or an 'api' config block with base_url"
        )
    save_csv(ds, writer.path("dataset.csv"))
    if cfg.wants_json:
        writer.write_json("dataset_summary.json", _dataset_summary(ds))
    return f"ingest: {len(ds.keys)} coins, {len(ds)} rows from {origin}"


def cmd_clean(cfg: RunConfig, writer: ArtifactWriter) -> str:
    ds = _load_dataset(cfg)
    table, (before, after_rule, after_mean) = prepare_features(ds, cfg.date_range)
    writer.write_csv(
        "features.csv",
        ("row_id",) + CLASSIFY_FEATURES,
        (
            [row_id] + row.tolist()
            for row_id, row in zip(table.row_ids, table.matrix(CLASSIFY_FEATURES))
        ),
    )
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
    cutoff = ds.resolve_cutoff(cfg.cutoff_date)
    records = lifetimes(ds, cutoff)
    summary = survival_summary(records)
    data = pareto(records)
    writer.write_csv(
        "lifetimes.csv",
        ("key", "first_day", "last_day", "lifetime_days", "disappeared"),
        (
            (r.key, r.first_day, r.last_day, r.lifetime_days, str(r.disappeared).lower())
            for r in records
        ),
    )
    writer.write_csv(
        "pareto.csv",
        ("bucket_start", "bucket_end", "count", "cumulative_pct"),
        map(astuple, data.buckets),
    )
    if cfg.wants_json:
        doc = asdict(summary)
        doc["cutoff"] = cutoff.isoformat()
        writer.write_json("survival_summary.json", doc)
    if cfg.wants_svg and data.buckets:
        rows = [
            (pareto_label(b.start, b.end), b.count, b.cumulative_pct)
            for b in data.buckets
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
    writer.write_csv(
        "correlations.csv",
        ("var_a", "var_b", "method", "coefficient", "n", "label"),
        map(astuple, chosen),
    )
    if cfg.wants_json:
        writer.write_json("correlation_report.json", report.as_dict())
    return (
        f"correlate: {len(chosen)} pairs ({', '.join(cfg.methods)})"
        " -> correlations.csv"
    )


def cmd_cluster(cfg: RunConfig, writer: ArtifactWriter) -> str:
    ds = _load_dataset(cfg)
    report = cluster_report(ds, ds.resolve_cutoff(cfg.cutoff_date), k=cfg.k_value, seed=cfg.seed)
    writer.write_csv(
        "assignments.csv",
        ("coin_key", "cluster_id"),
        zip(report.keys, report.model.assignments.tolist()),
    )
    if report.elbow_curve is not None:
        points = list(zip(report.elbow_curve.ks, report.elbow_curve.wcss))
        writer.write_csv("elbow.csv", ("k", "wcss"), points)
        if cfg.wants_svg:
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
    cutoff = ds.resolve_cutoff(cfg.cutoff_date)
    table = label_risky(ds, cutoff, cfg.date_range)
    train, test = train_test_split(table, cfg.split, seed=cfg.seed)
    named = []
    detail = {}
    for kind in cfg.classifiers:
        trained = fit(ClassifierSpec.make(kind), train, seed=cfg.seed)
        result = evaluate(predict(trained, test), test.y)
        named.append((kind, result))
        save_model(trained, writer.path(f"models/{kind}.json"))
        detail[kind] = asdict(result)
    scores = [
        (kind,) + tuple(getattr(m, series) for series in METRIC_SERIES)
        for kind, m in named
    ]
    writer.write_csv("metrics.csv", ("classifier",) + METRIC_SERIES, scores)
    if cfg.wants_json:
        writer.write_json(
            "classify_summary.json",
            {
                "cutoff": cutoff.isoformat(),
                "split": cfg.split,
                "seed": cfg.seed,
                "train_rows": train.n_rows,
                "test_rows": test.n_rows,
                "risky_fraction_train": float(train.y.mean()),
                "classifiers": detail,
            },
        )
    if cfg.wants_svg:
        writer.write_text("metrics.svg", metrics_chart(scores))
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
    # each coin's last row on or before the cutoff; -1 for none
    last = ds.last_rows(ds.resolve_cutoff(cfg.cutoff_date))
    skipped = int((last < 0).sum())
    for snap in ds.snapshots_of(last[last >= 0]):
        flags = sorted(manipulability_flags(snap, stats.get(snap.key)))
        counts.update(flags)
        rows.append((snap.key, " ".join(flags)))
    writer.write_csv("flags.csv", _FLAGS_HEADER, rows)
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


def _read_csv(path: Path, expected: tuple | None = None) -> tuple[list[str], list[list[str]]]:
    """An artifact CSV's header and rows, blank lines skipped. Raises
    ChainlensError naming the file unless it is UTF-8 CSV whose rows all
    have the header's width, and whose header is ``expected`` if given."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ChainlensError(f"artifact {path} is not UTF-8 CSV: {exc}") from None
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    if expected is not None and tuple(header) != expected:
        raise ChainlensError(f"artifact {path}: header {header}, expected {list(expected)}")
    for number, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise ChainlensError(
                f"artifact {path}: row {number} has {len(row)} cells,"
                f" the header {len(header)}"
            )
    return header, body


def _read_json_object(path: Path) -> dict:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ChainlensError(f"artifact {path} is not JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ChainlensError(f"artifact {path} must hold a JSON object")
    return document


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
        try:
            return f"<figure>{path.read_text(encoding='utf-8')}</figure>"
        except UnicodeDecodeError as exc:
            raise ChainlensError(f"artifact {path} is not UTF-8 text: {exc}") from None

    survival = _read_json_object(out / "survival_summary.json")
    cluster = _read_json_object(out / "cluster_summary.json")
    pareto_head, pareto_rows = _read_csv(out / "pareto.csv")
    corr_head, corr_rows = _read_csv(out / "correlations.csv")
    metrics_head, metrics_rows = _read_csv(out / "metrics.csv")
    sizes = cluster.get("sizes")
    if not isinstance(sizes, dict):
        raise ChainlensError(f"artifact {out / 'cluster_summary.json'}: sizes must be an object")

    sections = [
        "<h2>Survival</h2>",
        _kv_table(survival),
        _html_table(pareto_head, pareto_rows),
        inline_svg("pareto.svg"),
        "<h2>Correlations</h2>",
        _html_table(corr_head, corr_rows),
        "<h2>Clustering</h2>",
        _kv_table(cluster),
        _html_table(("cluster", "coins"), sorted(sizes.items())),
        inline_svg("elbow.svg"),
        "<h2>Classification</h2>",
        _html_table(metrics_head, metrics_rows),
        inline_svg("metrics.svg"),
    ]
    flags_path = out / "flags.csv"
    if flags_path.exists():
        _, flag_rows = _read_csv(flags_path, _FLAGS_HEADER)
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
        "<p>Composed from the stage artifacts next to this file."
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
    columns, cells = _read_csv(source)
    kind = source.stem
    try:
        svg_text, header, plotted = emit_plot_data(
            kind, [dict(zip(columns, row)) for row in cells]
        )
    except ChainlensError as exc:
        raise ChainlensError(f"{source}: {exc}") from None
    writer.write_text(f"{kind}.svg", svg_text)
    writer.write_csv(f"{kind}_plot.csv", header, plotted)
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

    The stage's artifacts replace earlier ones only when it succeeds.
    On failure (ChainlensError or a subclass, or an interrupt) its
    temporary files are removed and earlier artifacts stay untouched.
    A file the stage cannot read or write (an OSError) is a
    ChainlensError.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    writer = ArtifactWriter(config.out)
    handler = COMMANDS[command][0]
    try:
        summary = handler(config, writer)
        writer.commit()
    except BaseException as exc:
        writer.discard_written()
        if isinstance(exc, OSError):
            raise ChainlensError(str(exc)) from exc
        raise
    return summary


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
