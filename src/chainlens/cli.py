"""Pipeline command line: make or ingest a market panel, then run each
analysis stage as its own subcommand writing plain-file artifacts.

``run`` reads what a stage's ``COMMANDS`` row names for its handler,
most often the panel ``dataset.csv`` in the output directory (or
``--input``), and the stage writes next to it, so a full run is::

    chainlens generate --out run1 --seed 7
    chainlens clean --out run1
    chainlens lifetimes --out run1
    chainlens correlate --out run1
    chainlens cluster --out run1
    chainlens classify --out run1
    chainlens flags --out run1
    chainlens report --out run1

Every file a stage writes goes through ``ArtifactWriter``, and every
stage CSV through its ``write_csv``; the stage's ``COMMANDS`` row lists
them, and a rerun removes the row's files it did not write. Artifacts
carry no timestamps; the same config and seed produce byte-identical
files. ``report`` only composes artifacts that earlier stages already
wrote, never recomputing them: ``report.html`` holds the numbers of
the files next to it when ``report`` last succeeded, and a ``report``
that exits 1 leaves the previous one in place, as any failed stage
leaves its files.

Exit codes: 0 success, 1 stage failure (one-line JSON error on stderr,
earlier artifacts left untouched), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import html
import importlib
import json
import sys
from collections import Counter, namedtuple
from dataclasses import asdict, astuple
from pathlib import Path

from .config import FORMATS, ConfigError, RunConfig, build_config
from .errors import ChainlensError
from .rules import CLASSIFIER_KINDS, METHODS, parse_day

# The names the stage handlers call, by the chainlens module that
# defines them. This module imports none of them: ``run`` imports the
# modules a stage's COMMANDS entry lists and binds their names here,
# and ``__getattr__`` resolves a name on first use. Both bind with
# setdefault, so a replacement set here first (a test's, the benchmark
# tracer's) is kept.
PROVIDERS = {
    "api": ("ApiClientConfig", "fetch_history"),
    "cache": ("load_panel",),
    "classify": (
        "CLASSIFY_FEATURES", "ClassifierSpec", "evaluate", "fit", "label_risky",
        "manipulability_flags", "predict", "prepare_features", "save_model", "train_test_split",
    ),
    # impute_* and row_feature_table: not called here; perfbench/tracer.py wraps them
    "cleaning": ("aggregate_stats", "impute_max_supply", "impute_mean", "row_feature_table"),
    "clustering": ("CLUSTER_FEATURES", "cluster_report"),
    "correlation": ("price_factor_report",),
    "dataset": ("isoformat_days", "load_csv", "save_csv"),
    "survival": ("lifetimes", "pareto", "survival_summary"),
    "svgcharts": (
        "METRIC_SERIES", "elbow_chart", "emit_plot_data", "metrics_chart", "pareto_chart",
        "pareto_label",
    ),
    "synthetic": ("SyntheticSpec", "generate_synthetic"),
}
_MODULE_OF = {name: module for module, names in PROVIDERS.items() for name in names}


def _bind(name: str):
    module = importlib.import_module(f".{_MODULE_OF[name]}", __package__)
    return globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _bind(name)


# Demo-scale defaults for `generate` (only knobs that differ from the
# SyntheticSpec defaults). 100 coins keeps an end-to-end run fast while
# still exercising disappearance, coupling, clusters, and missing data.
GENERATE_DEFAULTS: dict = {
    "n_coins": 100,
    "disappeared_fraction": 0.39,
    "price_supply_coupling": 0.6,
    "planted_clusters": 5,
    "missing_max_supply_rate": 0.1,
}

# Header of the stage CSV whose columns ``report`` reads by position.
_FLAGS_HEADER = ("coin_key", "flags")


class ArtifactWriter:
    """Stages each file a stage writes as a temporary sibling of its
    target; ``commit`` moves them all into place once the stage has
    succeeded, and ``discard_written`` removes them after a failure, so
    a failed or interrupted stage leaves the previous run's files as
    they were. Given the stage's ``writes`` row of COMMANDS, it skips a
    file above the run's ``format``, refuses one the row lacks, and
    ``commit`` removes the row's files that this run did not write."""

    def __init__(self, out_dir: str | Path, writes=None, format: str = "svg"):
        self.out_dir = Path(out_dir)
        self.written: list[tuple[Path, Path]] = []  # (temporary, target)
        # the files of the stage's row, and those the run's format leaves out
        self.row = None if writes is None else sum(writes, ())
        self.skipped = sum((writes or ())[FORMATS.index(format) + 1:], ())

    def path(self, relative: str) -> Path | None:
        """Where to write the artifact ``relative`` until the commit, or
        None when the run's format leaves it out."""
        if self.row is not None and relative not in self.row:
            raise ValueError(f"{relative} is not in the stage's COMMANDS row")
        if relative in self.skipped:
            return None
        target = self.out_dir / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        temporary = target.with_name(f".{target.name}.tmp")
        self.written.append((temporary, target))
        return temporary

    def write_text(self, relative: str, text: str) -> None:
        if (path := self.path(relative)) is not None:
            path.write_text(text, encoding="utf-8")

    def write_json(self, relative: str, document: dict) -> None:
        self.write_text(
            relative, json.dumps(document, indent=2, sort_keys=True) + "\n"
        )

    def write_csv(self, relative: str, header, rows) -> None:
        """The one CSV format of every stage file: the default ``csv``
        dialect (CRLF line ends), floats as ``repr``, None as an empty
        cell."""
        if (path := self.path(relative)) is None:
            return
        with path.open("w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(header)
            out.writerows(rows)

    def commit(self) -> None:
        """Move every staged file into place, and remove each file of the
        stage's row that this run did not write. If a move fails, each
        target already replaced or removed gets its previous file back
        (one that was new is removed) before the error propagates, so a
        failed commit leaves no mix of new and old artifacts."""
        # target -> its staged file, None for a row file this run did not write
        moves = dict.fromkeys(self.out_dir / name for name in self.row or ())
        moves.update((target, temporary) for temporary, target in self.written)
        done: list[tuple[Path, Path | None]] = []  # (target, its previous file)
        try:
            for target, temporary in moves.items():
                if target.is_file():
                    previous = target.with_name(f".{target.name}.previous")
                    target.replace(previous)
                    done.append((target, previous))
                    if temporary is not None:
                        temporary.replace(target)
                elif temporary is not None:
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


def cmd_generate(cfg: RunConfig, writer: ArtifactWriter, _) -> str:
    if cfg.input:
        raise ConfigError(
            f"generate synthesizes a panel and reads no input; run ingest --input {cfg.input}"
        )
    settings = dict(GENERATE_DEFAULTS)
    settings.update(cfg.generate)
    if "start_day" in settings:
        settings["start_day"] = parse_day(settings["start_day"])
    spec = SyntheticSpec(seed=cfg.seed, **settings)
    ds = generate_synthetic(spec)
    save_csv(ds, writer.path("dataset.csv"))
    doc = dict(_dataset_summary(ds), planted_disappeared=spec.disappeared_count, seed=spec.seed)
    writer.write_json("dataset_summary.json", doc)
    return (
        f"generate: {len(ds.keys)} coins, {len(ds)} rows"
        f" (seed {spec.seed}) -> dataset.csv"
    )


def cmd_ingest(cfg: RunConfig, writer: ArtifactWriter, ds) -> str:
    if cfg.input:  # ds is the --input panel
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
    writer.write_json("dataset_summary.json", _dataset_summary(ds))
    return f"ingest: {len(ds.keys)} coins, {len(ds)} rows from {origin}"


def cmd_clean(cfg: RunConfig, writer: ArtifactWriter, ds) -> str:
    rows, X, (before, after_rule, after_mean) = prepare_features(ds, cfg.date_range)
    ids = map("{}@{}".format, ds.row_keys(rows), isoformat_days(ds.days[rows]))
    writer.write_csv(
        "features.csv",
        ("row_id",) + CLASSIFY_FEATURES,
        ([row_id] + row.tolist() for row_id, row in zip(ids, X)),
    )
    writer.write_json(
        "cleaning_summary.json",
        {
            "rows": len(rows),
            "features": list(CLASSIFY_FEATURES),
            "missing_before": before,
            "filled_by_supply_rule": before["max_supply"] - after_rule["max_supply"],
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
        f"clean: {len(rows)} rows x {len(CLASSIFY_FEATURES)} features,"
        f" {filled} cells imputed -> features.csv"
    )


def cmd_lifetimes(cfg: RunConfig, writer: ArtifactWriter, ds) -> str:
    cutoff = ds.resolve_cutoff(cfg.cutoff_date)
    coins = lifetimes(ds, cutoff)
    summary = survival_summary(coins)
    buckets = pareto(coins)
    writer.write_csv(
        "lifetimes.csv",
        ("key", "first_day", "last_day", "lifetime_days", "disappeared"),
        zip(
            ds.keys,
            isoformat_days(coins.first_days),
            isoformat_days(coins.last_days),
            coins.lifetime_days.tolist(),
            ("true" if gone else "false" for gone in coins.disappeared.tolist()),
        ),
    )
    writer.write_csv(
        "pareto.csv",
        ("bucket_start", "bucket_end", "count", "cumulative_pct"),
        map(astuple, buckets),
    )
    writer.write_json("survival_summary.json", dict(asdict(summary), cutoff=cutoff.isoformat()))
    if buckets:
        rows = [
            (pareto_label(b.start, b.end), b.count, b.cumulative_pct)
            for b in buckets
        ]
        writer.write_text("pareto.svg", pareto_chart(rows))
    return (
        f"lifetimes: {summary.total} coins, {summary.disappeared_count} disappeared"
        f" ({summary.disappeared_fraction:.1%}) -> lifetimes.csv, pareto.csv"
    )


def cmd_correlate(cfg: RunConfig, writer: ArtifactWriter, ds) -> str:
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
    writer.write_json("correlation_report.json", report.as_dict())
    return (
        f"correlate: {len(chosen)} pairs ({', '.join(cfg.methods)})"
        " -> correlations.csv"
    )


def cmd_cluster(cfg: RunConfig, writer: ArtifactWriter, ds) -> str:
    report = cluster_report(ds, ds.resolve_cutoff(cfg.cutoff_date), k=cfg.k_value, seed=cfg.seed)
    writer.write_csv(
        "assignments.csv",
        ("coin_key", "cluster_id"),
        zip(report.keys, report.model.assignments.tolist()),
    )
    if report.elbow_curve is not None:
        points = list(zip(report.elbow_curve.ks, report.elbow_curve.wcss))
        writer.write_csv("elbow.csv", ("k", "wcss"), points)
        writer.write_text("elbow.svg", elbow_chart(points))
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
            "features": list(report.feature_columns),
            "sizes": {str(c): sizes[c] for c in sorted(sizes)},
        },
    )
    left_out = report.feature_columns != CLUSTER_FEATURES
    return (
        f"cluster: k={report.model.k}, {len(report.keys)} coins on"
        f" {report.date.isoformat()}"
        + (f" (features {', '.join(report.feature_columns)})" if left_out else "")
        + " -> assignments.csv"
    )


def cmd_classify(cfg: RunConfig, writer: ArtifactWriter, ds) -> str:
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
    writer.write_text("metrics.svg", metrics_chart(scores))
    best_kind, best = max(named, key=lambda kv: kv[1].f1)
    degenerate = [kind for kind, m in named if m.zero_division_hit]
    return (
        f"classify: {len(named)} classifier(s) on {test.n_rows} test rows,"
        f" best f1 {best.f1:.3f} ({best_kind})"
        + (f", zero division: {', '.join(degenerate)}" if degenerate else "")
        + " -> metrics.csv"
    )


def cmd_flags(cfg: RunConfig, writer: ArtifactWriter, ds) -> str:
    volume = aggregate_stats(ds, ("volume_24h",), cfg.date_range)["volume_24h"]
    # each coin's last row on or before the cutoff; -1 for none
    last = ds.last_rows(ds.resolve_cutoff(cfg.cutoff_date))
    rows = last[last >= 0]
    masks = manipulability_flags(ds, rows, volume)
    names = sorted(masks)
    joined = [" ".join(name for name in names if masks[name][i]) for i in range(len(rows))]
    writer.write_csv("flags.csv", _FLAGS_HEADER, zip(ds.row_keys(rows), joined))
    flagged = sum(map(bool, joined))
    writer.write_json(
        "flags_summary.json",
        {
            "coins": len(rows),
            "coins_flagged": flagged,
            "coins_skipped": len(last) - len(rows),
            "flag_counts": {
                name: int(masks[name].sum()) for name in names if masks[name].any()
            },
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


def cmd_report(cfg: RunConfig, writer: ArtifactWriter, paths: dict) -> str:
    def inline_svg(name: str) -> str:
        if name not in paths:
            return ""
        try:
            return f"<figure>{paths[name].read_text(encoding='utf-8')}</figure>"
        except UnicodeDecodeError as exc:
            raise ChainlensError(f"artifact {paths[name]} is not UTF-8 text: {exc}") from None

    survival = _read_json_object(paths["survival_summary.json"])
    cluster = _read_json_object(paths["cluster_summary.json"])
    pareto_head, pareto_rows = _read_csv(paths["pareto.csv"])
    corr_head, corr_rows = _read_csv(paths["correlations.csv"])
    metrics_head, metrics_rows = _read_csv(paths["metrics.csv"])
    sizes = cluster.get("sizes")
    if not isinstance(sizes, dict):
        raise ChainlensError(f"artifact {paths['cluster_summary.json']}: sizes must be an object")

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
    if "flags.csv" in paths:
        _, flag_rows = _read_csv(paths["flags.csv"], _FLAGS_HEADER)
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
    return f"report: composed {len(COMMANDS['report'].reads[0])} artifacts -> report.html"


def cmd_plot(cfg: RunConfig, writer: ArtifactWriter, _) -> str:
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


# A stage's handler, help, the modules of the PROVIDERS names it calls,
# the (required, optional) files it reads, "dataset.csv" being the panel
# or --input, and the files it writes at --format csv, json and svg, each
# adding to the one before. None: no files, or names taken from --input.
Stage = namedtuple("Stage", "handler help modules reads writes")
_PANEL = (("dataset.csv",), ())  # reads the panel alone
_MODELS = tuple(f"models/{kind}.json" for kind in CLASSIFIER_KINDS)

COMMANDS = {
    "generate": Stage(cmd_generate, "synthesize a dataset with planted structure",
                      ("dataset", "synthetic"), None,
                      (("dataset.csv",), ("dataset_summary.json",), ())),
    "ingest": Stage(cmd_ingest, "load a CSV (or fetch via the API) into dataset.csv",
                    ("api", "dataset"), ((), ("dataset.csv",)),
                    (("dataset.csv",), ("dataset_summary.json",), ())),
    "clean": Stage(cmd_clean, "derive and impute the per-row feature table",
                   ("classify", "dataset"), _PANEL,
                   (("features.csv",), ("cleaning_summary.json",), ())),
    "lifetimes": Stage(cmd_lifetimes, "coin lifetimes, survival summary, pareto data",
                       ("dataset", "survival", "svgcharts"), _PANEL,
                       (("lifetimes.csv", "pareto.csv"), ("survival_summary.json",),
                        ("pareto.svg",))),
    "correlate": Stage(cmd_correlate, "price-vs-factor correlation artifacts",
                       ("correlation",), _PANEL,
                       (("correlations.csv",), ("correlation_report.json",), ())),
    "cluster": Stage(cmd_cluster, "k-means daily clustering with elbow selection",
                     ("clustering", "svgcharts"), _PANEL,
                     (("assignments.csv", "elbow.csv"), ("cluster_summary.json",), ("elbow.svg",))),
    "classify": Stage(cmd_classify, "train and score disappearance classifiers",
                      ("classify", "svgcharts"), _PANEL,
                      (("metrics.csv",) + _MODELS, ("classify_summary.json",), ("metrics.svg",))),
    "flags": Stage(cmd_flags, "manipulability flags per coin", ("cleaning", "classify"), _PANEL,
                   (("flags.csv",), ("flags_summary.json",), ())),
    "report": Stage(cmd_report, "compose prior artifacts into report.html", (),
                    (("survival_summary.json", "pareto.csv", "correlations.csv",
                      "cluster_summary.json", "metrics.csv"),
                     ("pareto.svg", "elbow.svg", "metrics.svg", "flags.csv")),
                    (("report.html",), (), ())),
    "plot": Stage(cmd_plot, "re-render one artifact CSV as SVG + plotted numbers",
                  ("svgcharts",), None, None),
}


def _read(command: str, cfg: RunConfig):
    """What the stage's ``reads`` names, for its handler: the panel
    (``--input``, else ``dataset.csv`` in ``--out``; an optional one is
    ``--input`` or None), parsed by ``load_csv`` only on a panel cache
    miss (``cache.load_panel``), or else a name -> path map of its files
    present in ``--out``."""
    required, optional = COMMANDS[command].reads or ((), ())
    out = Path(cfg.out)
    if "dataset.csv" in required + optional:
        if not (cfg.input or required):
            return None
        source = Path(cfg.input) if cfg.input else out / "dataset.csv"
        if not source.exists():
            hint = "" if cfg.input else "; pass --input or run generate/ingest first"
            raise ChainlensError(f"no dataset at {source}{hint}")
        try:
            ds = load_panel(source, load_csv)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ChainlensError(f"dataset {source} is not UTF-8 CSV: {exc}") from None
        return _require_rows(ds, source)
    made_by = {name: f"{stage} --format {fmt}" for stage, row in COMMANDS.items()
               for fmt, names in zip(FORMATS, row.writes or ()) for name in names}
    missing = [f"{name} ({made_by[name]})" for name in required if not (out / name).exists()]
    if missing:
        raise ChainlensError(f"{command} composes existing artifacts but these are missing: "
                             f"{', '.join(missing)}; run those stages first")
    return {name: out / name for name in required + optional if (out / name).exists()}


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
    stage = COMMANDS[command]
    # the panel's modules (what _read calls for it) come with its read
    panel = ("cache", "dataset") if "dataset.csv" in sum(stage.reads or (), ()) else ()
    for module in stage.modules + panel:
        for name in PROVIDERS[module]:
            _bind(name)
    writer = ArtifactWriter(config.out, stage.writes, config.format)
    try:
        summary = stage.handler(config, writer, _read(command, config))
        writer.commit()
    except BaseException as exc:
        writer.discard_written()
        if isinstance(exc, OSError):
            raise ChainlensError(str(exc)) from exc
        raise
    return summary


def _k_flag(text: str):
    # RunConfig checks k, from a flag or a file, against its one rule
    return int(text) if text.isdecimal() else text


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
        choices=FORMATS,
        help="artifact richness: csv only, +json summaries, +svg figures",
    )

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, row in COMMANDS.items():
        stage = sub.add_parser(name, parents=[common], help=row.help)
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
    except ChainlensError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
