"""Command-line experiment harness.

Subcommands: ``bounds``, ``error-sweep``, ``metatrain``, ``cost``. Every run
resolves its configuration from built-in defaults, an optional flat
``key=value`` config file (``--config``), and flag overrides, in that order;
unknown config keys are rejected, and the resolved configuration is echoed to
``<out>/resolved_config.txt``. CSV files are the interchange format of
record; SVGs are derived views.

``main(argv)`` may be called any number of times in one process: the parser is
built on the first call and reused, and no flag or value carries over from one
call to the next. Each output file is truncated and rewritten, so a rerun into
the same ``--out`` leaves the bytes a fresh directory would get.

Exit codes: 0 on success, 1 on a constraint error, 2 on numerical divergence.
A failed run's stderr is one ``metagrad:`` line; numpy's warnings are silenced.
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .adaptation import DivergenceError, from_hessian_sequence
from .bounds import BoundInputs, bound_sweep, sweep_csv
from .csvtable import csv_text
from .estimators import (
    EstimatorConfig,
    binom_meta_gradient,
    fo_meta_gradient,
    full_meta_gradient,
    trunc_meta_gradient,
)
from .linalg import CGBreakdownError
from .metatrain import (
    MetaTrainConfig,
    averaged_csv,
    per_batch_csv,
    run_error_experiment,
    run_metatrain,
    train_csv,
)
from .objectives import sharpness_sequence
from .svgchart import line_chart

# the task keys error-sweep and metatrain share, each mapped onto MetaTrainConfig by _task_config
TASK_SCHEMA = {
    "family": ("str", "quadratic"),
    "K": ("int", 5),
    "alpha": ("float", None),  # None means the family default (see _finalize)
    "H": ("float", 1.0),
    "batch": ("int", 10),
    "shots": ("int", 10),
    "d": ("int", 6),
    "rescale_alpha": ("bool", False),
    "seed": ("int", 0),
}

# key -> (type tag, default) per subcommand; config files and flags may only
# touch these keys
SCHEMAS = {
    "bounds": {
        "theorem": ("str", "all"),
        "K": ("int", 5),
        "alpha": ("float", 0.25),
        "H": ("float", 1.0),
        "h": ("float", 0.1),
        "M": ("int", 1),
        "g_norm": ("float", 1.0),
    },
    "error-sweep": {**TASK_SCHEMA, "batches": ("int", 100)},
    "metatrain": {
        **TASK_SCHEMA,
        "estimator": ("str", "full"),
        "L": ("int", 0),
        "C": ("int", -1),  # -1 means "use K"
        "lambda": ("float", None),  # None means the family default (see _finalize)
        "beta": ("float", None),
        "iters": ("int", -1),  # -1 means the family default (see _finalize)
        "eps": ("float", 1.0),
        "track_errors": ("bool", False),
    },
    "cost": {"K": ("int", 5)},
}

_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": lambda s: {"true": True, "1": True, "false": False, "0": False}[s.lower()],
}


class _Parser(argparse.ArgumentParser):
    # constraint errors (including bad flags) exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first main() call; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metagrad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in SCHEMAS:
        p = sub.add_parser(command)  # subparsers inherit _Parser, so bad flags also exit 1
        p.add_argument("--config", type=str, default=None, help="flat key=value config file")
        p.add_argument("--out", type=str, default="out", help="output directory")
        for key, (kind, _) in SCHEMAS[command].items():
            flag = "--" + key.replace("_", "-")
            if kind == "bool":
                p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction, default=None)
            else:
                p.add_argument(flag, dest=key, type=_PARSERS[kind], default=None)
    return parser


def _parse_config_file(path: str, schema) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in schema:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; valid keys: {sorted(schema)}")
        try:
            values[key] = _PARSERS[schema[key][0]](value)
        except (ValueError, KeyError):
            raise ValueError(f"{path}:{lineno}: cannot parse {key}={value!r} as {schema[key][0]}")
    return values


# Protocol defaults of the keys left unset. The sine regressor's curvature is
# about 1e2: a small inner step keeps alpha*H below 1, a large lambda keeps
# I + H/lambda positive definite for CG.
FAMILY_DEFAULTS = {
    "sinusoid": {"iters": 10_000, "alpha": 1e-3, "beta": 2e-3, "lambda": 100.0},
    "other": {"iters": 1000, "alpha": 0.25, "beta": 1e-3, "lambda": 1.0},
}


def _finalize(command: str, cfg: dict):
    if command == "metatrain" and cfg["iters"] == 0:
        raise ValueError("iters must be >= 1, or negative for the family default")
    if command == "metatrain" and cfg["iters"] < 0:
        cfg["iters"] = None
    defaults = FAMILY_DEFAULTS["sinusoid" if cfg.get("family") == "sinusoid" else "other"]
    for key in [key for key, value in cfg.items() if value is None]:
        cfg[key] = defaults[key]


def resolve_config(args) -> dict:
    schema = SCHEMAS[args.command]
    resolved = {key: default for key, (_, default) in schema.items()}
    if args.config:
        resolved.update(_parse_config_file(args.config, schema))
    for key in schema:
        override = getattr(args, key)
        if override is not None:
            resolved[key] = override
    _finalize(args.command, resolved)
    return resolved


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write(out_dir: Path, name: str, text: str):
    (out_dir / name).write_text(text)


def _echo_config(out_dir: Path, command: str, cfg: dict):
    lines = [f"command={command}"] + [f"{k}={_format_value(cfg[k])}" for k in sorted(cfg)]
    _write(out_dir, "resolved_config.txt", "\n".join(lines) + "\n")


def run_bounds(cfg: dict, out_dir: Path):
    try:
        theorems = (2, 3, 4) if cfg["theorem"] == "all" else (int(cfg["theorem"]),)
    except ValueError:  # a number outside 2..4 is bound_sweep's to reject
        raise ValueError(f"theorem must be all, 2, 3 or 4, got {cfg['theorem']!r}") from None
    bi = BoundInputs(K=cfg["K"], L=0, alpha=cfg["alpha"], H=cfg["H"], h=cfg["h"], M=cfg["M"], g_norm=cfg["g_norm"])
    sweeps = {theorem: bound_sweep(theorem, bi) for theorem in theorems}  # every regime checked before a write
    for theorem, rows in sweeps.items():
        ls = [r.L for r in rows]
        svg = line_chart(
            [
                ("first-order", ls, [1.0] * len(ls)),
                ("truncated", ls, [r.ratio_tr for r in rows]),
                ("binomial", ls, [r.ratio_bin for r in rows]),
            ],
            title=f"Error bounds, regime {theorem} (normalized to first-order)",
            xlabel="truncation L",
            ylabel="bound / first-order bound",
        )
        _write(out_dir, f"bounds_theorem{theorem}.svg", svg)
    _write(out_dir, "bounds.csv", sweep_csv([r for rows in sweeps.values() for r in rows]))


def _task_config(cfg: dict, estimator: dict, **fields) -> MetaTrainConfig:
    """The MetaTrainConfig of cfg's TASK_SCHEMA keys, the EstimatorConfig fields
    ``estimator`` and the runner's other MetaTrainConfig ``fields``."""
    return MetaTrainConfig(
        estimator=EstimatorConfig(rescale_alpha=cfg["rescale_alpha"], **estimator),
        family=cfg["family"], K=cfg["K"], alpha=cfg["alpha"], hmax=cfg["H"], meta_batch=cfg["batch"],
        shots=cfg["shots"], dim=cfg["d"], seed=cfg["seed"], **fields,
    )


def run_error_sweep(cfg: dict, out_dir: Path):
    mt = _task_config(cfg, dict(kind="binom"))
    per_batch, averaged = run_error_experiment(mt, cfg["batches"])
    _write(out_dir, "errors_per_batch.csv", per_batch_csv(per_batch))
    _write(out_dir, "errors_averaged.csv", averaged_csv(averaged))

    focus = max(1, cfg["K"] - 1)
    rows_focus = [r for r in per_batch if r.L == focus]
    svg_a = line_chart(
        [
            ("truncated", [r.batch for r in rows_focus], [r.err_tr for r in rows_focus]),
            ("binomial", [r.batch for r in rows_focus], [r.err_bin for r in rows_focus]),
        ],
        title=f"Meta-gradient error per batch (L={focus}, {cfg['family']})",
        xlabel="batch",
        ylabel="mean error",
        log_y=True,
    )
    _write(out_dir, "error_vs_batch.svg", svg_a)
    svg_b = line_chart(
        [
            ("first-order", [r.L for r in averaged], [r.err_fo for r in averaged]),
            ("truncated", [r.L for r in averaged], [r.err_tr for r in averaged]),
            ("binomial", [r.L for r in averaged], [r.err_bin for r in averaged]),
        ],
        title=f"Mean meta-gradient error across L ({cfg['family']})",
        xlabel="truncation L",
        ylabel="mean error",
        log_y=True,
    )
    _write(out_dir, "error_vs_L.svg", svg_b)


def run_metatrain_cmd(cfg: dict, out_dir: Path):
    est = dict(kind=cfg["estimator"], L=cfg["L"], C=None if cfg["C"] < 0 else cfg["C"],
               imaml_lambda=cfg["lambda"], reptile_eps=cfg["eps"])
    mt = _task_config(cfg, est, beta=cfg["beta"], iterations=cfg["iters"], track_errors=cfg["track_errors"])
    records, _ = run_metatrain(mt)
    _write(out_dir, "train.csv", train_csv(records))
    svg = line_chart(
        [(cfg["estimator"], [r.iteration for r in records], [r.meta_loss for r in records])],
        title=f"Meta-training loss ({cfg['estimator']}, {cfg['family']})",
        xlabel="meta-iteration",
        ylabel="meta loss",
    )
    _write(out_dir, "loss_curve.svg", svg)


def run_cost(cfg: dict, out_dir: Path):
    # measure counters on a real run over a small prescribed-curvature path; they count
    # vectors and stage calls, so the path's dimension and step size change no count
    K = cfg["K"]
    seq = sharpness_sequence("theorem3-pos", K, 0, 0.5, 2)
    traj = from_hessian_sequence(seq, 0.25)
    g = seq.g
    runs = [("fo", 0, fo_meta_gradient(g)), ("full", K, full_meta_gradient(traj, g))]
    runs += [("trunc", L, trunc_meta_gradient(traj, g, L)) for L in range(K + 1)]
    runs += [("binom", L, binom_meta_gradient(traj, g, L)) for L in range(K + 1)]
    rows = [
        (name, K, L, mg.cost.hvp_total, mg.cost.sequential_depth, mg.cost.peak_live_vectors)
        for name, L, mg in runs
    ]
    header = "estimator,K,L,hvp_total,sequential_depth,peak_live_vectors"
    _write(out_dir, "cost.csv", csv_text(header, rows))


RUNNERS = {
    "bounds": run_bounds,
    "error-sweep": run_error_sweep,
    "metatrain": run_metatrain_cmd,
    "cost": run_cost,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo_config(out_dir, args.command, cfg)
        with np.errstate(all="ignore"):  # every NaN/Inf raises through an explicit check
            RUNNERS[args.command](cfg, out_dir)
    except (DivergenceError, CGBreakdownError) as exc:
        print(f"metagrad: numerical divergence: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"metagrad: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
