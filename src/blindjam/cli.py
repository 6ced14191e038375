"""Batch command-line interface.

Every experiment is a subcommand that writes a CSV plus a JSON manifest of
the fully resolved configuration. Values come from built-in defaults, then
an optional --config JSON file, then explicit flags (highest priority).
Because the manifest stores the resolved configuration and carries no
wall-clock data, `--config <manifest>` replays a run byte-for-byte.

Output paths default into $BLINDJAM_OUT (or the working directory).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .constellation import fit_dmin_exponent
from .experiments import (
    DEFAULT_SWEEP_MI_SAMPLES,
    DEFAULT_SWEEP_SER_TRIALS,
    compare_schemes,
    fit_dof,
    leakage_slope,
    read_sweep_csv,
    sweep_power,
    sweep_ser,
    write_compare_csv,
    write_dmin_csv,
    write_manifest,
    write_rows,
    write_ser_csv,
    write_sweep_csv,
)
from .schemes import KINDS

__all__ = ["RunConfig", "parse_p_grid", "parse_int_list", "build_parser",
           "entrypoint", "main"]


@dataclass(frozen=True)
class RunConfig:
    """A resolved invocation: the subcommand plus its full parameter map."""

    command: str
    params: dict


def _entry(x, integral: bool = False):
    """One entry of a --config list: JSON true is no number, 3.5 no integer."""
    if isinstance(x, bool) or (integral and isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"list entry {x!r} is not {'an integer' if integral else 'a number'}")
    return x


def parse_p_grid(spec) -> list[float]:
    """Power grid: explicit list "1e2,1e3,1e4" or "start:stop:points-per-decade"."""
    if isinstance(spec, (list, tuple)):
        vals = [float(_entry(x)) for x in spec]
    elif ":" in str(spec):
        parts = str(spec).strip().split(":")
        if len(parts) != 3:
            raise ValueError("grid range must be start:stop:points_per_decade")
        start, stop, ppd = float(parts[0]), float(parts[1]), int(parts[2])
        if not 0 < start <= stop < math.inf or ppd < 1:
            raise ValueError("grid range must satisfy 0 < start <= stop < inf, ppd >= 1")
        n = int(round(math.log10(stop / start) * ppd)) + 1
        vals = [start * 10.0 ** (k / ppd) for k in range(n)]
    else:
        vals = [float(tok) for tok in str(spec).split(",") if tok.strip()]
    if not vals or not all(0 < v < math.inf for v in vals):
        raise ValueError(f"power grid must be nonempty, positive and finite: {spec!r}")
    return vals


def parse_int_list(spec) -> list[int]:
    if isinstance(spec, (list, tuple)):
        return [int(_entry(x, integral=True)) for x in spec]
    vals = [int(tok) for tok in str(spec).split(",") if tok.strip()]
    if not vals:
        raise ValueError("empty integer list")
    return vals


_DEFAULTS: dict[str, dict] = {
    "sweep": dict(kind="Blind", delta=0.05, draws=5, seed=42, workers=1,
                  mi_samples=DEFAULT_SWEEP_MI_SAMPLES, ser_trials=DEFAULT_SWEEP_SER_TRIALS,
                  min_errors=100, include_ser=True),
    "ser": dict(kind="Blind", delta=0.1, draws=10, seed=42, workers=1,
                trials=DEFAULT_SWEEP_SER_TRIALS, min_errors=100),
    "leakage": dict(kind="Blind", delta=0.05, draws=5, seed=42, workers=1,
                    mi_samples=DEFAULT_SWEEP_MI_SAMPLES, exclude_lowest=0),
    "dmin": dict(draws=50, seed=42),
    "compare": dict(delta=0.05, draws=5, seed=42, workers=1,
                    mi_samples=DEFAULT_SWEEP_MI_SAMPLES, exclude_lowest=0),
    "report": dict(exclude_lowest=0),
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "sweep": ("m", "p"),
    "ser": ("m", "p"),
    "leakage": ("m", "p"),
    "dmin": ("m", "q"),
    "compare": ("m", "p"),
    "report": ("input",),
}


# each option's value type: its flag parses to it, and a --config value must
# have it (p and q take a string or a list, and are parsed on their own)
_TYPES = dict(m=int, seed=int, draws=int, workers=int, mi_samples=int, ser_trials=int,
              min_errors=int, trials=int, exclude_lowest=int, delta=float, sigma1=float,
              kind=str, out=str, input=str, config=str, include_ser=bool)
# options whose null means "unset" or "no limit" to the library
_NULLABLE = {"min_errors", "sigma1", "out"}


def _add(sp, *names, **kw):
    kw.setdefault("default", None)
    if "action" not in kw:
        kw["type"] = _TYPES.get(kw.get("dest", names[0].lstrip("-")), str)
    sp.add_argument(*names, **kw)


def _fits(key: str, val) -> bool:
    """Whether a --config value has the type of option ``key``."""
    want = _TYPES.get(key)
    if want is None or val is None:
        return want is None or key in _NULLABLE
    if isinstance(val, bool):  # JSON true is no number
        return want is bool
    return isinstance(val, (int, float) if want is float else want)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindjam",
        description="Simulation experiments for helper-assisted wiretap jamming schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_kind=True, with_workers=True):
        _add(sp, "--config", help="JSON file (e.g. a previous manifest) with parameter defaults")
        _add(sp, "--m", help="helper count")
        _add(sp, "--seed", help="root RNG seed")
        _add(sp, "--draws", help="independent channel draws")
        _add(sp, "--out", help="output CSV path")
        if with_kind:
            _add(sp, "--kind", choices=KINDS)
        if with_workers:
            _add(sp, "--workers", help="worker threads (results identical for any count)")

    sp = sub.add_parser("sweep", help="power sweep: SER and rate bound per (draw, p)")
    common(sp)
    _add(sp, "--delta")
    _add(sp, "--p", help="power grid: list 1e2,1e3,... or start:stop:ppd")
    _add(sp, "--mi-samples", dest="mi_samples")
    _add(sp, "--ser-trials", dest="ser_trials")
    _add(sp, "--min-errors", dest="min_errors")
    _add(sp, "--no-ser", dest="include_ser", action="store_const", const=False,
         help="skip the reliability estimate")

    sp = sub.add_parser("ser", help="reliability-only power sweep")
    common(sp)
    _add(sp, "--delta")
    _add(sp, "--p", help="power grid")
    _add(sp, "--trials")
    _add(sp, "--min-errors", dest="min_errors")
    _add(sp, "--sigma1", help="override legitimate-side noise level")

    sp = sub.add_parser("leakage", help="power sweep and leakage-slope fit")
    common(sp)
    _add(sp, "--delta")
    _add(sp, "--p", help="power grid")
    _add(sp, "--mi-samples", dest="mi_samples")
    _add(sp, "--exclude-lowest", dest="exclude_lowest")

    sp = sub.add_parser("dmin", help="minimum-distance scaling study")
    common(sp, with_kind=False, with_workers=False)
    _add(sp, "--q", help="q grid, e.g. 2,4,8,16,32")

    sp = sub.add_parser("compare", help="rate-bound slopes of all scheme kinds side by side")
    common(sp, with_kind=False)
    _add(sp, "--delta")
    _add(sp, "--p", help="power grid")
    _add(sp, "--mi-samples", dest="mi_samples")
    _add(sp, "--exclude-lowest", dest="exclude_lowest")

    sp = sub.add_parser("report", help="slope summary from an existing sweep CSV")
    _add(sp, "--config", help="JSON file with parameter defaults")
    _add(sp, "--input", help="sweep CSV to analyze")
    _add(sp, "--out", help="summary CSV path (optional)")
    _add(sp, "--exclude-lowest", dest="exclude_lowest")

    return parser


def resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    """defaults <- config file <- explicit flags, then validate requireds."""
    command = args.command
    params = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, not text
            parser.error(f"cannot read --config {config_path}: {exc}")
        if not isinstance(loaded, dict):
            parser.error(f"--config {config_path} must hold one JSON object")
        known = set(params) | set(_REQUIRED[command]) | {"out", "sigma1"}
        for key, val in loaded.items():
            if key not in known:
                continue
            if not _fits(key, val):
                parser.error(f"--config value {key}={val!r} is not of type "
                             f"{_TYPES[key].__name__}")
            params[key] = val
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        params[key] = val
    missing = [k for k in _REQUIRED[command] if params.get(k) is None]
    if missing:
        parser.error(f"missing required option(s) for {command}: "
                     + ", ".join(f"--{k.replace('_', '-')}" for k in missing))
    if params.get("workers", 1) < 1:
        parser.error("--workers must be >= 1")
    if (params.get("min_errors") or 0) < 0:
        parser.error("--min-errors must be >= 0")
    if params.get("exclude_lowest", 0) < 0:
        parser.error("--exclude-lowest must be >= 0")
    try:
        if "p" in params:
            params["p"] = parse_p_grid(params["p"])
        if command == "dmin":
            params["q"] = parse_int_list(params["q"])
    except (ValueError, TypeError) as exc:  # TypeError: a --config list of non-numbers
        parser.error(str(exc))
    if params.get("out") is None and command != "report":
        out_dir = os.environ.get("BLINDJAM_OUT", ".")
        params["out"] = os.path.join(out_dir, f"{command}.csv")
    return RunConfig(command=command, params=params)


def _manifest_path(out: str) -> str:
    stem, _ = os.path.splitext(out)
    return stem + ".manifest.json"


def _rows_path(out: str) -> str:
    return os.path.splitext(out)[0] + "_rows.csv"


def _outputs(command: str, out: str) -> list[str]:
    """Every file ``command`` writes for ``--out``."""
    if command == "report":
        return [out]
    return [out, _manifest_path(out)] + ([_rows_path(out)] if command == "compare" else [])


def _write_manifest(command: str, params: dict) -> None:
    payload = {"command": command}
    payload.update(params)
    write_manifest(_manifest_path(params["out"]), payload)


def cmd_sweep(params: dict) -> int:
    rows = sweep_power(params["kind"], params["m"], params["delta"], params["p"],
                       params["draws"], params["seed"],
                       mi_samples=params["mi_samples"],
                       ser_trials=params["ser_trials"],
                       min_errors=params["min_errors"],
                       include_ser=params["include_ser"],
                       workers=params["workers"])
    write_sweep_csv(rows, params["out"])
    _write_manifest("sweep", params)
    print(f"{len(rows)} rows -> {params['out']}")
    return 0


def cmd_ser(params: dict) -> int:
    rows = sweep_ser(params["kind"], params["m"], params["delta"], params["p"],
                     params["draws"], params["seed"], trials=params["trials"],
                     min_errors=params["min_errors"], workers=params["workers"],
                     sigma1=params.get("sigma1"))
    write_ser_csv(rows, params["out"])
    _write_manifest("ser", params)
    print(f"{len(rows)} rows -> {params['out']}")
    return 0


def cmd_leakage(params: dict) -> int:
    rows = sweep_power(params["kind"], params["m"], params["delta"], params["p"],
                       params["draws"], params["seed"],
                       mi_samples=params["mi_samples"], include_ser=False,
                       workers=params["workers"])
    write_sweep_csv(rows, params["out"])
    _write_manifest("leakage", params)
    fit = leakage_slope(rows, exclude_lowest=params["exclude_lowest"])
    print(f"{len(rows)} rows -> {params['out']}")
    print(f"leakage slope {fit.pooled.slope:.6f} (stderr {fit.pooled.slope_stderr:.6f})")
    return 0


def cmd_dmin(params: dict) -> int:
    study = fit_dmin_exponent(params["m"], params["q"], params["draws"], params["seed"])
    write_dmin_csv(study, params["out"])
    _write_manifest("dmin", params)
    print(f"{len(study.rows)} rows -> {params['out']}")
    print(f"median slope {study.median_slope:.6f}, min slope {study.min_slope:.6f}, "
          f"redraws {study.redraws}")
    return 0


def cmd_compare(params: dict) -> int:
    report = compare_schemes(params["m"], params["delta"], params["p"],
                             params["draws"], params["seed"],
                             mi_samples=params["mi_samples"],
                             exclude_lowest=params["exclude_lowest"],
                             workers=params["workers"])
    write_compare_csv(report, params["out"])
    rows_path = _rows_path(params["out"])
    write_sweep_csv(report.rows, rows_path)
    _write_manifest("compare", params)
    for rec in report.summary():
        print(f"{rec['kind']}: slope {rec['slope']:.6f} (stderr {rec['slope_stderr']:.6f})")
    print(f"summary -> {params['out']}; rows -> {rows_path}")
    return 0


def cmd_report(params: dict) -> int:
    rows = read_sweep_csv(params["input"])
    dof = fit_dof(rows, exclude_lowest=params["exclude_lowest"])
    leak = leakage_slope(rows, exclude_lowest=params["exclude_lowest"])
    print(f"bound slope {dof.pooled.slope:.6f} (stderr {dof.pooled.slope_stderr:.6f})")
    print(f"leakage slope {leak.pooled.slope:.6f} (stderr {leak.pooled.slope_stderr:.6f})")
    out = params.get("out")
    if out:
        write_rows((dict(vars(fit.pooled), column=fit.column,
                         excluded_lowest=fit.excluded_lowest) for fit in (dof, leak)),
                   ["column", "slope", "intercept", "slope_stderr", "n", "excluded_lowest"],
                   out)
        print(f"summary -> {out}")
    return 0


_DISPATCH = {
    "sweep": cmd_sweep,
    "ser": cmd_ser,
    "leakage": cmd_leakage,
    "dmin": cmd_dmin,
    "compare": cmd_compare,
    "report": cmd_report,
}


def entrypoint(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = resolve_config(args, parser)
    try:
        out = cfg.params.get("out")  # checked before the run, not after it
        if out == "" and cfg.command != "report":  # report writes nothing then
            raise OSError("--out names no file")
        out_dir = out and os.path.dirname(os.path.abspath(out))
        if out_dir and not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
            raise OSError(f"output directory {out_dir} does not exist or is not writable")
        for path in _outputs(cfg.command, out) if out else ():
            if os.path.isdir(path):
                raise OSError(f"output path {path} is a directory")
        return _DISPATCH[cfg.command](cfg.params)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(entrypoint())
