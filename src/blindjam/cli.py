"""Batch command-line interface.

Every experiment is a subcommand that writes a CSV plus a JSON manifest of
the fully resolved configuration. One table, ``_COMMANDS``, lists each
command's options and their defaults; the parser, the required-option
check, the keys a --config file may set and the manifest's starting values
all come from it. Values come from those defaults, then an optional
--config JSON file (a key the command does not take is ignored, and not
recorded), then explicit flags (highest priority). Each option but ``out``
is a parameter of the same name of the study function its command runs, so
a runner passes them through. Because the manifest stores the resolved
configuration and carries no wall-clock data, `--config <manifest>` replays
a run byte-for-byte.

Output paths default into $BLINDJAM_OUT (or the working directory).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

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
    write_manifest,
    write_rows,
)
from .schemes import KINDS

__all__ = ["parse_p_grid", "parse_int_list", "build_parser", "entrypoint", "main"]


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
        # floored, so that no point exceeds stop; the tolerance keeps a decade-aligned stop
        n = math.floor(math.log10(stop / start) * ppd * (1 + 1e-9)) + 1
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


def _beside(out: str, suffix: str) -> str:
    """The file beside ``out``: its stem and ``suffix``."""
    return os.path.splitext(out)[0] + suffix


def _outputs(command: str, out: str) -> list[str]:
    """Every file ``command`` writes for ``--out``."""
    if command == "report":
        return [out]
    return [out, _beside(out, ".manifest.json")] + (
        [_beside(out, "_rows.csv")] if command == "compare" else [])


def _write(rows, out: str) -> None:
    write_rows(rows, out)
    print(f"{len(rows)} rows -> {out}")


def cmd_sweep(out: str, **options) -> None:
    """Power sweep: SER and rate bound per (draw, p)."""
    _write(sweep_power(**options), out)


def cmd_ser(out: str, **options) -> None:
    """Reliability-only power sweep: the legitimate receiver's block SER."""
    _write(sweep_ser(**options), out)


def cmd_eve(out: str, **options) -> None:
    """The eavesdropper's jamming-symbol error rate when it knows the messages."""
    _write(sweep_ser(kind="Blind", min_errors=100, receiver="eve", **options), out)


def cmd_dmin(out: str, **options) -> None:
    """Minimum-distance scaling study."""
    study = fit_dmin_exponent(**options)
    _write(study.rows, out)
    print(f"median slope {study.median_slope:.6f}, min slope {study.min_slope:.6f}, "
          f"redraws {study.redraws}")


def cmd_compare(out: str, **options) -> None:
    """Rate-bound slopes of all scheme kinds side by side."""
    report = compare_schemes(**options)
    write_rows(report.summary(), out)
    rows_path = _beside(out, "_rows.csv")
    write_rows(report.rows, rows_path)
    for rec in report.summary():
        print(f"{rec['kind']}: slope {rec['slope']:.6f} (stderr {rec['slope_stderr']:.6f})")
    print(f"summary -> {out}; rows -> {rows_path}")


def cmd_report(input: str, exclude_lowest: int, out: str | None = None) -> None:
    """Bound and leakage slopes of each (kind, m, delta) series of a sweep CSV."""
    rows = read_sweep_csv(input)
    if not rows:
        raise ValueError(f"{input} holds no rows to fit")
    fits = []  # every series is fitted before anything is printed or written
    for key in sorted({(row.kind, row.m, row.delta) for row in rows}):
        series = [row for row in rows if (row.kind, row.m, row.delta) == key]
        tag = "{} m={} delta={:g}: ".format(*key)
        try:
            fits += [(key, tag, fit(series, exclude_lowest))
                     for fit in (fit_dof, leakage_slope)]
        except ValueError as exc:
            raise ValueError(tag + str(exc)) from None
    for _, tag, fit in fits:
        name = "bound" if fit.column == "bound" else "leakage"
        print(f"{tag}{name} slope {fit.pooled.slope:.6f} (stderr {fit.pooled.slope_stderr:.6f})")
    if out:
        write_rows([dict(column=fit.column, **vars(fit.pooled), excluded_lowest=fit.excluded_lowest,
                         kind=kind, m=m, delta=delta) for (kind, m, delta), _, fit in fits], out)
        print(f"summary -> {out}")


# every option once: its value type, which its flag parses to and a --config
# value must have (p and q take a string or a list and are parsed on their
# own), and its help text
_OPTIONS: dict[str, tuple[type | None, str]] = {
    "m": (int, "helper count"),
    "p": (None, "power grid: list 1e2,1e3,... or start:stop:points-per-decade"),
    "q": (None, "q grid, e.g. 2,4,8,16,32"),
    "input": (str, "sweep CSV to analyze"),
    "kind": (str, "scheme kind"),
    "delta": (float, "margin delta of the power schedule, in (0, 0.5)"),
    "draws": (int, "independent channel draws"),
    "seed": (int, "root RNG seed"),
    "workers": (int, "worker threads (results identical for any count)"),
    "mi_samples": (int, "Monte Carlo samples per entropy estimate"),
    "ser_trials": (int, "most SER trials per cell"),
    "trials": (int, "most error-count trials per cell"),
    "min_errors": (int, "stop a cell's SER count at this many errors"),
    "include_ser": (bool, "skip the reliability estimate"),  # the flag --no-ser
    "sigma1": (float, "override legitimate-side noise level"),
    "exclude_lowest": (int, "lowest powers per draw left out of slope fits"),
    "out": (str, "output CSV path (report: optional summary CSV)"),
}
_CHOICES = {"kind": KINDS}
# options whose null means "unset" or "no limit" to the library
_NULLABLE = {"min_errors", "sigma1", "out"}

# each command: its runner (whose docstring is its help), then its options
# and their defaults. A default of None marks a required option, unless the
# option is in _NULLABLE; the manifest starts from the defaults not None.
_COMMANDS: dict[str, tuple] = {
    "sweep": (cmd_sweep, dict(
        m=None, p=None, kind="Blind", delta=0.05, draws=5, seed=42, workers=1,
        mi_samples=DEFAULT_SWEEP_MI_SAMPLES, ser_trials=DEFAULT_SWEEP_SER_TRIALS,
        min_errors=100, include_ser=True, out=None)),
    "ser": (cmd_ser, dict(
        m=None, p=None, kind="Blind", delta=0.1, draws=10, seed=42, workers=1,
        trials=DEFAULT_SWEEP_SER_TRIALS, min_errors=100, sigma1=None, out=None)),
    "eve": (cmd_eve, dict(
        m=None, p=None, delta=0.1, draws=10, seed=42, workers=1,
        trials=DEFAULT_SWEEP_SER_TRIALS, out=None)),
    "dmin": (cmd_dmin, dict(m=None, q=None, draws=50, seed=42, out=None)),
    "compare": (cmd_compare, dict(
        m=None, p=None, delta=0.05, draws=5, seed=42, workers=1,
        mi_samples=DEFAULT_SWEEP_MI_SAMPLES, exclude_lowest=0, out=None)),
    "report": (cmd_report, dict(input=None, exclude_lowest=0, out=None)),
}


def _flag(name: str) -> str:
    return "--no-ser" if name == "include_ser" else "--" + name.replace("_", "-")


def _misfit(key: str, val) -> str | None:
    """Why a --config value cannot be option ``key``'s, or None when it can."""
    want = _OPTIONS[key][0]
    if key in _CHOICES:
        return None if val in _CHOICES[key] else f"is not one of {', '.join(_CHOICES[key])}"
    if want is None or (val is None and key in _NULLABLE):
        return None
    # JSON true is no number, and a number no bool
    if isinstance(val, bool) != (want is bool) or not isinstance(
            val, (int, float) if want is float else want):
        return f"is not of type {want.__name__}"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindjam",
        description="Simulation experiments for helper-assisted wiretap jamming schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=run.__doc__)
        sp.set_defaults(command_parser=sp)  # refusals print the command's usage
        sp.add_argument("--config", help="JSON file (e.g. a previous manifest) with "
                        "parameter defaults")
        for name in options:
            want, text = _OPTIONS[name]
            kw = (dict(action="store_const", const=False) if want is bool
                  else dict(type=want, choices=_CHOICES.get(name)))
            sp.add_argument(_flag(name), dest=name, help=text, **kw)
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """The parameters of ``args.command``: defaults <- config file <- explicit
    flags, then validated; a refusal exits 2 with the command's usage."""
    command, parser = args.command, args.command_parser
    options = _COMMANDS[command][1]
    params = {k: v for k, v in options.items() if v is not None}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, not text
            parser.error(f"cannot read --config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            parser.error(f"--config {args.config} must hold one JSON object")
        for key, val in loaded.items():
            if key in options:  # other keys are ignored, and not recorded
                why = _misfit(key, val)
                if why:
                    parser.error(f"--config value {key}={val!r} {why}")
                params[key] = val
    for key, val in vars(args).items():
        if key in options and val is not None:
            params[key] = val
    missing = [k for k, v in options.items()
               if v is None and k not in _NULLABLE and params.get(k) is None]
    if missing:
        parser.error(f"missing required option(s) for {command}: "
                     + ", ".join(map(_flag, missing)))
    for key, low in (("m", 1), ("seed", 0), ("draws", 1), ("workers", 1), ("trials", 1),
                     ("mi_samples", 2), ("min_errors", 0), ("exclude_lowest", 0)):
        if params.get(key) is not None and params[key] < low:
            parser.error(f"{_flag(key)} must be >= {low}")
    if params.get("include_ser") and params["ser_trials"] < 1:  # --no-ser reads no trials
        parser.error("--ser-trials must be >= 1")
    if "delta" in params and not 0 < params["delta"] < 0.5:
        parser.error("--delta must lie in (0, 0.5)")
    try:
        if "p" in params:
            params["p"] = parse_p_grid(params["p"])
        if "q" in params:
            params["q"] = parse_int_list(params["q"])
    except (ValueError, TypeError) as exc:  # TypeError: a --config list of non-numbers
        parser.error(str(exc))
    # a slope needs 3 powers: refused before the sweep, not after it
    if command == "compare" and len(params["p"]) - params["exclude_lowest"] < 3:
        parser.error(f"--exclude-lowest {params['exclude_lowest']} leaves fewer than 3 of "
                     f"the {len(params['p'])} --p powers to fit")
    if params.get("out") is None and command != "report":
        out_dir = os.environ.get("BLINDJAM_OUT", ".")
        params["out"] = os.path.join(out_dir, f"{command}.csv")
    return params


def entrypoint(argv=None) -> int:
    args = build_parser().parse_args(argv)
    params = resolve_config(args)
    try:
        out = params.get("out")  # checked before the run, not after it
        if out == "" and args.command != "report":  # report writes nothing then
            raise OSError("--out names no file")
        out_dir = out and os.path.dirname(os.path.abspath(out))
        if out_dir and not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
            raise OSError(f"output directory {out_dir} does not exist or is not writable")
        for path in _outputs(args.command, out) if out else ():
            if os.path.isdir(path):
                raise OSError(f"output path {path} is a directory")
        _COMMANDS[args.command][0](**params)
        if args.command != "report":  # after the run: a failed one leaves no manifest
            write_manifest(_beside(out, ".manifest.json"), {"command": args.command, **params})
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(entrypoint())
