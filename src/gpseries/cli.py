"""Command-line interface.

Subcommands::

    gpseries monomialize FILE     one series -> monomialisation tree
    gpseries divide FILE          several series -> shared division chain
    gpseries parametrize FILE     basic set -> quadrant parametrisation

The input file starts with a header line ``vars x:<m> y:<n>`` followed by
';'-terminated statements (series expressions, or sign conditions joined by
'&' and '|' for ``parametrize``).  ``-`` reads from stdin.

Exit codes: 0 success; 1 malformed input, flag or configuration; 2 truncation
precision exhausted before the tree could be certified; 3 depth or
principalization cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .geometry import parametrize_basic, sample_piece
from .monomialize import (
    CapExceeded,
    EngineOptions,
    PrecisionExhausted,
    division_chain,
    monomialize,
)
from .parser import ParseError, parse_basic_set, parse_file, parse_series
from .series import SeriesError
from .trees import palette_from_spec

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_PRECISION = 2
EXIT_CAP = 3


class ConfigError(ValueError):
    pass


# One row per option that a config file or a flag may set: config key,
# default text, argparse attribute, the parser of the merged text, and the
# flag's help (its default is appended).  The engine's options give their own
# defaults.  The palette has no parser here: it is read once the numeric
# options are checked.
_ENGINE = EngineOptions()
_OPTIONS = (
    ("precision", "8", "precision", Fraction, "truncation order (rational)"),
    ("lambda", ",".join(map(str, _ENGINE.palette.positive)), "lam", None,
     "comma-separated positive chart parameters"),
    ("max-depth", str(_ENGINE.max_depth), "max_depth", int, "tree depth cap"),
    ("princ-cap", str(_ENGINE.princ_cap), "princ_cap", int,
     "principalization step cap"),
    ("samples", "100", "samples", int, "sample count (parametrize)"),
    ("seed", "0", "seed", int, "sampling seed"),
    ("threads", "1", "threads", int,
     "parallelism hint; accepted for compatibility, output is identical for any value"),
)
_CONFIG_KEYS = {row[0] for row in _OPTIONS}


def read_config(path: str) -> dict:
    """key=value per line; '#' starts a comment."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return values


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as ``ConfigError``: a bad flag exits 1 like a bad
    config value, not with argparse's 2, which here means precision exhausted."""

    def error(self, message):
        raise ConfigError(message)


def build_argparser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="gpseries", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("monomialize", "monomialise one series"),
        ("divide", "joint division chain for several series"),
        ("parametrize", "quadrant parametrisation of a basic set"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("input", help="input file, or '-' for stdin")
        p.add_argument("--config", help="key=value option file (flags override)")
        for key, default, attr, _, helptext in _OPTIONS:
            helptext = f"{helptext} (default {default})"
            p.add_argument(f"--{key}", dest=attr, help=helptext)
        p.add_argument("--json", action="store_true", help="emit JSON")
    return ap


def _merge_options(args) -> dict:
    merged = {key: default for key, default, _, _, _ in _OPTIONS}
    if args.config:
        merged.update(read_config(args.config))
    for key, _, attr, _, _ in _OPTIONS:
        v = getattr(args, attr, None)
        if v is not None:
            merged[key] = v
    try:
        for key, _, _, parse, _ in _OPTIONS:
            if parse is not None:
                merged[key] = parse(merged[key])
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad option value: {exc}") from exc
    if merged["precision"] <= 0:
        raise ConfigError("precision must be positive")
    if merged["threads"] < 1:
        raise ConfigError("threads must be >= 1")
    for key in ("max-depth", "princ-cap", "samples"):
        if merged[key] < 0:
            raise ConfigError(f"{key} must be >= 0")
    try:
        merged["lambda"] = palette_from_spec(merged["lambda"])
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc
    return merged


def _engine_options(merged) -> EngineOptions:
    return EngineOptions(
        palette=merged["lambda"],
        max_depth=merged["max-depth"],
        princ_cap=merged["princ-cap"],
    )


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        sys.stdout.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        )
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _cmd_monomialize(args, merged) -> int:
    sig, statements = parse_file(_read_input(args.input))
    if len(statements) != 1:
        raise ParseError(f"expected one series statement, got {len(statements)}", 0)
    f = parse_series(statements[0], sig, merged["precision"])
    report = monomialize(f, _engine_options(merged))
    payload = report.to_json()
    leaves = payload["leaves"]
    lines = [
        f"input: {payload['input']}",
        f"leaves: {len(leaves)}  height: {payload['stats']['height']}",
    ]
    for rec in leaves:
        if rec["kind"] == "normal":
            mono = rec["monomial"]
            lines.append(
                f"  normal  sig={tuple(rec['sig'])}  x^{mono['x']} y^{mono['y']}"
                f"  unit {rec['unit'][:60]}"
            )
        else:
            lines.append(f"  {rec['kind']}  sig={tuple(rec['sig'])}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_divide(args, merged) -> int:
    sig, statements = parse_file(_read_input(args.input))
    if not statements:
        raise ParseError("expected at least one series statement", 0)
    inputs = [parse_series(s, sig, merged["precision"]) for s in statements]
    result = division_chain(inputs, _engine_options(merged))
    payload = {
        "inputs": list(statements),
        "sig": list(sig),
        "precision": str(merged["precision"]),
        "leaves": result.leaves,
    }
    lines = [f"inputs: {len(inputs)}", f"leaves: {len(result.leaves)}"]
    for leaf in result.leaves:
        mons = [
            f"x^{f['monomial']['x']} y^{f['monomial']['y']}"
            if f["kind"] == "normal"
            else "0"
            for f in leaf["factors"]
        ]
        lines.append(f"  sig={tuple(leaf['sig'])}  " + "  |  ".join(mons))
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_parametrize(args, merged) -> int:
    sig, statements = parse_file(_read_input(args.input))
    if len(statements) != 1:
        raise ParseError(f"expected one set description, got {len(statements)}", 0)
    bset = parse_basic_set(statements[0], sig, merged["precision"])
    param = parametrize_basic(bset, _engine_options(merged))
    rng = random.Random(merged["seed"])
    samples = []
    for k, piece in enumerate(param.pieces):
        for _ in range(merged["samples"] // max(1, len(param.pieces))):
            pt = sample_piece(piece, rng, 0.01)
            samples.append({"piece": k, "point": [repr(float(v)) for v in pt]})
    payload = {
        "sig": list(sig),
        "precision": str(merged["precision"]),
        "pieces": [p.to_json() for p in param.pieces],
        "samples": samples,
    }
    lines = [f"pieces: {len(param.pieces)}"]
    for p in param.pieces:
        lines.append(
            f"  zero_x={list(p.zero_x)} zero_y={list(p.zero_y)} "
            f"chain={len(p.chain)} quadrant x:{list(p.quadrant.x)} y:{list(p.quadrant.y)}"
        )
    _emit(payload, args.json, lines)
    return EXIT_OK


_COMMANDS = {
    "monomialize": _cmd_monomialize,
    "divide": _cmd_divide,
    "parametrize": _cmd_parametrize,
}


def main(argv=None) -> int:
    try:
        args = build_argparser().parse_args(argv)
        merged = _merge_options(args)
        return _COMMANDS[args.command](args, merged)
    except PrecisionExhausted as exc:
        sys.stderr.write(f"precision exhausted: {exc}\n")
        return EXIT_PRECISION
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except (ConfigError, ParseError, OSError, SeriesError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
