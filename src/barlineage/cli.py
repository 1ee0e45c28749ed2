"""Command-line front end.

Subcommands: ``simulate`` (write a synthetic lineage file), ``estimate``
(parameter estimates for one dataset), ``test`` (one asymmetry test,
JSON report), ``batch`` (one test across a directory of datasets, CSV),
and ``mc`` (size/power tables).

Exit codes: 0 success, 1 usage or parse error, 2 statistical
degeneracy (the data were read but a statistic is undefined on them).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bar, gw, mc
from .errors import BarLineageError, DegenerateVariance, ParseError, StatError
from .lineage_io import emit_lineage, ingest, read_text
from .numerics import replica_stream
from .tree import fitted

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2

_TEST_ALIASES = {"gw": "gw_mean", "coeff": "coefficient", "fixed": "fixed_point"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _probs(text: str) -> gw.ReproductionLaw:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("expected 4 comma-separated probabilities")
    return gw.ReproductionLaw(*parts)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _flag(parse):
    """``parse`` as an argparse type: a ValueError's reason becomes the
    usage error, not argparse's ``invalid <function> value``."""
    def flag(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return flag


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="barlineage", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a lineage and write it as CSV")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--law0", type=_flag(_probs), default=mc.P0_LAW,
                   help="type-0 reproduction law p(0,0),p(1,0),p(0,1),p(1,1)")
    p.add_argument("--law1", type=_flag(_probs), default=None,
                   help="type-1 reproduction law (defaults to --law0)")
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--d", type=float, default=0.5)
    p.add_argument("--sigma2", type=float, default=mc.DEFAULT_SIGMA2)
    p.add_argument("--rho", type=float, default=mc.DEFAULT_RHO)
    p.add_argument("--x1", type=float, default=None,
                   help="root trait (defaults to the odd fixed point c/(1-d))")

    p = sub.add_parser("estimate", help="estimate GW and BAR parameters from a file")
    p.add_argument("path")

    p = sub.add_parser("test", help="run one asymmetry test on a file")
    p.add_argument("path")
    p.add_argument("--which", choices=sorted(_TEST_ALIASES), required=True)

    p = sub.add_parser("batch", help="run one test on every lineage file in a directory")
    p.add_argument("directory")
    p.add_argument("--which", choices=sorted(_TEST_ALIASES), required=True)
    p.add_argument("--min-generations", type=int, default=3,
                   help="skip datasets shallower than this many generations")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("mc", help="Monte Carlo size/power table")
    p.add_argument("--table", type=int, choices=(1, 2, 3), default=None,
                   help="preset experiment configuration")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--generations", type=_flag(_ints), default=None)
    p.add_argument("--thresholds", type=_flag(_floats), default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--workers", type=int, default=None,
                   help="replica-parallel workers (default $BARLINEAGE_WORKERS or 1)")
    return top


def _cmd_simulate(args) -> int:
    law1 = args.law1 if args.law1 is not None else args.law0
    gw_model = gw.GwModel(args.law0, law1)
    bar_model = bar.BarModel(args.a, args.b, args.c, args.d, args.sigma2, args.rho)
    x1 = args.x1 if args.x1 is not None else bar_model.fixed_point_odd
    rng = replica_stream(args.seed)
    tree = gw.simulate_observation_tree(gw_model, args.depth, rng)
    values = bar.simulate_bar_values(bar_model, args.depth, x1, rng)
    params = {
        "depth": args.depth,
        "seed": args.seed,
        "law0": ",".join(f"{v:g}" for v in args.law0.as_array()),
        "law1": ",".join(f"{v:g}" for v in law1.as_array()),
        "a": args.a, "b": args.b, "c": args.c, "d": args.d,
        "sigma2": args.sigma2, "rho": args.rho, "x1": f"{x1:.17g}",
    }
    Path(args.out).write_text(emit_lineage(tree, values, params), encoding="utf-8")
    return EXIT_OK


def _error_json(exc: StatError) -> dict:
    return {"error": type(exc).__name__, "detail": str(exc)}


def _gw_block(tree, values) -> dict:
    rep = gw.estimate_reproduction(tree)
    return {
        "phat": rep.phat.tolist(),
        "mother_counts": list(rep.mother_counts),
        "zhat": list(rep.zhat),
    }


def _bar_block(tree, values) -> dict:
    est = bar.estimate_bar(values, tree)
    if not np.isfinite([*est.theta, est.sigma2_hat, est.rho_hat, *est.cov.flat]).all():
        raise DegenerateVariance("the BAR estimates are not all finite")
    return {**est.rows().parameters(0), "cov": est.cov.tolist(), "warnings": list(est.warnings)}


def _cmd_estimate(args) -> int:
    """Print every block that is defined on the data; an undefined one
    becomes an error object, and the exit code is then EXIT_DEGENERATE."""
    tree, values = ingest(args.path)
    out = {"depth": tree.depth, "n_observed": tree.observed_indices().size}
    code = EXIT_OK
    for key, block in (("gw", _gw_block), ("bar", _bar_block)):
        try:
            out[key] = block(tree, values)
        except StatError as exc:
            out[key] = _error_json(exc)
            code = EXIT_DEGENERATE
    print(json.dumps(out, indent=2, allow_nan=False))
    return code


def _cmd_test(args) -> int:
    tree, values = ingest(args.path)
    try:
        report = mc.run_test(_TEST_ALIASES[args.which], tree, values)
    except StatError as exc:
        print(json.dumps(_error_json(exc)))
        return EXIT_DEGENERATE
    print(json.dumps(report.to_json_dict(), indent=2, allow_nan=False))
    return EXIT_OK


def _write_out(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with its quotes doubled, only when
    it holds a comma, a quote or a line break (RFC 4180)."""
    if not any(c in text for c in ',"\r\n'):
        return text
    return '"' + text.replace('"', '""') + '"'


def _cmd_batch(args) -> int:
    """Read every file as it comes; fit the usable ones together, in stacks
    (``tree.fitted``), and report each file in order after its fit."""
    name = _TEST_ALIASES[args.which]
    directory = Path(args.directory)
    if not directory.is_dir():
        raise BarLineageError(f"{directory}: not a directory")

    def lineages():  # ((path, why it is not fitted), tree, values)
        for path in sorted(directory.glob("*.csv")):
            try:
                tree, values = ingest(path)
            except (BarLineageError, OSError) as exc:
                yield (path, str(exc)), None, None
                continue
            if tree.depth < args.min_generations:
                yield (path, f"skipped, depth {tree.depth} < --min-generations "
                             f"{args.min_generations}"), None, None
            else:
                yield (path, None), tree, values

    lines = ["file,test,p_value"]
    for (path, note), row in fitted(lambda forest: mc.run_test(name, forest), lineages()):
        if row is not None:  # a fitted file: a p-value, or nan and its StatError
            note = str(row) if isinstance(row, StatError) else None
            p_value = "nan" if note else f"{row.p_value:.17g}"
            lines.append(f"{_csv_field(path.name)},{name},{p_value}")
        if note:  # one line, whatever the name holds: what does not print is escaped
            print("".join(c if c.isprintable() else repr(c)[1:-1] for c in f"{path}: {note}"),
                  file=sys.stderr)
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# mc --config keys, each with the parser of its value; the law pairs
# become the McConfig fields gw_null and gw_alt
_CONFIG_KEYS = {
    "which_test": str,
    "gw_null_law0": _probs, "gw_null_law1": _probs,
    "gw_alt_law0": _probs, "gw_alt_law1": _probs,
    "bar_null": lambda text: bar.BarModel(*_floats(text)),
    "bar_alt": lambda text: bar.BarModel(*_floats(text)),
    "generations": _ints, "replicas": int, "thresholds": _floats, "master_seed": int,
}


def _config_from_file(path: str) -> dict:
    """McConfig fields from a flat key=value file (laws/models as comma lists)."""
    try:
        text = read_text(path)
    except ParseError as exc:
        raise BarLineageError(f"{path}:{exc.line_no}: {exc.detail}") from None
    fields, line_of = {}, {}
    for line_no, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise BarLineageError(f"{path}:{line_no}: expected key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise BarLineageError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            fields[key] = _CONFIG_KEYS[key](val)
        except (ValueError, TypeError) as exc:
            raise BarLineageError(f"{path}:{line_no}: {key}: {exc}") from None
        try:
            mc.check_field(key, fields[key])
        except ValueError as exc:  # it names the key
            raise BarLineageError(f"{path}:{line_no}: {exc}") from None
        line_of[key] = line_no
    for side in ("null", "alt"):
        k0, k1 = f"gw_{side}_law0", f"gw_{side}_law1"
        if k0 in fields:
            law0 = fields.pop(k0)
            fields[f"gw_{side}"] = gw.GwModel(law0, fields.pop(k1, law0))
        elif k1 in fields:
            raise BarLineageError(f"{path}:{line_of[k1]}: {k1}: given without {k0}")
    return fields


def _build_mc_config(args) -> mc.McConfig:
    """Preset (without --table, the null-only GW-mean test), then the
    config file, then the flags."""
    fields = {} if args.table else {"gw_alt": None}
    if args.config:
        fields.update(_config_from_file(args.config))
    flags = {"replicas": args.replicas, "master_seed": args.seed,
             "generations": args.generations, "thresholds": args.thresholds}
    fields.update({k: v for k, v in flags.items() if v is not None})
    return mc.table_config(args.table or 1, **fields)


def _cmd_mc(args) -> int:
    config = _build_mc_config(args)
    table = mc.run_table(config, workers=args.workers)
    _write_out(mc.emit_table(table, args.format), args.out)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "test": _cmd_test,
    "batch": _cmd_batch,
    "mc": _cmd_mc,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a non-finite value ends in a named StatError; numpy's warnings would repeat it
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except StatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (BarLineageError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
