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
import dataclasses
import json
import sys
from pathlib import Path

from . import bar, gw, mc
from .errors import BarLineageError, StatError
from .lineage_io import emit_lineage, ingest
from .numerics import replica_stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2

_TEST_ALIASES = {"gw": "gw_mean", "coeff": "coefficient", "fixed": "fixed_point"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _probs(text: str) -> gw.ReproductionLaw:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected 4 comma-separated probabilities")
    return gw.ReproductionLaw(*parts)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="barlineage", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a lineage and write it as CSV")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--law0", type=_probs, default=mc.P0_LAW,
                   help="type-0 reproduction law p(0,0),p(1,0),p(0,1),p(1,1)")
    p.add_argument("--law1", type=_probs, default=None,
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
    p.add_argument("--generations", type=_ints, default=None)
    p.add_argument("--thresholds", type=_floats, default=None)
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


def _cmd_estimate(args) -> int:
    tree, values = ingest(args.path)
    out = {"depth": tree.depth, "n_observed": int(tree.delta.sum())}
    rep = gw.estimate_reproduction(tree)
    out["gw"] = {
        "phat": rep.phat.tolist(),
        "mother_counts": list(rep.mother_counts),
        "zhat": list(rep.zhat),
    }
    est = bar.estimate_bar(values, tree)
    a, b, c, d = est.theta
    out["bar"] = {
        "a": a, "b": b, "c": c, "d": d,
        "sigma2": est.sigma2_hat,
        "rho": est.rho_hat,
        "cov": est.cov.tolist(),
        "warnings": list(est.warnings),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _run_one_test(tree, values, which: str):
    name = _TEST_ALIASES[which]
    if name == "gw_mean":
        return gw.gw_mean_test(tree)
    est = bar.estimate_bar(values, tree)
    return bar.coefficient_test(est) if name == "coefficient" else bar.fixed_point_test(est)


def _cmd_test(args) -> int:
    tree, values = ingest(args.path)
    try:
        report = _run_one_test(tree, values, args.which)
    except StatError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return EXIT_DEGENERATE
    print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK


def _cmd_batch(args) -> int:
    name = _TEST_ALIASES[args.which]
    lines = ["file,test,p_value"]
    for path in sorted(Path(args.directory).glob("*.csv")):
        try:
            tree, values = ingest(path)
        except BarLineageError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            continue
        if tree.depth < args.min_generations:
            continue
        try:
            report = _run_one_test(tree, values, args.which)
            p = f"{report.p_value:.17g}"
        except StatError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            p = "nan"
        lines.append(f"{path.name},{name},{p}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _config_from_file(path: str) -> dict:
    """Flat key=value file mirroring McConfig (laws/models as comma lists)."""
    raw = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise BarLineageError(f"{path}:{line_no}: expected key=value")
        key, val = line.split("=", 1)
        raw[key.strip()] = val.strip()
    return raw


def _build_mc_config(args) -> mc.McConfig:
    """Preset (or GW-mean default), then the config file, then the flags."""
    if args.table is not None:
        base = mc.table_config(args.table)
    else:
        base = mc.McConfig("gw_mean", gw.GwModel(mc.P0_LAW, mc.P0_LAW))
    raw = _config_from_file(args.config) if args.config else {}
    fields = {}
    if "which_test" in raw:
        fields["which_test"] = raw["which_test"]
    for side in ("null", "alt"):
        k0, k1 = f"gw_{side}_law0", f"gw_{side}_law1"
        if k0 in raw:
            law0 = _probs(raw[k0])
            law1 = _probs(raw.get(k1, raw[k0]))
            fields[f"gw_{side}"] = gw.GwModel(law0, law1)
        bk = f"bar_{side}"
        if bk in raw:
            fields[bk] = bar.BarModel(*_floats(raw[bk]))
    for key, parse in (("generations", _ints), ("replicas", int),
                       ("thresholds", _floats), ("master_seed", int)):
        if key in raw:
            fields[key] = parse(raw[key])
    flags = {"replicas": args.replicas, "master_seed": args.seed,
             "generations": args.generations, "thresholds": args.thresholds}
    fields.update({k: v for k, v in flags.items() if v is not None})
    return dataclasses.replace(base, **fields)


def _cmd_mc(args) -> int:
    config = _build_mc_config(args)
    table = mc.run_table(config, workers=args.workers)
    text = mc.emit_table(table, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
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
        return _COMMANDS[args.command](args)
    except StatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (BarLineageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
