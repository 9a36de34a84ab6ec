"""Command line front end.

Symbolic subcommands (jack expand, jack product, lb-row) print bare maps from
partitions to exact rationals, serialized as "p/q" strings.  Distribution and
simulation subcommands print an envelope with the echoed command, parameters,
rows, and metadata (JSON): the truncation of each table, or for `sim` the
draws the sampler sent to `eigvalsh` and resampled.  CSV prints the rows alone.

Set JACKRATIO_CACHE_DIR to persist the memoized Jack expansion tables between
invocations of `jack expand` and `jack product`, the commands that build
them; the distribution commands use closed forms and never touch it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import warnings
from fractions import Fraction
from typing import Dict, List, Optional

from . import __version__
from .dist import (DistParams, TruncationError, auto_converged_params,
                   get_table)
from .partitions import normalize

TABLE1_ALPHAS = (0.01, 0.05, 0.50, 0.90, 0.95)
TABLE2_MS = (5, 25, 45, 65, 85, 105, 125, 145)


def _parse_partition(text: str):
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        return normalize(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def _parse_beta_rational(text: str) -> Fraction:
    try:
        b = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad beta {text!r}")
    if b <= 0:
        raise argparse.ArgumentTypeError("beta must be positive")
    return b


def _parse_digits(text: str) -> int:
    try:
        digits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad digit count {text!r}")
    if digits < 0:
        raise argparse.ArgumentTypeError("digits must be nonnegative")
    return digits


def _parse_float_list(text: str) -> List[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}")


def _parse_int_list(text: str) -> List[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")


def _parse_grid(text: str) -> List[int]:
    """start:stop:step, inclusive of stop when it lands on the grid."""
    try:
        start, stop, step = (int(p) for p in text.split(":"))
        if step <= 0 or stop < start:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}, expected start:stop:step")
    return list(range(start, stop + 1, step))


def _partition_key(kappa) -> str:
    return ",".join(str(p) for p in kappa)


def _emit_map(data: Dict[str, str], args) -> str:
    if args.format == "json":
        return json.dumps(data, indent=2)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["partition", "coefficient"])
    for k, v in data.items():
        w.writerow([k, v])
    return buf.getvalue().rstrip("\n")


def _emit_envelope(command: str, params: Dict, rows: List[Dict], args,
                   metadata: Optional[Dict] = None) -> str:
    digits = args.digits

    def fmt(v):
        return round(v, digits) if isinstance(v, float) else v

    rows = [{k: fmt(v) for k, v in row.items()} for row in rows]
    if args.format == "json":
        envelope = {
            "command": command,
            "params": params,
            "rows": rows,
            "metadata": {"version": __version__, **(metadata or {})},
        }
        return json.dumps(envelope, indent=2)
    buf = io.StringIO()
    if rows:
        w = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        w.writeheader()
        for row in rows:
            w.writerow({k: (f"{v:.{digits}f}" if isinstance(v, float) else v)
                        for k, v in row.items()})
    return buf.getvalue().rstrip("\n")


def _dist_params(args) -> DistParams:
    return DistParams(m=args.m, n=args.n, beta=args.beta, K=args.K, t_max=args.t_max)


def _truncation(table) -> Dict:
    return dict(table.diagnostics)


# -- subcommand handlers ------------------------------------------------------

def _cmd_jack_expand(args) -> str:
    from .jack import jack_expansion
    poly = jack_expansion(args.kappa, args.beta, args.m)
    data = {_partition_key(lam): str(c) for lam, c in poly.terms.items()}
    return _emit_map(data, args)


def _cmd_jack_product(args) -> str:
    from .jack import jack_product
    expansion = jack_product(args.left, args.right, args.beta, args.m)
    data = {_partition_key(d): str(c) for d, c in expansion.terms}
    return _emit_map(data, args)


def _cmd_lb_row(args) -> str:
    from .esym import laplace_beltrami_row
    row = laplace_beltrami_row(args.nu, args.beta, args.m)
    data = {_partition_key(mu): str(c) for mu, c in row.entries}
    return _emit_map(data, args)


def _cmd_dist_query(args) -> str:
    """dist cdf|pdf|quantile|moment: one row per input, one column per query."""
    params = _dist_params(args)
    table = get_table(params)
    query = getattr(table, args.subcommand)
    rows = [{args.query_input: v, args.subcommand: query(v)}
            for v in getattr(args, args.query_input)]
    return _emit_envelope(f"dist {args.subcommand}", _params_block(params), rows, args,
                          {"truncation": _truncation(table)})


def _cmd_dist_table1(args) -> str:
    beta, K = (1, 25) if args.variant == "a" else (2, 40)
    params = DistParams(m=10, n=3, beta=beta, K=K)
    table = get_table(params)
    col = f"F_{K}_inv"
    rows = [{"alpha": a, col: table.quantile(a)} for a in TABLE1_ALPHAS]
    return _emit_envelope(f"dist table1 --variant {args.variant}",
                          _params_block(params), rows, args,
                          {"truncation": _truncation(table)})


def _cmd_dist_table2(args) -> str:
    rows, truncation = [], []
    for m in TABLE2_MS:
        table = get_table(auto_converged_params(m, 2, 1, moments=4))
        s = table.summary_stats()
        rows.append({"m": m, "Mean": s["mean"], "Variance": s["variance"],
                     "Skewness": s["skewness"], "Kurtosis": s["kurtosis"]})
        truncation.append({"m": m, **_truncation(table), "moment_last_increment_rel": {
            str(h): table.moment_monitor(h) for h in (1, 2, 3, 4)}})
    return _emit_envelope("dist table2", {"n": 2, "beta": 1, "K": "auto"},
                          rows, args, {"truncation": truncation})


def _cmd_dist_fig1(args) -> str:
    rows, truncation = [], []
    for m in args.m_grid:
        table = get_table(auto_converged_params(m, 2, 1))
        rows.append({"m": m, "Pr(0.7<l_n/l_1<1)": table.cdf(0.3)})
        truncation.append({"m": m, **_truncation(table)})
    return _emit_envelope("dist fig1", {"n": 2, "beta": 1, "K": "auto", "x": 0.3},
                          rows, args, {"truncation": truncation})


def _cmd_sim(args) -> str:
    from .mc import McConfig, _sample, empirical_moments, empirical_quantile
    cfg = McConfig(m=args.m, n=args.n, beta=args.beta, replications=args.reps,
                   seed=args.seed, statistic=args.statistic.replace("-", "_"))
    samples, counts = _sample(cfg)
    if args.dump:
        import numpy as np
        np.save(args.dump, samples)
    params = {"m": cfg.m, "n": cfg.n, "beta": cfg.beta, "reps": cfg.replications,
              "seed": cfg.seed, "statistic": cfg.statistic}
    if args.moments:
        s = empirical_moments(samples)
        rows = [{"Mean": s["mean"], "Variance": s["variance"],
                 "Skewness": s["skewness"], "Kurtosis": s["kurtosis"]}]
    else:
        rows = [{"alpha": a, "F_sim_inv": empirical_quantile(samples, a)}
                for a in args.alpha]
    return _emit_envelope("sim", params, rows, args, {"sampler": counts})


def _params_block(params: DistParams) -> Dict:
    return {"m": params.m, "n": params.n, "beta": params.beta,
            "K": params.resolved_K, "t_max": params.resolved_t_max}


# -- parser -------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--output", default=None, help="write here instead of stdout")
    p.add_argument("--digits", type=_parse_digits, default=6,
                   help="decimal digits for numeric output (default 6)")


def _add_dist_common(p):
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=int, choices=(1, 2, 4), default=1)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--t-max", dest="t_max", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jackratio")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    jack = sub.add_parser("jack", help="Jack polynomial algebra")
    jsub = jack.add_subparsers(dest="subcommand", required=True)
    je = jsub.add_parser("expand", help="elementary-basis expansion of one polynomial")
    je.add_argument("--kappa", type=_parse_partition, required=True)
    je.add_argument("--beta", type=_parse_beta_rational, default=Fraction(1))
    je.add_argument("--m", type=int, required=True)
    _add_common(je)
    je.set_defaults(handler=_cmd_jack_expand, default_format="json", snapshot=True)

    jp = jsub.add_parser("product", help="linearize a product of two Jack polynomials")
    jp.add_argument("--left", type=_parse_partition, required=True)
    jp.add_argument("--right", type=_parse_partition, required=True)
    jp.add_argument("--beta", type=_parse_beta_rational, default=Fraction(1))
    jp.add_argument("--m", type=int, required=True)
    _add_common(jp)
    jp.set_defaults(handler=_cmd_jack_product, default_format="json", snapshot=True)

    lb = sub.add_parser("lb-row", help="differential operator action on one basis element")
    lb.add_argument("--nu", type=_parse_partition, required=True)
    lb.add_argument("--beta", type=_parse_beta_rational, default=Fraction(1))
    lb.add_argument("--m", type=int, required=True)
    _add_common(lb)
    lb.set_defaults(handler=_cmd_lb_row, default_format="json")

    dist = sub.add_parser("dist", help="distribution of 1 - l_min/l_max")
    dsub = dist.add_subparsers(dest="subcommand", required=True)
    for name, arg, parser_fn in (
            ("cdf", "x", _parse_float_list),
            ("pdf", "x", _parse_float_list),
            ("quantile", "alpha", _parse_float_list),
            ("moment", "h", _parse_int_list)):
        p = dsub.add_parser(name)
        _add_dist_common(p)
        p.add_argument(f"--{arg}", type=parser_fn, required=True)
        _add_common(p)
        p.set_defaults(handler=_cmd_dist_query, query_input=arg, default_format="json")

    t1 = dsub.add_parser("table1", help="quantile table reproduction")
    t1.add_argument("--variant", choices=("a", "b"), required=True)
    _add_common(t1)
    t1.set_defaults(handler=_cmd_dist_table1, default_format="csv")

    t2 = dsub.add_parser("table2", help="moment table reproduction")
    _add_common(t2)
    t2.set_defaults(handler=_cmd_dist_table2, default_format="csv")

    f1 = dsub.add_parser("fig1", help="probability-vs-dimension curve data")
    f1.add_argument("--m-grid", dest="m_grid", type=_parse_grid, default="5:145:20")
    _add_common(f1)
    f1.set_defaults(handler=_cmd_dist_fig1, default_format="csv")

    sim = sub.add_parser("sim", help="Monte Carlo sampling of the spectral statistic")
    sim.add_argument("--m", type=int, required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--beta", type=int, choices=(1, 2, 4), default=1)
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--statistic", choices=("ratio", "one-minus-ratio"),
                     default="one-minus-ratio")
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=_parse_float_list)
    group.add_argument("--moments", action="store_true")
    sim.add_argument("--dump", default=None, help="save raw samples (.npy)")
    _add_common(sim)
    sim.set_defaults(handler=_cmd_sim, default_format="json")

    return ap


def _write_failed(path, exc: OSError) -> int:
    print(f"error: could not write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def _check_writable(path) -> None:
    """OSError unless path can be opened for writing.  A file that is there
    is opened for appending and left as it was; one that is not is created
    and removed again."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.format is None:
        args.format = args.default_format

    if args.output:  # fail before the handler's work, not after it
        try:
            _check_writable(args.output)
        except OSError as exc:
            return _write_failed(args.output, exc)

    cache_dir = os.environ.get("JACKRATIO_CACHE_DIR")
    cache_path = (os.path.join(cache_dir, "jack_cache.json")
                  if cache_dir and getattr(args, "snapshot", False) else None)
    if cache_path and os.path.exists(cache_path):
        from .jack import load_expansion_cache
        try:
            load_expansion_cache(cache_path)
        except (ValueError, OSError) as exc:
            print(f"ignoring unusable cache {cache_path}: {exc}", file=sys.stderr)

    # one line per warning; the caller's filters and recorders still apply
    saved_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        text = args.handler(args)
    except (ValueError, TruncationError, ZeroDivisionError, OverflowError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the one file a handler writes: sim --dump
        return _write_failed(exc.filename, exc)
    finally:
        warnings.formatwarning = saved_format

    if cache_path:
        from .jack import save_expansion_cache
        try:
            os.makedirs(cache_dir, exist_ok=True)
            save_expansion_cache(cache_path)
        except OSError as exc:
            print(f"could not save cache {cache_path}: {exc}", file=sys.stderr)

    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _write_failed(args.output, exc)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
