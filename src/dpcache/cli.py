"""Command-line front end.

Subcommands mirror the experiment matrix: ``run`` replays one trace through
one cache, ``sweep`` expands one axis (associativity, cache size or integer
factor) into a report per grid point, ``gen-zipf`` writes a synthetic trace in
plain format, and ``check`` runs the exhaustive small-instance equivalence
oracle.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    CacheSpec,
    ConfigError,
    ExperimentConfig,
    emit_report,
    run_experiment,
    run_sweep,
)
from .multiregion import FILTERS
from .oracle import exhaustive_check
from .policies import DEFAULT_INTEGER_FACTOR, POLICIES
from .traces import ZipfSpec, generate_zipf

_WRITE_CHUNK = 1 << 16  # keys per write of ``gen-zipf``


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=["restricted", "reference"],
                        default="restricted")
    parser.add_argument("--policy", choices=POLICIES, required=True,
                        help="single-region policy, or the main-region policy")
    parser.add_argument("--km", type=int, default=8, help="ways per main set")
    parser.add_argument("--dm", type=int, default=16, help="main set count")
    parser.add_argument("--window-policy", choices=POLICIES,
                        help="window-region policy; with --kw and --dw it enables "
                             "the multi-region cache")
    parser.add_argument("--kw", type=int, default=0, help="ways per window set")
    parser.add_argument("--dw", type=int, default=0, help="window set count")
    parser.add_argument("--filter", choices=FILTERS, default=None,
                        help="admission filter between the regions (default: "
                             "tinylfu when a window is configured)")
    parser.add_argument("--integer-factor", default=str(DEFAULT_INTEGER_FACTOR),
                        help="hyperbolic fixed-point scale, e.g. 0.1, 1, 10, 100")


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", help="trace file to replay")
    parser.add_argument("--trace-format", choices=["plain", "csv"],
                        default="plain")
    parser.add_argument("--key-column", default="key",
                        help="key column name for csv traces")
    parser.add_argument("--zipf-n", type=int, help="synthetic universe size")
    parser.add_argument("--zipf-s", type=float, help="synthetic skew exponent")
    parser.add_argument("--zipf-len", type=int, help="synthetic trace length")
    parser.add_argument("--seed", type=int,
                        help="synthetic trace generator seed (default 1)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", help="write the report here instead of stdout")


def _cache_spec(args: argparse.Namespace) -> CacheSpec:
    filt = args.filter
    if filt is None:
        filt = "none" if args.window_policy is None else "tinylfu"
    return CacheSpec(
        policy=args.policy,
        k=args.km,
        d=args.dm,
        window_policy=args.window_policy,
        k_w=args.kw,
        d_w=args.dw,
        filter=filt,
        integer_factor=args.integer_factor,
    )


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    zipf = None
    synthetic = {"--zipf-n": args.zipf_n, "--zipf-s": args.zipf_s,
                 "--zipf-len": args.zipf_len, "--seed": args.seed}
    given = [flag for flag, value in synthetic.items() if value is not None]
    if args.trace is not None:
        if given:
            raise ConfigError(f"{'/'.join(given)} cannot be combined with --trace")
    else:
        if None in (args.zipf_n, args.zipf_s, args.zipf_len):
            raise ConfigError("give --trace or all of --zipf-n/--zipf-s/--zipf-len")
        zipf = ZipfSpec(N=args.zipf_n, s=args.zipf_s, length=args.zipf_len,
                        seed=1 if args.seed is None else args.seed)
    return ExperimentConfig(
        engine=args.engine,
        cache=_cache_spec(args),
        trace_path=args.trace,
        trace_format=args.trace_format,
        key_column=args.key_column,
        zipf=zipf,
    )


def _emit(args: argparse.Namespace, reports) -> None:
    text = emit_report(reports, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcache",
        description="k-way set-associative cache simulator for the restricted "
                    "data-plane computation model, with exact reference oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="replay one trace through one cache")
    _add_cache_flags(run_p)
    _add_trace_flags(run_p)
    _add_output_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="run one config grid axis")
    _add_cache_flags(sweep_p)
    _add_trace_flags(sweep_p)
    _add_output_flags(sweep_p)
    sweep_p.add_argument("--k-values", type=_int_list,
                         help="comma-separated k values at fixed capacity")
    sweep_p.add_argument("--capacity", type=int,
                         help="fixed k*d for the --k-values sweep")
    sweep_p.add_argument("--sizes", type=_int_list,
                         help="comma-separated total cache sizes at fixed k")
    sweep_p.add_argument("--integer-factors", type=_str_list,
                         help="comma-separated hyperbolic integer factors")

    gen_p = sub.add_parser("gen-zipf", help="write a synthetic trace file")
    gen_p.add_argument("--zipf-n", type=int, required=True)
    gen_p.add_argument("--zipf-s", type=float, required=True)
    gen_p.add_argument("--zipf-len", type=int, required=True)
    gen_p.add_argument("--seed", type=int, default=1)
    gen_p.add_argument("--out", required=True)

    check_p = sub.add_parser("check", help="exhaustive engine-vs-reference check")
    check_p.add_argument("--policy", choices=POLICIES, required=True)
    check_p.add_argument("--k", type=int, default=2)
    check_p.add_argument("--d", type=int, default=1)
    check_p.add_argument("--alphabet", type=int, default=3)
    check_p.add_argument("--max-len", type=int, default=6)
    check_p.add_argument("--integer-factor", default=str(DEFAULT_INTEGER_FACTOR))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            _emit(args, run_experiment(_experiment_config(args)))
        elif args.command == "sweep":
            reports = run_sweep(
                _experiment_config(args),
                k_values=args.k_values,
                capacity=args.capacity,
                sizes=args.sizes,
                integer_factors=args.integer_factors,
            )
            _emit(args, reports)
        elif args.command == "gen-zipf":
            trace = generate_zipf(ZipfSpec(N=args.zipf_n, s=args.zipf_s,
                                           length=args.zipf_len, seed=args.seed))
            keys = trace.keys
            with open(args.out, "w", encoding="utf-8") as fh:
                for start in range(0, len(keys), _WRITE_CHUNK):
                    fh.write("\n".join(map(str, keys[start:start + _WRITE_CHUNK])) + "\n")
        elif args.command == "check":
            report = exhaustive_check(
                args.policy, k=args.k, d=args.d,
                alphabet_size=args.alphabet, max_len=args.max_len,
                integer_factor=args.integer_factor,
            )
            print(report.summary())
            if report.first_divergence is not None:
                print(f"first divergence: {list(report.first_divergence)}")
                print(report.first_divergence_dump)
            return 0 if report.passed else 1
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        # ConfigError, TraceFormatError, LayoutError and StorageError are ValueErrors;
        # numpy's MemoryError names the size it could not allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
