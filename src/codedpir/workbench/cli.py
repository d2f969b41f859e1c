"""Command-line workbench: analyze, optimize, simulate, privacy, table."""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from ..codes import MinDistanceCapError, derived_code, min_distance
from ..optimizer import OptimizerConfig, check_distances, optimize_cpop, theta_bounds
from ..protocol import (
    ProtocolViolationError,
    build_queries,
    build_storage,
    collect_responses,
    random_file,
    recover_file,
    verify_privacy,
)
from .codefile import CodeFile, CodeFileError, format_e_matrix, parse_code_file

TABLE_COLUMNS = (
    "code",
    "(n,k)",
    "d_min",
    "dt_min",
    "beta_opt",
    "theta_non_opt",
    "theta_opt",
    "theta_lb",
    "theta_baseline",
    "exhaustive",
    "time",
)


def frac_exact(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_approx(x: Fraction) -> str:
    s = f"{float(x):.4f}".rstrip("0").rstrip(".")
    return s if s else "0"


def frac_full(x: Fraction) -> str:
    return f"{frac_exact(x)} ({frac_approx(x)})"


def _distances(cf: CodeFile, cfg: OptimizerConfig) -> tuple[int, bool, int, bool]:
    """(d_min, from_hint, d_tilde_min, from_hint); hints win over a search
    capped at cfg.min_distance_cap, which cfg checked when it was made.

    Raises ValueError when the two cannot both be the code's (check_distances).
    """
    cap = cfg.min_distance_cap
    if cf.d_min_hint is not None:
        dm, dm_hint = cf.d_min_hint, True
    else:
        dm, dm_hint = min_distance(cf.code.h, cap), False
    if cf.d_tilde_min_hint is not None:
        dtm, dtm_hint = cf.d_tilde_min_hint, True
    else:
        dtm, dtm_hint = min_distance(cf.code.p, cap), False
    check_distances(cf.code, dm, dtm)
    return dm, dm_hint, dtm, dtm_hint


def cmd_analyze(args) -> int:
    cf = parse_code_file(args.file)
    code = cf.code
    # a bad cap fails before any search, hinted distances or not
    dm, dm_hint, dtm, dtm_hint = _distances(cf, OptimizerConfig(min_distance_cap=args.cap))
    bounds = theta_bounds(code, dm, dtm)
    derived = derived_code(code)
    print(f"name: {cf.name}")
    print(f"n: {code.n}")
    print(f"k: {code.k}")
    print(f"rate: {frac_exact(code.rate)}")
    print(f"rank_p: {code.parity_rank}")
    print(f"k_tilde: {derived.k_tilde}")
    print(f"d_min: {dm}{' (hint)' if dm_hint else ''}")
    print(f"d_tilde_min: {dtm}{' (hint)' if dtm_hint else ''}")
    print(f"theta_lb: {frac_full(bounds.lower_bound)}")
    print(f"theta_non_opt: {frac_full(bounds.non_optimized)}")
    print(f"theta_baseline: {frac_full(bounds.baseline)}")
    return 0


def _config_for(cf: CodeFile, args) -> OptimizerConfig:
    return OptimizerConfig(
        seed=args.seed,
        exact_budget=args.budget,
        keep_going=getattr(args, "keep_going", False),
        d_min=cf.d_min_hint,
        d_tilde_min=cf.d_tilde_min_hint,
        min_distance_cap=args.cap,
    )


def cmd_optimize(args) -> int:
    cf = parse_code_file(args.file)
    result = optimize_cpop(cf.code, _config_for(cf, args))
    print(f"name: {cf.name}")
    print(f"beta_opt: {result.beta_opt}")
    print(f"theta_opt: {frac_full(result.theta_opt)}")
    print(f"theta_non_opt: {frac_full(result.theta_non_opt)}")
    print(f"theta_lb: {frac_full(result.theta_lb)}")
    print(f"theta_baseline: {frac_full(result.theta_baseline)}")
    print(f"iterations: {result.iterations}")
    print(f"exhaustive: {'yes' if result.exhaustive else 'no'}")
    if result.extended_beta is not None:
        print(f"extended_beta: {result.extended_beta} (found past the faithful stop)")
    text = format_e_matrix(result.e_opt)
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"e_opt written to {args.out}")
    else:
        print("e_opt:")
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    cf = parse_code_file(args.file)
    code = cf.code
    if not 1 <= args.target <= args.files:
        raise ValueError(f"target file {args.target} out of 1..{args.files}")
    result = optimize_cpop(cf.code, _config_for(cf, args))
    beta = result.beta_opt
    rng = random.Random(args.seed)
    files = [random_file(code.field, beta, code.k, args.payload, rng) for _ in range(args.files)]
    array = build_storage(code, files)
    qs = build_queries(code, result.e_opt, args.target, args.files, seed=rng.randrange(2**31))
    rs = collect_responses(qs, array)
    recovered = recover_file(qs, rs, code)
    ok = recovered == files[args.target - 1]
    downloaded = rs.downloaded
    retrieved = len(recovered) * recovered.k * recovered.ell
    theta = Fraction(downloaded, retrieved)
    print(f"name: {cf.name}")
    print(f"beta: {beta}")
    print(f"recovered: {'ok' if ok else 'MISMATCH'}")
    print(f"theta: {frac_full(theta)}")
    print(f"downloaded: {downloaded} field symbols ({downloaded * code.field.width} bits)")
    print(f"retrieved: {retrieved} field symbols ({retrieved * code.field.width} bits)")
    return 0 if ok else 1


def cmd_privacy(args) -> int:
    cf = parse_code_file(args.file)
    result = optimize_cpop(cf.code, _config_for(cf, args))
    report = verify_privacy(
        cf.code, result.e_opt, f=args.files, trials=args.trials, seed=args.seed
    )
    print(f"name: {cf.name}")
    print(f"files: {args.files}")
    if report.exact_performed:
        print(f"exact_multisets: {'ok' if report.exact_multisets_ok else 'FAIL'}")
        print(f"exact_construction: {'ok' if report.exact_construction_ok else 'FAIL'}")
    else:
        print("exact: skipped (mask space too large)")
    print(f"trials: {report.trials}")
    print(f"tests: {report.tests}")
    print(f"min_p_value: {report.min_p_value:.6g}")
    print(f"per_test_threshold: {report.per_test_threshold:.6g}")
    print(f"statistical: {'ok' if report.statistical_ok else 'FAIL'}")
    print(f"verdict: {'pass' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def _table_row(path: str, args) -> tuple[str, ...]:
    cf = parse_code_file(path)
    cfg = _config_for(cf, args)  # a bad setting fails before any search
    started = time.monotonic()
    dm, dm_hint, dtm, dtm_hint = _distances(cf, cfg)
    # hand the scan the distances found above, so neither is searched twice
    result = optimize_cpop(cf.code, replace(cfg, d_min=dm, d_tilde_min=dtm))
    elapsed = time.monotonic() - started
    return (
        cf.name,
        f"({cf.code.n},{cf.code.k})",
        str(dm) + ("*" if dm_hint else ""),
        str(dtm) + ("*" if dtm_hint else ""),
        str(result.beta_opt),
        frac_exact(result.theta_non_opt),
        frac_exact(result.theta_opt),
        frac_exact(result.theta_lb),
        frac_exact(result.theta_baseline),
        "yes" if result.exhaustive else "no",
        f"{elapsed:.2f}s" if args.times else "-",
    )


def cmd_table(args) -> int:
    rows: list[tuple[str, ...]] = []
    failed = False
    for path in args.files:
        try:
            rows.append(_table_row(path, args))
        except (OSError, ValueError, ProtocolViolationError) as exc:
            failed = True
            name = Path(path).stem
            rows.append((name, f"error: {exc}") + ("-",) * (len(TABLE_COLUMNS) - 2))
    if args.format == "tsv":
        print("\t".join(TABLE_COLUMNS))
        for row in rows:
            print("\t".join(row))
    else:
        widths = [
            max(len(TABLE_COLUMNS[i]), max((len(r[i]) for r in rows), default=0))
            for i in range(len(TABLE_COLUMNS))
        ]
        print("  ".join(h.ljust(w) for h, w in zip(TABLE_COLUMNS, widths)))
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedpir",
        description="Private-retrieval workbench for systematically coded storage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed_required=True):
        p.add_argument("--cap", type=int, default=25, help="minimum-distance search column cap")
        if seed_required:
            p.add_argument("--seed", type=int, required=True, help="seed for all randomness")
        p.add_argument("--budget", type=int, default=20_000, help="matrix-search node budget")

    p_analyze = sub.add_parser("analyze", help="report code parameters and price bounds")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--cap", type=int, default=25)
    p_analyze.set_defaults(func=cmd_analyze)

    p_opt = sub.add_parser("optimize", help="run the access-matrix width scan")
    p_opt.add_argument("file")
    add_common(p_opt)
    p_opt.add_argument("--keep-going", action="store_true", help="scan past the faithful stop")
    p_opt.add_argument("--out", help="write the access matrix to this file")
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="end-to-end retrieval on random files")
    p_sim.add_argument("file")
    add_common(p_sim)
    p_sim.add_argument("--files", type=int, default=1, help="number of stored files f")
    p_sim.add_argument("--payload", type=int, default=1, help="symbols per payload vector")
    p_sim.add_argument("--target", type=int, default=1, help="1-based file index to retrieve")
    p_sim.set_defaults(func=cmd_simulate)

    p_priv = sub.add_parser("privacy", help="exact and statistical privacy checks")
    p_priv.add_argument("file")
    add_common(p_priv)
    p_priv.add_argument("--files", type=int, default=1)
    p_priv.add_argument("--trials", type=int, required=True)
    p_priv.set_defaults(func=cmd_privacy)

    p_table = sub.add_parser("table", help="one summary row per code file")
    p_table.add_argument("files", nargs="+")
    add_common(p_table)
    p_table.add_argument("--format", choices=("human", "tsv"), default="human")
    p_table.add_argument("--times", action="store_true", help="show wall time per row")
    p_table.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ProtocolViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
