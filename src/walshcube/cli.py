"""Command-line entry point.

One process runs one command:

    walshcube --command verify    run the identity suite, exit 0 iff all pass
    walshcube --command eval      evaluate a named functional on a JSON input
    walshcube --command estimate  search for an extremal witness, emit a certificate
    walshcube --command check     re-check a certificate file, exit 0 iff it holds
    walshcube --command scan      one certificate per dimension, CSV trend table
    walshcube --command bench     time fast vs naive transforms and sign averaging
    walshcube --command transform Walsh-transform a JSON function (or invert a spectrum)

Exit codes: 0 success, 1 check failure, 2 input error, 3 degenerate-only
result.  All output is written once at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .estimators import (
    FUNCTIONAL_NAMES,
    CertificateMismatchError,
    RatioCertificate,
    SearchConfig,
    _check_table_budget,
    _json_list,
    _reading,
    functional_entry,
    functional_report,
    maximize_ratio,
    reevaluate_certificate,
    save_certificate,
    scan_dimension,
)
from .hypercube import (
    HypercubeFunction,
    WalshSpectrum,
    walsh_forward,
    walsh_forward_naive,
    walsh_inverse,
)
from .inequalities import REPORT_CSV_COLUMNS
from .norms import (
    DEFAULT_SAMPLES,
    DegenerateInputError,
    FunctionFamily,
    NormSpace,
    RademacherAveragePlan,
    _check_seed,
    rademacher_average,
)
from .verification import run_verification_suite

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE = 3

_PLAN_MODES = {"exact": "exact", "mc": "monte-carlo", None: "auto"}  # --mode -> plan mode


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshcube",
        description="Hypercube Fourier analysis and inequality-witness toolkit",
    )
    parser.add_argument("--command", required=True, choices=list(_COMMANDS))
    parser.add_argument("--n", type=int, default=6, help="cube dimension")
    parser.add_argument("--n-min", type=int, default=None, help="scan start (default 2)")
    parser.add_argument("--n-max", type=int, default=None, help="scan end (default --n)")
    parser.add_argument(
        "--m", type=int, default=2, help="target dimension; 0 means 2^n inside scans"
    )
    parser.add_argument("--p", type=float, default=2.0, help="L_p exponent")
    parser.add_argument("--q", type=float, default=2.0, help="ell_q target index (inf allowed)")
    parser.add_argument("--mode", choices=[mode for mode in _PLAN_MODES if mode], default=None)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--restarts", type=int, default=SearchConfig.restarts)
    parser.add_argument("--iters", type=int, default=SearchConfig.iterations)
    parser.add_argument("--probes", type=int, default=SearchConfig.probes)
    parser.add_argument("--functional", default="pisier", help=f"one of {FUNCTIONAL_NAMES}")
    parser.add_argument("--in", dest="input_path", default=None, metavar="PATH")
    parser.add_argument("--out", dest="output_path", default=None, metavar="PATH")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _emit_csv(columns, rows, path: str | None) -> None:
    """A header line of `columns`, then one comma-joined line per row."""
    lines = [",".join(columns)] + [",".join(str(v) for v in row) for row in rows]
    _emit("\n".join(lines), path)


def _load_json(path: str | None):
    if path is None:
        raise ValueError("this command needs an input file (--in PATH)")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
        except RecursionError as err:
            raise ValueError(f"{path}: JSON nested too deeply to read") from err


def cmd_verify(args) -> int:
    results = run_verification_suite(
        n=args.n, m=args.m, seed=args.seed, corrupt=args.corrupt
    )
    report = {
        "command": "verify",
        "n": args.n,
        "m": args.m,
        "seed": args.seed,
        "checks": [r.to_json_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    _emit(json.dumps(report, indent=2, sort_keys=True), args.output_path)
    failing = [r.name for r in results if not r.passed]
    if failing:
        sys.stderr.write(f"verification failed: {failing[0]}\n")
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_eval(args) -> int:
    entry = functional_entry(args.functional, args.p)
    witness = entry.kind.load(_load_json(args.input_path))
    n, m = entry.kind.dims(witness)
    plan = RademacherAveragePlan.for_mode(
        _PLAN_MODES[args.mode], n, samples=args.samples, seed=args.seed
    )
    report = functional_report(args.functional, witness, args.p, NormSpace(m, args.q), plan)
    if args.format == "csv":
        _emit_csv(REPORT_CSV_COLUMNS, [report.csv_row()], args.output_path)
    else:
        _emit(report.to_json(), args.output_path)
    return EXIT_DEGENERATE if report.degenerate else EXIT_OK


def _search_config(args, n: int, m: int) -> SearchConfig:
    return SearchConfig(
        functional=args.functional,
        n=n,
        m=m,
        p=args.p,
        q=args.q,
        restarts=args.restarts,
        iterations=args.iters,
        probes=args.probes,
        seed=args.seed,
        plan_mode=_PLAN_MODES[args.mode],
        plan_samples=args.samples,
    )


def cmd_estimate(args) -> int:
    certificate = maximize_ratio(_search_config(args, args.n, args.m))
    if args.output_path is not None:
        save_certificate(certificate, args.output_path)
        sys.stdout.write(
            f"{certificate.functional}: ratio {certificate.ratio:.12g} "
            f"-> {args.output_path}\n"
        )
    else:
        sys.stdout.write(certificate.to_json())
    return EXIT_OK


def cmd_check(args) -> int:
    certificate = RatioCertificate.from_json_dict(_load_json(args.input_path))
    try:
        with _reading("certificate"):
            report = reevaluate_certificate(certificate)
    except CertificateMismatchError as err:
        sys.stderr.write(f"certificate does not hold: {err}\n")
        return EXIT_CHECK_FAILURE
    sys.stdout.write(f"{certificate.functional}: ratio {report.ratio:.12g} holds\n")
    return EXIT_OK


def cmd_scan(args) -> int:
    n_lo = 2 if args.n_min is None else args.n_min
    n_hi = args.n if args.n_max is None else args.n_max
    if n_lo > n_hi:
        raise ValueError(f"empty scan range {n_lo}..{n_hi}")
    m_for_n = (lambda n: 1 << n) if args.m == 0 else None
    config = _search_config(args, n_lo, args.m if args.m != 0 else 1)
    out = args.output_path if args.output_path is not None else "scan.csv"
    certificates = scan_dimension(config, range(n_lo, n_hi + 1), m_for_n=m_for_n, csv_path=out)
    for cert in certificates:
        sys.stdout.write(
            f"n={cert.config.n} m={cert.config.m} ratio={cert.ratio:.9g}\n"
        )
    sys.stdout.write(f"scan table -> {out}\n")
    return EXIT_OK


def _time_call(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_rows(n_max: int, m: int, seed: int, samples: int) -> list[dict]:
    """Per-dimension timings: fast vs naive transforms, exact vs MC sign averages.

    `n_max` outside [1, MAX_DIMENSION], a largest table of 2^n_max x m over
    the search's 2^20-entry witness bound or a negative seed raises
    `ValueError` before anything is drawn or timed.
    """
    _check_table_budget(n_max, m, "bench")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    rows = []
    for n in range(1, n_max + 1):
        f = HypercubeFunction.from_values(rng.standard_normal((1 << n, m)))
        fast_s = _time_call(lambda: walsh_forward(f))
        row = {"n": n, "fast_transform_s": fast_s}
        if n <= 10:
            naive_s = _time_call(lambda: walsh_forward_naive(f))
            fast = walsh_forward(f).coefficients
            gap = float(np.max(np.abs(fast - walsh_forward_naive(f).coefficients)))
            scale = max(1.0, float(np.max(np.abs(fast))))
            row.update(naive_transform_s=naive_s, speedup=naive_s / fast_s, agreement=gap / scale)
        if n <= 8:
            family = FunctionFamily(
                tuple(
                    HypercubeFunction.from_values(rng.standard_normal((1 << n, m)))
                    for _ in range(n)
                )
            )
            space = NormSpace(m, 2.0)
            exact_plan = RademacherAveragePlan(mode="exact")
            mc_plan = RademacherAveragePlan(mode="monte-carlo", samples=samples, seed=seed)
            row["exact_average_s"] = _time_call(
                lambda: rademacher_average(family, 2.0, space, exact_plan), repeats=3
            )
            row["mc_average_s"] = _time_call(
                lambda: rademacher_average(family, 2.0, space, mc_plan), repeats=3
            )
        rows.append(row)
    return rows


def cmd_bench(args) -> int:
    rows = bench_rows(args.n, args.m, args.seed, args.samples)
    worst = max((row.get("agreement", 0.0) for row in rows), default=0.0)
    payload = {"command": "bench", "rows": rows, "worst_agreement": worst}
    if args.format == "csv":
        keys = [
            "n",
            "fast_transform_s",
            "naive_transform_s",
            "speedup",
            "agreement",
            "exact_average_s",
            "mc_average_s",
        ]
        _emit_csv(keys, [[row.get(k, "") for k in keys] for row in rows], args.output_path)
    else:
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output_path)
    if worst > 1e-12:
        sys.stderr.write(f"fast/naive transform disagreement {worst:.3e} > 1e-12\n")
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_transform(args) -> int:
    data = _load_json(args.input_path)
    forward = isinstance(data, dict) and "values" in data
    _json_list(data, "values" if forward else "coefficients")
    with _reading("transform"), np.errstate(over="ignore", invalid="ignore"):
        if forward:
            out = walsh_forward(HypercubeFunction.from_json_dict(data))
        else:
            out = walsh_inverse(WalshSpectrum.from_json_dict(data))
    _emit(json.dumps(out.to_json_dict()), args.output_path)
    return EXIT_OK


_COMMANDS = {
    "verify": cmd_verify,
    "eval": cmd_eval,
    "estimate": cmd_estimate,
    "check": cmd_check,
    "scan": cmd_scan,
    "bench": cmd_bench,
    "transform": cmd_transform,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DegenerateInputError as err:
        sys.stderr.write(f"degenerate input: {err}\n")
        return EXIT_DEGENERATE
    except (ValueError, OSError, KeyError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
