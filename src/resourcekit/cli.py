"""Batch command-line front end.

Subcommands: ``affinity`` (pairwise affinity table), ``indicator``
(certified indicator bounds), ``verify`` (named certificate suites) and
``embed`` (depth table plus transported-witness inequality report).

Every command requires an explicit ``--seed``: there is no wall-clock
default, so identical invocations produce byte-identical reports.  Exit
codes: 0 success / all checks passed, 1 verification failure, 2 input
error.  ``affinity`` and ``indicator`` write CSV or JSON (``--format``);
``verify`` prints a summary and writes certificate CSV, ``embed`` writes
JSON.  Order-2 coherence rows are the exact closed form, found without
search (0 iterations); every other row, coherence or correlation, is one
hull solve whose iterations ``--max-iter`` caps.  ``embed`` scores the
transported witness without a correlation search, so ``--max-iter``
reaches only its coherence solve.
"""

from __future__ import annotations

import argparse
import json
import sys

from .affinity import alpha_affinity, certificates_to_csv
from .embedding import (
    build_embedding,
    depth_correspondence,
    theorem3_check,
    transport_report_json,
)
from .errors import ResourceKitError
from .indicators import (
    LABELS,
    indicator_suite,
    results_to_csv,
    results_to_json,
)
from .states import PureState, load_state, spectral
from .verify import SUITE_NAMES, run_suite, summarize

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _alpha_value(text):
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0, 1), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resourcekit",
        description="Certified bounds on affinity-based coherence and "
                    "correlation indicators, plus their verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_opts=True):
        p.add_argument("--seed", type=int, required=True,
                       help="master seed (required; no wall-clock default)")
        p.add_argument("--out", help="write the report to this path")
        if with_opts:
            p.add_argument("--max-iter", type=int, default=400)

    p_aff = sub.add_parser("affinity", help="affinity between two state files")
    p_aff.add_argument("--rho", required=True)
    p_aff.add_argument("--sigma", required=True)
    p_aff.add_argument("--alpha", type=_alpha_value, action="append", required=True)
    common(p_aff, with_opts=False)

    p_ind = sub.add_parser("indicator", help="certified indicator bounds")
    p_ind.add_argument("--state", required=True)
    p_ind.add_argument("--label", choices=LABELS, required=True)
    p_ind.add_argument("--k", type=int, action="append", required=True)
    p_ind.add_argument("--alpha", type=_alpha_value, action="append", required=True)
    common(p_ind)

    p_ver = sub.add_parser("verify", help="run a named certificate suite")
    p_ver.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p_ver.add_argument("--n-samples", type=int, default=None)
    common(p_ver, with_opts=False)

    p_emb = sub.add_parser("embed", help="depth table and transported bounds")
    p_emb.add_argument("--state", required=True)
    p_emb.add_argument("--k", type=int, action="append", required=True)
    p_emb.add_argument("--alpha", type=_alpha_value, action="append", required=True)
    common(p_emb)

    for p in (p_aff, p_ind):  # the only commands with two report forms
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_affinity(args) -> int:
    rho = load_state(args.rho)
    sigma = load_state(args.sigma)
    rows = [(a, alpha_affinity(rho, sigma, a)) for a in args.alpha]
    if args.format == "csv":
        text = "alpha,value\n" + "".join(f"{a!r},{v!r}\n" for a, v in rows)
    else:
        text = json.dumps({"rows": [{"alpha": a, "value": v} for a, v in rows]}) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_indicator(args) -> int:
    rho = load_state(args.state)
    specs = [(args.label, k) for k in args.k]
    results = indicator_suite(rho, args.alpha, specs, seed=args.seed,
                              max_iter=args.max_iter)
    text = results_to_csv(results) if args.format == "csv" else results_to_json(results) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    certs = run_suite(args.suite, args.seed, args.n_samples)
    if args.n_samples == 0:
        if certs:
            sys.stderr.write(f"warning: n-samples=0, only the {len(certs)} "
                             "sample-independent checks ran\n")
        else:
            sys.stderr.write("warning: n-samples=0, the pass is vacuous\n")
    summary = summarize(certs)
    width = max((len(label) for label in summary), default=10)
    ok = True
    for label in sorted(summary):
        entry = summary[label]
        status = "pass" if entry["passed"] else "FAIL"
        ok &= entry["passed"]
        sys.stdout.write(f"{label.ljust(width)}  n={entry['count']:<6d} "
                         f"min_slack={entry['min_slack']: .3e} "
                         f"tol={entry['tol']:.0e}  {status}\n")
    if args.out:
        _emit(certificates_to_csv(certs), args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_embed(args) -> int:
    rho = load_state(args.state)
    if len(rho.dims) != 1:
        raise ResourceKitError("embed expects a single-system state file")
    emb = build_embedding(rho.d)
    spec = spectral(rho)
    kept = [(float(lam), PureState(rho.dims, col.copy()))
            for lam, col in zip(spec.eigenvalues, spec.eigenvectors.T) if lam > 1e-12]
    infos = depth_correspondence(emb, [psi for _, psi in kept])
    depth_rows = [{"weight": lam, **info} for (lam, _), info in zip(kept, infos)]
    reports = {}
    for k in args.k:
        for a in args.alpha:
            rows = theorem3_check(rho, k, a, seed=args.seed, max_iter=args.max_iter)
            reports[f"k={k},alpha={a!r}"] = json.loads(transport_report_json(rows))
    text = json.dumps({"depths": depth_rows, "transport": reports}) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; preserve that contract
        return int(exc.code) if exc.code else EXIT_OK
    handlers = {"affinity": _cmd_affinity, "indicator": _cmd_indicator,
                "verify": _cmd_verify, "embed": _cmd_embed}
    try:
        return handlers[args.command](args)
    except (ResourceKitError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
