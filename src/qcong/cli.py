"""Command-line front end.

Subcommands:

  cyclotomic N              print the N-th cyclotomic polynomial
  qbinom ALPHA K [--base D] print a Gaussian binomial (any integer top)
  qpoch R D K               print the finite product prod_j (1 - q^(R + j*D))
  transform                 apply a triangular transform to a family prefix
  congruent                 decide a congruence between two expression files
  verify THEOREM            run one check and print PASS/FAIL
  sweep                     run a config-driven grid and emit records

Expression files for ``congruent`` hold one polynomial per line in the
canonical text form ("3/2*q^0 + 1*q^3"); a second line, when present, is a
denominator.  Exit codes: 0 success/holds, 1 check failed, 2 bad usage or
an ill-posed input (for instance a denominator sharing a factor with the
modulus, a sweep cell whose check raised, or a request whose exponent span
exceeds MAX_SPAN).

Each subcommand is defined once, where build_parser adds its subparser:
set_defaults gives it a span, the exponent span the request works over
from its arguments alone, and a run, which returns the exit code.  A verify
request is charged its check's Check.cost, so this module names no check.
main parses, refuses a request whose span exceeds MAX_SPAN before it runs,
runs it, and maps ValueError, ArithmeticError and OSError to exit 2.

A flag value may be negative, a fraction or a range (``--alpha -3/4``,
``--r -2..2``): such a value is attached to its flag before parsing, since
argparse reads only plain negative numbers as values.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import partial

from .bivariate import RatExpr
from .congruence import residual
from .cyclotomic import cyclotomic
from .families import generate
from .laurent import LaurentPoly, clipped, digits_past_limit
from .qcalc import qbinom_base, qpoch
from .sweep import CONFIG_KEYS, format_summary, load_config, run_sweep
from .theorems import CHECKS, MAX_SPAN, _poch_span, _qbinom_span, _transform_span
from .transforms import hat, tilde


def _int(text: str) -> int:
    """int(text), for argparse, which names the argument in a refusal; a
    number past the int-string digit limit is refused without its digits."""
    try:
        return int(text)
    except ValueError:
        message = digits_past_limit(text) or f"invalid int value: {clipped(repr(text))}"
        raise argparse.ArgumentTypeError(message) from None


# verify flags other than required integers; each check needs the flags of its args
_VERIFY_FLAGS = {
    "family": {"default": "ones"},
    "p": {"type": _int, "help": "odd prime (classical check)"},
    "alpha": {"help": "rational alpha (classical check)"},
    "seed": {"type": _int, "default": 0},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="q-congruence checks for symmetric sum transforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cyclotomic", help="print the n-th cyclotomic polynomial")
    p.add_argument("n", type=_int)
    # Phi_n is divided out of q^n - 1
    p.set_defaults(span=lambda args: args.n, run=lambda args: _show(cyclotomic(args.n)))

    p = sub.add_parser("qbinom", help="print a Gaussian binomial coefficient")
    p.add_argument("alpha", type=_int, help="top index, any integer")
    p.add_argument("k", type=_int)
    p.add_argument("--base", type=_int, default=1, metavar="D",
                   help="evaluate at q^D (default 1)")
    p.set_defaults(span=lambda args: abs(args.base) * _qbinom_span(args.alpha, args.k),
                   run=lambda args: _show(qbinom_base(args.alpha, args.k, args.base)))

    p = sub.add_parser("qpoch", help="print prod_{j<k} (1 - q^(r + j*d))")
    p.add_argument("r", type=_int)
    p.add_argument("d", type=_int)
    p.add_argument("k", type=_int)
    p.set_defaults(span=lambda args: _poch_span(args.r, args.d, args.k),
                   run=lambda args: _show(qpoch(args.r, args.d, args.k)))

    p = sub.add_parser("transform", help="apply hat or tilde to a family prefix")
    p.add_argument("--kind", required=True, choices=("hat", "tilde"))
    p.add_argument("--family", required=True, metavar="NAME",
                   help="family label, e.g. ones, delta:1, random_poly:7:3")
    p.add_argument("--length", required=True, type=_int, metavar="L")
    p.set_defaults(span=lambda args: _transform_span(args.length, args.family), run=partial(_cmd_transform, parser))

    p = sub.add_parser("congruent", help="decide lhs = rhs mod Phi_n(q)^m")
    p.add_argument("--n", required=True, type=_int)
    p.add_argument("--m", required=True, type=_int)
    p.add_argument("--lhs", required=True, metavar="FILE")
    p.add_argument("--rhs", required=True, metavar="FILE")
    # every term is folded below degree m*n
    p.set_defaults(span=lambda args: args.n * args.m, run=_cmd_congruent)

    p = sub.add_parser("verify", help="run a single check")
    p.add_argument("theorem", choices=tuple(CHECKS), type=clipped)  # argparse echoes an invalid choice
    names = dict.fromkeys(arg for check in CHECKS.values() for arg in check.args)
    for name in sorted(names, key=lambda name: name in _VERIFY_FLAGS):  # integers first
        p.add_argument(f"--{name}", **_VERIFY_FLAGS.get(name, {"type": _int}))
    p.set_defaults(span=_verify_span, run=partial(_cmd_verify, parser))

    p = sub.add_parser("sweep", help="run a parameter grid from a config file")
    p.add_argument("--config", metavar="FILE")
    for key in CONFIG_KEYS:
        p.add_argument("--" + key.replace("_", "-"), metavar="V[,V...]")
    p.set_defaults(span=lambda args: 0, run=partial(_cmd_sweep, parser))
    return parser


_NEGATIVE = re.compile(r"-\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write '--flag -3/4' as '--flag=-3/4'."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if _NEGATIVE.match(tok) and prev.startswith("--") and len(prev) > 2 and "=" not in prev:
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _read_expr(path: str) -> RatExpr:
    lines = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                lines.append(line)
    if len(lines) == 1:
        return RatExpr(LaurentPoly.parse(lines[0]))
    if len(lines) == 2:
        return RatExpr(LaurentPoly.parse(lines[0]), LaurentPoly.parse(lines[1]))
    raise ValueError(f"{path}: expected one polynomial line or numerator/denominator pair")


def _print_report(rep) -> int:
    status = "PASS" if rep.holds else "FAIL"
    parts = [f"{key}={value}" for key, value in rep.params.items()]
    if rep.branch is not None:
        parts.append(f"branch={rep.branch}")
    if rep.a is not None and "a" not in rep.params:
        parts.append(f"a={rep.a}")
    if rep.exponent is not None:
        parts.append(f"exponent={rep.exponent}")
    if rep.sign is not None:
        parts.append(f"sign={'+1' if rep.sign > 0 else '-1'}")
    print(f"{status} {rep.check} " + " ".join(parts) + f" [{rep.wall_time * 1000:.1f} ms]")
    if rep.residual is not None:
        print(f"residual: {rep.residual}")
    return 0 if rep.holds else 1


def _show(value) -> int:
    print(value)
    return 0


def _cmd_transform(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.length < 2:
        parser.error("--length must be at least 2")
    fs = generate(args.family, args.length)
    for k, entry in enumerate(hat(fs) if args.kind == "hat" else tilde(fs)):
        print(f"{k}: {entry}")
    return 0


def _cmd_congruent(args: argparse.Namespace) -> int:
    res = residual(_read_expr(args.lhs), _read_expr(args.rhs), args.n, args.m)
    if not res:  # zero exactly when the congruence holds
        print("CONGRUENT")
        return 0
    print("NOT CONGRUENT")
    print(f"residual: {res}")
    return 1


def _verify_span(args: argparse.Namespace) -> int:
    """The check's own Check.cost; a missing flag spans 0, so _cmd_verify reports it."""
    check = CHECKS[args.theorem]
    values = [getattr(args, name) for name in check.args]
    return 0 if None in values else check.cost(*values)


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    check = CHECKS[args.theorem]
    values = [getattr(args, name) for name in check.args]
    missing = [f"--{name}" for name, value in zip(check.args, values) if value is None]
    if missing:
        parser.error(f"verify {args.theorem} needs {', '.join(missing)}")
    return _print_report(check.run(*values))


def _cmd_sweep(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key) is not None}
    if not args.config and not overrides:
        parser.error("sweep needs --config or at least --theorems/--n flags")
    summary = run_sweep(load_config(args.config, overrides))
    print(format_summary(summary), file=sys.stderr)
    if summary.errors:
        print(f"error: {summary.errors} sweep task(s) raised; see their error records", file=sys.stderr)
        return 2
    return 0 if summary.failed == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if args.span(args) > MAX_SPAN:
            raise ValueError(f"{args.command} would span more than {MAX_SPAN} exponents")
        return args.run(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
