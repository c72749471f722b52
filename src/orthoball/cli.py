"""Command-line front end: run verification suites or export a basis.

Exit codes: 0 when every check passes (skips allowed), 1 when any check
fails, 2 on a configuration error, when every selected suite is skipped (a
report with nothing checked cannot pass), or when the output cannot be written,
and 3 on an internal error: an exception that escapes the verifier or the
export prints its traceback to stderr, and no report or export is written.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

# No package module is imported at module level: main imports the verifier only for a
# verifier run (or to list its suites in --help) and the bases only for an export, and
# the verifier loads only the layers that the selected suites read.

# The options whose value may start with a minus sign and a digit.
_SIGNED_OPTIONS = ("--mu", "--lambda", "--M", "--export-basis")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like '1/2', got {text!r}: {exc}")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite '--mu -1/4' as '--mu=-1/4': argparse reads a lone '-1/4' or '-1,lambda' as an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _SIGNED_OPTIONS and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


class _Formatter(argparse.HelpFormatter):
    """Fills text without breaking at hyphens, so every suite name prints whole."""

    def _fill_text(self, text, width, indent):
        import textwrap

        return textwrap.fill(" ".join(text.split()), width, initial_indent=indent,
                             subsequent_indent=indent, break_on_hyphens=False)


class _Parser(argparse.ArgumentParser):
    """The CLI's parser; its help ends with the suite names, read from the verifier only then."""

    def format_help(self) -> str:
        from .verify import SUITE_NAMES

        self.epilog = "suites: " + ", ".join(SUITE_NAMES)
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orthoball",
        formatter_class=_Formatter,
        description=(
            "Verify, in exact rational arithmetic, the orthogonality and "
            "differential identities of the ball bases, or export a basis."
        ),
    )
    parser.add_argument("--dim", type=int, default=2, help="ambient dimension d >= 2")
    parser.add_argument("--mu", type=_fraction, default=Fraction(1, 2),
                        help="ball weight exponent parameter, rational > -1/2 (default 1/2)")
    parser.add_argument("--lambda", dest="lam", type=_fraction, default=None,
                        help="sphere coupling; mutually exclusive with --M")
    parser.add_argument("--M", dest="mass", type=_fraction, default=None,
                        help="point-mass coupling M = d/(2*lambda); mutually exclusive with --lambda")
    parser.add_argument("--max-degree", type=int, default=4, help="largest total degree to verify")
    parser.add_argument("--suites", default="all",
                        help="comma-separated subset of the suites listed below; or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="seed for the randomized sweeps")
    parser.add_argument("--out", default=None, help="write the report (or export) here instead of stdout")
    parser.add_argument("--export-basis", default=None, metavar="N,KIND",
                        help="export the degree-N basis of the given kind (classical or lambda) and exit")
    parser.add_argument("--corrupt-eigenvalue", action="store_true",
                        help="self-test hook: offset the fourth-order eigenvalue so the suite must fail")
    return parser


def _write(text: str, out_path: str | None) -> bool:
    if out_path is None:
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _run_export(args) -> int:
    """Write the basis that --export-basis names; reads only --dim, --mu, --lambda/--M and --out."""
    from .bases import basis_export_text
    from .polynomials import _couplings

    try:
        lam, _ = _couplings(args.dim, args.lam, args.mass)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        raw_n, _, raw_kind = args.export_basis.partition(",")
        n = int(raw_n)
        kind = raw_kind.strip() or "classical"
    except ValueError:
        print(f"--export-basis expects 'N,kind', got {args.export_basis!r}", file=sys.stderr)
        return 2
    try:
        text = basis_export_text(n, args.dim, args.mu, lam, kind)
    except ValueError as exc:  # ExactnessError included
        print(f"export failed: {exc}", file=sys.stderr)
        return 2
    return 0 if _write(text, args.out) else 2


def _run_verifier(args) -> int:
    """Run the selected suites and write their report; reads every option but --export-basis."""
    from .verify import STATUS_FAIL, STATUS_SKIP, SuiteConfig, report_lines, run_suites

    try:
        cfg = SuiteConfig(
            dim=args.dim,
            mu=args.mu,
            lam=args.lam,
            mass=args.mass,
            max_degree=args.max_degree,
            suites=tuple(s.strip() for s in args.suites.split(",") if s.strip()),
            seed=args.seed,
            corrupt_eigenvalue=args.corrupt_eigenvalue,
        )
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    records = run_suites(cfg)
    if all(r.status == STATUS_SKIP for r in records):
        reasons = "; ".join(f"{r.suite}: {r.params['reason']}" for r in records)
        print(f"configuration error: every selected suite was skipped ({reasons})", file=sys.stderr)
        return 2
    if not _write("\n".join(report_lines(cfg, records)) + "\n", args.out):
        return 2
    return 1 if any(r.status == STATUS_FAIL for r in records) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_negative_values(argv))
    except SystemExit as exc:  # argparse has printed the usage error (2) or --help (0)
        return exc.code
    try:
        return _run_export(args) if args.export_basis is not None else _run_verifier(args)
    except Exception:  # an internal error, not a failed check: it must not read as exit 1
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
