"""Command-line front end.

Subcommands:

  analyze FIELD MSC        full structure report for one algebra
  canonical FAM REGIME PARAMS FIELD
                           instantiate a canonical family and verify the
                           catalogued predictions at that point
  verify SCOPE FIELD       sweep a family (or `all`) against the catalogue
  roots FIELD POLY         root-count classification of a cubic

Exit status: 0 on success (catalogue mismatches are reported, not fatal,
and a reader that closes the pipe early is not an error), 1 when the solver
disagrees with the brute-force oracle or two of the package's own
derivations disagree (a bug in this package), 2 on bad input.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .algebra import MSC, OracleMismatch
from .fields import FieldError, InfiniteField, ParseError, _numeral, parse_el, parse_field
from .families import FamilyId, Regime, all_family_ids, instantiate
from .poly import cubic_root_count, parse_poly, roots_in_field, splitting_field
from .report import analyze, dumps, render_text
from .solvers import InternalInconsistency
from .sweep import (
    FLAG_ROWS,
    adjudicate_flag,
    mismatch_records,
    sweep_family,
    verify_point,
)


def cmd_analyze(args) -> int:
    field = parse_field(args.field)
    A = MSC.parse(field, args.msc)
    report = analyze(A, closed=args.closed, oracle=args.oracle)
    if args.json:
        print(report.dumps())
    else:
        print(render_text(report))
    return 0


def cmd_canonical(args) -> int:
    field = parse_field(args.field)
    if not field.is_finite:
        raise InfiniteField("canonical checks the catalogue over a finite field")
    regime = Regime.parse(args.regime)
    family = FamilyId.parse(args.family, regime)
    text = args.params
    params = tuple(parse_el(field, t) for t in text.split(",")) if text.strip() else ()
    A = instantiate(family, params, field)
    report = analyze(A, closed=args.closed, oracle=args.oracle)
    records = verify_point(family, params, field)
    if args.json:
        print(report.dumps())
        for rec in records:
            print(dumps(rec))
    else:
        print(render_text(report))
        print("catalogue predictions:")
        for rec in records:
            mark = "agree" if rec["verdict"] == "agree" else "MISMATCH"
            print(
                f"  {rec['quantity']}: predicted {rec['predicted']}, "
                f"solved {rec['solved']} -> {mark} [{rec['citation']}]"
            )
    return 0


def _budget(text: str):
    """`exhaustive` or a positive sample count."""
    if text == "exhaustive":
        return text
    error = f"budget must be a positive integer or `exhaustive`, not {text!r}"
    n = _numeral(text, error)
    if n < 1:
        raise ParseError(error)
    return n


def _seed(text: str) -> int:
    """An integer seed: ASCII decimal digits after at most one minus sign."""
    error = f"seed must be an integer, not {text!r}"
    return -_numeral(text[1:], error) if text.startswith("-") else _numeral(text, error)


def cmd_verify(args) -> int:
    field = parse_field(args.field)
    if not field.is_finite:
        raise InfiniteField("verify sweeps parameter grids over a finite field")
    budget = _budget(args.budget)
    seed = _seed(args.seed)
    regime = Regime.of_field(field)
    if args.scope.lower() == "all":
        families = all_family_ids(regime)
    else:
        families = [FamilyId.parse(args.scope, regime)]
    records = [rec for fam in families for rec in sweep_family(fam, field, budget, seed)]
    flag_reports = [
        adjudicate_flag(name, field, budget, seed)
        for name, (_, r, idx) in sorted(FLAG_ROWS.items())
        if r == regime and any(fam.index == idx for fam in families)
    ]
    bad = mismatch_records(records)
    if args.json:
        for rec in records:
            print(dumps(rec))
        for fr in flag_reports:
            print(dumps(fr))
        print(
            dumps(
                {
                    "summary": {
                        "records": len(records),
                        "mismatches": len(bad),
                        "field": field.text(),
                        "scope": args.scope,
                    }
                }
            )
        )
    else:
        print(
            f"verified {len(records)} catalogue predictions over {field.text()}: "
            f"{len(records) - len(bad)} agree, {len(bad)} mismatches"
        )
        for rec in bad:
            print(
                f"  {rec['family']}({','.join(rec['params'])}) {rec['quantity']}: "
                f"table says {rec['predicted']}, solver says {rec['solved']} "
                f"(oracle: {rec['oracle']}) [{rec['citation']}]"
            )
        for fr in flag_reports:
            print(
                f"  reading '{fr['flag']}': {fr['readings']} -> {fr['verdict']}"
            )
    return 0


def cmd_roots(args) -> int:
    field = parse_field(args.field)
    f = parse_poly(field, args.poly)
    if f.degree > 3:
        raise FieldError("the classifier handles degree <= 3 only")
    cat = cubic_root_count(f.coeff(3), f.coeff(2), f.coeff(1), f.coeff(0))
    in_field = "all elements" if f.is_zero else [r.text() for r in roots_in_field(f)]
    out = {
        "field": field.text(),
        "poly": f.text(),
        "category": cat.label,
        "roots_in_field": in_field,
    }
    if field.is_finite and not f.is_zero:
        ext, ext_roots = splitting_field(f)
        out["splitting_field"] = ext.text()
        out["roots_in_splitting_field"] = [r.text() for r in ext_roots]
    if args.json:
        print(dumps(out))
    else:
        print(f"{f.text()} over {field.text()}: {cat.label} distinct roots in closure")
        print(f"  in-field roots: {out['roots_in_field']}")
        if "splitting_field" in out:
            print(
                f"  splitting field {out['splitting_field']}: "
                f"roots {out['roots_in_splitting_field']}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="alg2d",
        description="Exact structure analysis of two-dimensional algebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one matrix of structure constants")
    pa.add_argument("field", help="gf(p) | gf(p,k) | gf(p,k;c0,..,ck) | q")
    pa.add_argument("msc", help="a1,a2,a3,a4;b1,b2,b3,b4")
    pa.add_argument("--closed", action="store_true", help="enumerate over splitting fields")
    pa.add_argument("--oracle", action="store_true", help="cross-check by exhaustive search")
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(fn=cmd_analyze)

    pc = sub.add_parser("canonical", help="instantiate and verify a canonical family")
    pc.add_argument("family", help="A1 .. A12")
    pc.add_argument("regime", help="ne23 | char2 | char3")
    pc.add_argument("params", help="comma-separated parameters (empty for none)")
    pc.add_argument("field")
    pc.add_argument("--closed", action="store_true")
    pc.add_argument("--oracle", action="store_true")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=cmd_canonical)

    pv = sub.add_parser("verify", help="sweep the catalogue tables against the solver")
    pv.add_argument("scope", help="a family name or `all`")
    pv.add_argument("field")
    pv.add_argument("--budget", default="exhaustive", help="sample count or `exhaustive`")
    pv.add_argument("--seed", default="0")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(fn=cmd_verify)

    pr = sub.add_parser("roots", help="classify the roots of a polynomial of degree <= 3")
    pr.add_argument("field")
    pr.add_argument("poly", help="constant-first coefficients, e.g. 1,0,0,1")
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(fn=cmd_roots)
    # a positional may start with a minus sign and a digit ("-1,0,1"), as no
    # option does; argparse would read it as an unknown option
    for p in (ap, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\d")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`); the flush at exit must not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OracleMismatch as exc:
        print(f"ORACLE MISMATCH (implementation bug): {exc}", file=sys.stderr)
        return 1
    except InternalInconsistency as exc:
        print(f"error: internal inconsistency (implementation bug): {exc}", file=sys.stderr)
        return 1
    except FieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
