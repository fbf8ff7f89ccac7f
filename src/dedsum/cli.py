"""Command line interface.

Six subcommands: sum, cf, surd, family, verify, search.  Exit codes are
0 on success, 2 for invalid input, 3 when an internal re-verification
fails (which signals a bug, never expected use), and 141 when the reader
of stdout goes away early (e.g. ``| head``); 141 is what a shell reports
for a process ended by SIGPIPE.  Integers of any size are accepted and
printed: CPython's int/str conversion limit is lifted while ``main``
runs.

Machine formats never contain floating point and render every integer as
a decimal string, so family members and deep convergents survive
consumers that would truncate at 64 bits.  JSON is emitted in one
canonical style (sorted keys, compact separators) and therefore
round-trips byte-for-byte through ``json.loads``/re-dump.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import contfrac, family, rational, search, surd
from .dedekind import dedekind_sum_naive, normalized_sum_fast, reduce_pair
from .family import VerificationError
from .surd import ConsistencyError


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _human_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else rational.format_exact(q)


def _cmd_sum(args) -> int:
    pair = reduce_pair(args.a, args.b)
    if args.method == "naive":
        s = dedekind_sum_naive(pair.a, pair.b)
        big = 12 * s
    else:
        big = normalized_sum_fast(pair.a, pair.b)
        s = big / 12
    if args.format == "json":
        print(_jdump({
            "a": str(pair.a),
            "b": str(pair.b),
            "method": args.method,
            "s": rational.format_exact(s),
            "S": rational.format_exact(big),
        }))
    else:
        print(f"s({pair.a}, {pair.b}) = {_human_rat(s)}")
        print(f"S({pair.a}, {pair.b}) = {_human_rat(big)}"
              f"  (approx {rational.decimal_approx(big)})")
    return 0


def _cmd_cf(args) -> int:
    pair = reduce_pair(args.a, args.b)
    e = contfrac.expand(pair.a, pair.b)
    alt = contfrac.to_alternate(e) if e.terms else None
    if args.format == "json":
        print(_jdump({
            "a": str(pair.a),
            "b": str(pair.b),
            "terms": [str(c) for c in e.terms],
            "alternate": None if alt is None else [str(c) for c in alt.terms],
            "value": rational.format_exact(contfrac.evaluate(e)),
        }))
    else:
        print(f"{pair.a}/{pair.b} = {e}")
        print(f"alternate form: {alt if alt is not None else '(none)'}")
    return 0


def _cmd_surd(args) -> int:
    s = surd.surd_from_period(args.terms)
    value = surd.closed_form_value(s) if s.length % 2 == 1 else None
    if args.format == "json":
        print(_jdump({
            "period": [str(c) for c in s.period],
            "quadratic": [str(s.a), str(s.b), str(s.c)],
            "equation": s.equation_text(),
            "radical": s.radical_text(),
            "disc": str(s.disc),
            "trace": rational.format_exact(s.trace()),
            "value": None if value is None else rational.format_exact(value),
        }))
    else:
        print(f"period {s.period}, length {s.length}")
        print(f"quadratic: {s.equation_text()}")
        print(f"x = {s.radical_text()}")
        print(f"trace x + x' = {_human_rat(s.trace())}")
        if value is not None:
            print(f"value S = {_human_rat(value)}")
    return 0


def _cmd_family(args) -> int:
    plan = family.plan_family(args.a, args.b, args.c)
    rows = family.members(plan, args.count)
    for m in rows:  # fail closed: nothing is printed unless every member checks out
        if not family.verify_member(m, plan.source):
            raise VerificationError(
                f"member t={m.t} ({m.pair.a}, {m.pair.b}) does not match the source value"
            )
    if args.format == "json":
        print(_jdump({
            "a": str(plan.source.a),
            "b": str(plan.source.b),
            "case": plan.case.value,
            "period": None if plan.period is None else [str(c) for c in plan.period],
            "L": plan.period_length,
            "c": plan.appended_term,
            "S": rational.format_exact(plan.value),
        }))
        for m in rows:
            print(_jdump({
                "t": m.t,
                "k": m.k,
                "a": str(m.pair.a),
                "b": str(m.pair.b),
                "S": rational.format_exact(m.value),
            }))
    else:
        period = "-" if plan.period is None else str(plan.period)
        print(f"source ({plan.source.a}, {plan.source.b})  case {plan.case.value}  "
              f"period {period}  S = {_human_rat(plan.value)}")
        for m in rows:
            k = "-" if m.k is None else m.k
            print(f"t={m.t}  k={k}  a={m.pair.a}  b={m.pair.b}")
    return 0


def _cmd_verify(args) -> int:
    ok = family.verify_period_constancy(args.terms, args.depth)
    length = len(args.terms)
    indices = [length - 1 + 2 * length * t for t in range(args.depth)]
    row = contfrac.convergents(args.terms, indices[0])[-1]
    constant = normalized_sum_fast(row.p, row.q)
    if args.format == "json":
        print(_jdump({
            "period": [str(c) for c in args.terms],
            "depth": args.depth,
            "indices": indices,
            "constant": rational.format_exact(constant),
            "ok": ok,
        }))
    else:
        ks = ", ".join(str(k) for k in indices)
        print(f"constant S = {_human_rat(constant)} at k = {ks}: {'ok' if ok else 'FAILED'}")
    if not ok:
        raise VerificationError("sum is not constant along the index progression")
    return 0


def _cmd_search(args) -> int:
    target = rational.parse_exact(args.target)
    if args.format == "json":
        result = search.search_value(target, args.bound,
                                     prune=not args.no_prune, jobs=args.jobs)
        print(_jdump([{"a": str(p.a), "b": str(p.b)} for p in result.hits]))
        return 0
    if args.format == "tsv":
        emit = lambda p: print(f"{p.a}\t{p.b}")
        search.search_stream(target, args.bound, emit,
                             prune=not args.no_prune, jobs=args.jobs)
        return 0
    result = search.search_value(target, args.bound,
                                 prune=not args.no_prune, jobs=args.jobs)
    print(f"S = {_human_rat(target)} for b < {args.bound}: "
          f"{len(result.hits)} pairs (scanned {result.pairs_scanned})")
    for p in result.hits:
        print(f"({p.a}, {p.b})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dedsum",
        description="Exact Dedekind sums, continued fractions, and value families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("human", "json")):
        p.add_argument("--format", choices=choices, default="human")

    p = sub.add_parser("sum", help="evaluate s(a,b) and S(a,b)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--method", choices=("fast", "naive"), default="fast")
    add_format(p)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("cf", help="canonical continued fraction of a/b")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("surd", help="quadratic data of a periodic continued fraction")
    p.add_argument("terms", type=int, nargs="+", metavar="c")
    add_format(p)
    p.set_defaults(func=_cmd_surd)

    p = sub.add_parser("family", help="stream coprime pairs sharing S(a,b)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--c", type=int, default=1,
                   help="free appended term for even-length expansions (default 1)")
    p.add_argument("--count", type=int, default=5, help="members to print (default 5)")
    add_format(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="check the constant-sum identity along a period")
    p.add_argument("terms", type=int, nargs="+", metavar="c")
    p.add_argument("--depth", type=int, default=3,
                   help="how many indices of the progression to test (default 3)")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="all pairs with S(a,b) = target and b < bound")
    p.add_argument("target", help='rational target, e.g. "18/7"')
    p.add_argument("bound", type=int, help="exclusive upper bound on b")
    p.add_argument("--no-prune", action="store_true",
                   help="disable the even-integer denominator filter")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    add_format(p, choices=("human", "json", "tsv"))
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    # CPython 3.10.7+ refuses int/str conversions past 4,300 digits;
    # older versions have no such limit and no setter.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's own flush at exit
        # cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        if lift:
            sys.set_int_max_str_digits(old_limit)


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, ConsistencyError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
