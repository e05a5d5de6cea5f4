"""Command-line surface: compute, print tables, run verification sweeps.

Exit codes: 0 success, 1 domain error or a reader that closed the output
early, 2 usage error, 3 verification failure (a theorem target found a
counterexample).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import DomainError, ParseError
from .sets import (
    FiniteSet,
    _elements_text,
    _natural,
    _naturals,
    divisor_count,
    divisors,
    interval,
    interval_positive,
    is_irreducible,
    sumset,
)

# The kernels beyond sets load in the handlers that call them, so a
# command imports only what it runs.
if TYPE_CHECKING:
    from .compositions import Composition

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_COUNTEREXAMPLE = 3


def parse_set(text: str) -> FiniteSet:
    """Set literals: '0,2,3' or the interval forms '[7]' and '[7+]'."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1]
        plus = body.endswith("+")
        if plus:
            body = body[:-1]
        k = _natural(body, "interval endpoint")
        if plus and k < 1:
            raise ParseError(f"invalid interval endpoint in {text!r}")
        return interval_positive(k) if plus else interval(k)
    return FiniteSet(_naturals(text, "set element"))


# Listings are written this many items at a time, so the text of a long
# list is never held whole.
_CHUNK = 4096


def _write_listing(items, fmt, sep: str, head: str, tail: str) -> None:
    """Write head, the items formatted by fmt and joined by sep, then tail,
    to the sys.stdout of the moment."""
    out = sys.stdout
    out.write(head)
    for i in range(0, len(items), _CHUNK):
        if i:
            out.write(sep)
        out.write(sep.join(map(fmt, items[i : i + _CHUNK])))
    out.write(tail)


# The JSON text of one set or composition, as json.dumps writes it.

def _set_json(s: FiniteSet) -> str:
    return "[" + _elements_text(s.mask) + "]"


def _composition_json(c: Composition) -> str:
    return "[" + ", ".join(map(str, c.parts)) + "]"


def _emit(args, value) -> None:
    """Print one computed value: a set as its literal or JSON list, an int
    or bool as its JSON text either way, a lunar number as its digit
    string, quoted under --json."""
    if isinstance(value, FiniteSet):
        print(_set_json(value) if args.json else value)
    elif isinstance(value, int):  # bool too
        print(json.dumps(value))
    else:
        print(json.dumps(str(value)) if args.json else value)


# ---------------------------------------------------------------------------
# Subcommand handlers.

def _cmd_sum(args) -> int:
    _emit(args, sumset(parse_set(args.a), parse_set(args.b)))
    return EXIT_OK


def _cmd_divisors(args) -> int:
    divs = divisors(parse_set(args.a))
    if args.json:
        _write_listing(divs, _set_json, ", ", "[", "]\n")
    else:
        _write_listing(divs, str, "\n", "", "\n")
    return EXIT_OK


def _cmd_count(args) -> int:
    _emit(args, divisor_count(parse_set(args.a)))
    return EXIT_OK


def _cmd_irreducible(args) -> int:
    _emit(args, is_irreducible(parse_set(args.a)))
    return EXIT_OK


def _cmd_lunar(args) -> int:
    from . import lunar

    parse = lunar.LunarNumber.parse
    if args.lunar_op != "divisors":
        kernel = lunar.lunar_add if args.lunar_op == "add" else lunar.lunar_mul
        _emit(args, kernel(parse(args.x), parse(args.y)))
    else:
        n = parse(args.x)
        divs, _, spell = lunar._divisor_listing(n)  # no number per divisor
        at = f"@{n.base}"
        if args.json:  # digits and "@" need no escaping
            head = f'{{"count": {len(divs)}, "divisors": ['
            _write_listing(divs, lambda d: f'"{spell(d)}{at}"', ", ", head, "]}\n")
        else:
            tail = f"\ncount: {len(divs)}\n"
            _write_listing(divs, lambda d: spell(d) + at, "\n", "", tail)
    return EXIT_OK


def _cmd_beta(args) -> int:
    from . import lunar

    if args.inverse:
        _emit(args, lunar.beta_inv(lunar.LunarNumber.parse(args.value)))
    else:
        _emit(args, lunar.beta(parse_set(args.value)))
    return EXIT_OK


def _cmd_promote(args) -> int:
    from . import promotion

    _emit(args, promotion.promote(
        parse_set(args.a), args.k, parse_set(args.factor), args.other_max
    ))
    return EXIT_OK


def _cmd_compositions(args) -> int:
    from . import compositions

    if args.parts is not None:
        _emit(args, compositions.headstrong_by_parts(args.n, args.parts))
        return EXIT_OK
    if args.count:
        _emit(args, compositions.headstrong_count(args.n))
        return EXIT_OK
    comps = compositions.enumerate_headstrong(args.n)
    if args.json:
        _write_listing(comps, _composition_json, ", ", "[", "]\n")
    else:
        _write_listing(comps, str, "\n", "", "\n")
    return EXIT_OK


def format_table(table: list[list[int]], fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(",".join(map(str, row)) for row in table)
    if fmt == "json":
        return json.dumps(table, sort_keys=True)
    return "\n".join(" ".join(str(v) for v in row) for row in table)


def _cmd_table(args) -> int:
    from . import compositions

    if args.kind == "H" and args.cols is not None:
        args.usage_error("--cols applies to the F table only")  # exits 2
    if args.kind == "F":
        cols = args.cols if args.cols is not None else args.rows
        table = compositions.f_table(args.rows, cols)
    else:
        table = compositions.h_table(args.rows)
    print(format_table(table, args.format))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify

    report = verify.run_target(
        args.target, max_k=args.max_k, promotion_max_k=args.promotion_max_k
    )
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(f"target: {report.target}")
        print(f"range: {report.range}")
        print(f"status: {report.status}")
        print(f"counterexamples: {len(report.counterexamples)}")
        for c in report.counterexamples[:20]:
            print(f"  {c}")
        if report.details:
            print(f"details: {json.dumps(report.details, sort_keys=True)}")
        print(f"elapsed: {report.elapsed:.2f}s")
    return EXIT_COUNTEREXAMPLE if report.status == "fail" else EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring.

class _TargetNames:
    """verify's target names, read only when argparse checks a target or
    prints help (it falls back on __iter__ for `in`).  With a metavar,
    add_argument never reads choices, so building the parser does not
    import verify."""

    def __iter__(self):
        from . import verify

        return iter(verify.THEOREM_TARGETS + verify.CONJECTURE_TARGETS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="sumdiv",
        description=(
            "Sumset divisor arithmetic, lunar numbers, headstrong "
            "compositions, and verification sweeps. Set literals: '0,2,3', "
            "'[7]' (full interval), '[7+]' (interval without 0)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("sum", help="sumset of two sets")
    p.add_argument("a")
    p.add_argument("b")
    add_json(p)
    p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("divisors", help="all sumset divisors of a set")
    p.add_argument("a")
    add_json(p)
    p.set_defaults(handler=_cmd_divisors)

    p = sub.add_parser("count", help="number of sumset divisors")
    p.add_argument("a")
    add_json(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("irreducible", help="test additive irreducibility")
    p.add_argument("a")
    add_json(p)
    p.set_defaults(handler=_cmd_irreducible)

    p = sub.add_parser("lunar", help="lunar arithmetic on digit strings")
    lsub = p.add_subparsers(dest="lunar_op", required=True)
    for op in ("add", "mul"):
        lp = lsub.add_parser(op)
        lp.add_argument("x")
        lp.add_argument("y")
        add_json(lp)
        lp.set_defaults(handler=_cmd_lunar)
    lp = lsub.add_parser("divisors")
    lp.add_argument("x")
    add_json(lp)
    lp.set_defaults(handler=_cmd_lunar)

    p = sub.add_parser("beta", help="set <-> binary lunar number")
    p.add_argument("value")
    p.add_argument("--inverse", action="store_true",
                   help="convert a base-2 number back to a set")
    add_json(p)
    p.set_defaults(handler=_cmd_beta)

    p = sub.add_parser("promote", help="k-promotion of a factor")
    p.add_argument("a", help="the 0-rooted product set")
    p.add_argument("k", type=int, help="interval endpoint")
    p.add_argument("factor", help="factor being augmented")
    p.add_argument("other_max", type=int,
                   help="max of the complementary factor")
    add_json(p)
    p.set_defaults(handler=_cmd_promote)

    p = sub.add_parser("compositions", help="headstrong compositions of n")
    p.add_argument("n", type=int)
    counts = p.add_mutually_exclusive_group()
    counts.add_argument("--parts", type=int, default=None,
                        help="count only those with exactly this many parts")
    counts.add_argument("--count", action="store_true",
                        help="print the total count instead of the list")
    add_json(p)
    p.set_defaults(handler=_cmd_compositions)

    p = sub.add_parser("table", help="print the F or H table")
    p.add_argument("kind", choices=("F", "H"))
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, default=None,
                   help="columns for the F table (default: rows)")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.set_defaults(handler=_cmd_table, usage_error=p.error)

    p = sub.add_parser("verify", help="run a verification target")
    p.add_argument(
        "target",
        choices=_TargetNames(),
        metavar="TARGET",
        help="one of: %(choices)s",
    )
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    p.add_argument("--promotion-max-k", type=int, default=None,
                   dest="promotion_max_k",
                   help="bound for the family-disjointness sweep (crlodd)")
    add_json(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # The reader left early (`| head`).  Point stdout at devnull, so
        # that the flush at exit does not fail again, and report that the
        # output is incomplete.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
