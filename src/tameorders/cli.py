"""Command-line front end.

Exit codes: 0 success, 1 parse/IO/usage errors, 2 search budget exceeded,
3 property-negative verdicts (not tame, not reduced, counterexamples found),
4 internal invariant violations.  With --json the standard output is a
single JSON document on one line, on every exit except an argparse usage
error or -h/--help; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import enumeration, tame, templates
from .embedding import pattern_r22, pattern_s_n2
from .errors import (
    BudgetExceeded,
    FormatError,
    InternalInvariantViolation,
    InvalidParameter,
    NotReduced,
    NotTame,
    PosetError,
)
from .poset import Poset
from .textfmt import format_poset, parse_poset, poset_json_text

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_NEGATIVE = 3
EXIT_INTERNAL = 4

# word boundaries inside a class name: NotTame -> Not|Tame, OSError -> OS|Error
_CAMEL_BREAK = re.compile(r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def _emit_json(payload: dict) -> None:
    # one compact line: with indent set, CPython encodes in pure Python.
    # reduce and gen print relation lists through poset_json_text instead,
    # one up-mask row at a time and byte-identical to this sorted json.dumps.
    print(json.dumps(payload, sort_keys=True))


def _json_object(parts: dict[str, str]) -> str:
    """The sorted-key JSON object whose values are the JSON texts ``parts``."""
    return "{" + ", ".join(f"{json.dumps(k)}: {parts[k]}" for k in sorted(parts)) + "}"


def _fail(args, exc: Exception, code: int, payload: dict | None = None) -> int:
    """Report ``exc`` on stderr, and under --json as one document; return ``code``.

    The document defaults to {"error": kind, "message": text}, kind being
    the exception's class name in kebab case (CycleDetected -> cycle-detected).
    """
    if args.json:
        if payload is None:
            kind = _CAMEL_BREAK.sub("-", type(exc).__name__).lower()
            payload = {"error": kind, "message": str(exc)}
        _emit_json(payload)
    print(exc, file=sys.stderr)
    return code


def _load(path: str) -> Poset:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_poset(text)


def _cmd_check(args) -> int:
    p = _load(args.file)
    report = tame.is_tame(p)
    if args.json:
        _emit_json(report.to_json())
    elif report.tame:
        print("tame")
        print(f"tame rank: {report.tame_rank}")
        if report.coordinates is not None:
            print("canonical embedding:")
            for x, point in report.coordinates.items():
                print(f"  {x} -> {point}")
        else:
            print("input is not reduced; run reduce for the canonical embedding")
    else:
        print("not tame")
        print("witness:", " ".join(str(x) for x in report.witness))
    return EXIT_OK if report.tame else EXIT_NEGATIVE


def _cmd_rank(args) -> int:
    p = _load(args.file)
    rank = tame.tame_rank(p)
    if args.json:
        _emit_json({"tame_rank": rank})
    else:
        print(rank)
    return EXIT_OK


def _cmd_embed(args) -> int:
    p = _load(args.file)
    if args.json:
        _emit_json(tame.canonical_embedding(p).to_json())
    else:
        # the text form prints only the coordinates, so no template is built
        _, ms, Ms = tame._reduced_coordinates(p)
        for x, m, big in zip(p.elements, ms, Ms):
            print(f"{x} -> {(m, big)}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    p = _load(args.file)
    result = tame.reduce(p)
    if args.json:
        class_of = {str(x): c for x, c in result.class_of.items()}
        representatives = [str(x) for x in result.representatives]
        # encoded in full before printing: an error leaves no partial line
        print(
            _json_object(
                {
                    "quotient": poset_json_text(result.quotient),
                    "class_of": json.dumps(class_of, sort_keys=True),
                    "representatives": json.dumps(representatives),
                }
            )
        )
    else:
        sys.stdout.write(format_poset(result.quotient))
        members: list[list[str]] = [[] for _ in result.representatives]
        for x, c in result.class_of.items():
            members[c].append(str(x))
        for c, rep in enumerate(result.representatives):
            print(f"# class {c} (rep {rep}): {' '.join(members[c])}")
    return EXIT_OK


def _cmd_realize(args) -> int:
    p = _load(args.file)
    result = templates.realize(p)
    _emit_json(result.to_json())
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.seed is not None and args.samples is None:
        args.parser.error("argument --seed: requires --samples")
    if args.samples is not None:
        report = enumeration.verify_sampled(
            args.n, args.samples, args.seed or 0, budget=args.budget
        )
    else:
        report = enumeration.verify_proposition(args.n, budget=args.budget)
    if args.json:
        _emit_json(report.to_json())
    else:
        print(
            f"n={report.n}: {report.total} posets, {report.tame_count} tame, "
            f"{len(report.counterexamples)} counterexamples"
        )
        for ce in report.counterexamples[:10]:
            print(f"  [{ce['index']}] {ce['check']}: {ce['detail']}")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_gen(args) -> int:
    if args.r_lambda is not None:
        p = templates.r_lambda(args.r_lambda)
    elif args.s_n2 is not None:
        p = pattern_s_n2(args.s_n2)
    elif args.r22:
        p = pattern_r22()
    elif args.cummings is not None:
        p = templates.cummings_blocks(args.cummings)
    else:
        n, prob, seed = args.random
        try:
            n, prob, seed = int(n), float(prob), int(seed)
        except ValueError as exc:
            raise InvalidParameter(f"--random N P SEED: {exc}") from None
        p = enumeration.random_poset(enumeration.GeneratorConfig(n, prob, seed))
    if args.json:
        print(poset_json_text(p))
    else:
        sys.stdout.write(format_poset(p))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; argparse's own 2 means a budget overrun here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _file_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=None, metavar="K")
    p.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="sampler seed (default 0); requires --samples",
    )
    p.set_defaults(parser=p)


def _gen_args(p: argparse.ArgumentParser) -> None:
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--r-lambda", type=int, metavar="L")
    which.add_argument("--s-n2", type=int, metavar="N")
    which.add_argument("--r22", action="store_true")
    which.add_argument("--cummings", type=int, metavar="O")
    which.add_argument("--random", nargs=3, metavar=("N", "P", "SEED"))


# verb -> (help, handler, adder of the verb's own arguments), in usage order
_VERBS = {
    "check": ("tameness verdict", _cmd_check, _file_args),
    "rank": ("tame rank", _cmd_rank, _file_args),
    "embed": ("canonical coordinate embedding", _cmd_embed, _file_args),
    "reduce": ("signature quotient and class map", _cmd_reduce, _file_args),
    "realize": ("restriction of an inflated template", _cmd_realize, _file_args),
    "verify": ("oracle sweep over small posets", _cmd_verify, _verify_args),
    "gen": ("write a poset to stdout", _cmd_gen, _gen_args),
}


def _build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser with only ``verb``'s subparser when it names one, else all."""
    parser = _Parser(
        prog="tameorders",
        description="Analyze tame finite partial orders.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = _VERBS
    if verb in _VERBS:
        # trailing extras print the top-level usage, which lists every verb;
        # the full parser keeps argparse's metavar for "required: verb"
        sub.metavar = "{" + ",".join(_VERBS) + "}"
        verbs = {verb: _VERBS[verb]}
    for name, (help_text, run, add_args) in verbs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--json", action="store_true", help="emit one JSON document on stdout"
        )
        p.add_argument(
            "--budget",
            type=int,
            default=None,
            metavar="NODES",
            help="cap embedding-search nodes (exceeding exits 2)",
        )
        add_args(p)
        p.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.budget is not None and args.budget < 0:
            raise InvalidParameter(f"node budget must be nonnegative, got {args.budget}")
        return args.run(args)
    except NotTame as exc:
        witness = [str(x) for x in exc.witness]
        return _fail(args, exc, EXIT_NEGATIVE, {"error": "not-tame", "witness": witness})
    except NotReduced as exc:
        return _fail(args, exc, EXIT_NEGATIVE, {"error": "not-reduced"})
    except BudgetExceeded as exc:
        return _fail(args, exc, EXIT_BUDGET)
    except (InternalInvariantViolation, ValueError) as exc:
        # inputs reach the library typed, so a bare ValueError is a library bug
        return _fail(args, exc, EXIT_INTERNAL)
    except (PosetError, OSError) as exc:
        return _fail(args, exc, EXIT_INPUT)


if __name__ == "__main__":
    raise SystemExit(main())
