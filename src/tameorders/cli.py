"""Command-line front end.

Exit codes: 0 success, 1 parse/IO/usage errors or out of memory, 2 search
budget exceeded, 3 property-negative verdicts (not tame, not reduced,
counterexamples found), 4 internal invariant violations.  With --json the
standard output is a single JSON document on one line, on every exit except
an argparse usage error, -h/--help or a standard output that cannot be
written (a broken pipe, a full disk, a label its encoding cannot write: a
failed write exits 1, an error found before any output keeps its code, and
stderr gets one line); diagnostics go to stderr.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Callable
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

from . import enumeration, tame, templates
from .embedding import Embedding, pattern_r22, pattern_s_n2
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
from .textfmt import format_poset, parse_poset, poset_json, poset_json_text

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


def _embedding_json(e: Embedding) -> dict:
    # labels go out as they are: parse_poset reads every input label as its
    # own string id, and the template labels are strings too
    return {"source": e.source.elements, "target": e.target.elements, "map": e.mapping}


def _json_object(parts: dict[str, str]) -> str:
    """The sorted-key JSON object whose values are the JSON texts ``parts``."""
    return "{" + ", ".join(f"{json.dumps(k)}: {parts[k]}" for k in sorted(parts)) + "}"


def _fail(args, exc: Exception, code: int, payload: dict | None = None) -> int:
    """Report ``exc`` on stderr, and under --json as one document; return ``code``.

    The document defaults to {"error": kind, "message": text}, kind being
    the exception's class name in kebab case (CycleDetected -> cycle-detected).
    A stdout that cannot be written (a closed pipe, a full disk) drops the
    document and whatever is still buffered for it; stderr still names ``exc``.
    """
    try:
        if args.json:
            if payload is None:
                kind = _CAMEL_BREAK.sub("-", type(exc).__name__).lower()
                payload = {"error": kind, "message": str(exc)}
            _emit_json(payload)
        sys.stdout.flush()
    except OSError:
        # stdout takes no more output: point it at devnull, so that the
        # flush at interpreter exit cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
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
        fields = {"tame": report.tame, "witness": report.witness,
                  "tame_rank": report.tame_rank, "embedding": report.coordinates}
        _emit_json({k: v for k, v in fields.items() if v is not None})
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
        _emit_json(_embedding_json(templates.canonical_embedding(p)))
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
    _emit_json({"w": result.w, "iso": _embedding_json(result.iso)})
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.seed is not None and args.samples is None:
        # argparse has no rule for one option requiring another, so the
        # rule lives here alone: the recognizer accepts this argv too
        _usage_error("verify", "argument --seed: requires --samples")
    if args.samples is not None:
        report = enumeration.verify_sampled(
            args.n, args.samples, args.seed or 0, budget=args.budget
        )
    else:
        report = enumeration.verify_proposition(args.n, budget=args.budget)
    if args.json:
        counterexamples = [
            {"index": c["index"], "check": c["check"], "detail": c["detail"]}
            | poset_json(c["poset"])
            for c in report.counterexamples
        ]
        _emit_json({**report._asdict(), "counterexamples": counterexamples})
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
        p = enumeration.random_poset(n, prob, seed)
    if args.json:
        print(poset_json_text(p))
    else:
        sys.stdout.write(format_poset(p))
    return EXIT_OK


class _Option(NamedTuple):
    """One argument of a verb, as argparse's ``add_argument`` takes it.

    A ``flag`` without a leading dash names a positional.  ``nargs`` is the
    number of values the option takes: 0 for a flag that stores True, 3 for
    ``--random``'s list.  Each value goes through ``type``.
    """

    flag: str
    type: Callable[[str], object] = int
    nargs: int = 1
    metavar: str | tuple[str, ...] | None = None
    help: str | None = None
    required: bool = False
    exclusive: bool = False  # one of the verb's exactly-one group

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_JSON = _Option("--json", nargs=0, help="emit one JSON document on stdout")
_FILE_ARGS = (_JSON, _Option("file", str))

# verb -> (help, handler, arguments), in usage order
_VERBS = {
    "check": ("tameness verdict", _cmd_check, _FILE_ARGS),
    "rank": ("tame rank", _cmd_rank, _FILE_ARGS),
    "embed": ("canonical coordinate embedding", _cmd_embed, _FILE_ARGS),
    "reduce": ("signature quotient and class map", _cmd_reduce, _FILE_ARGS),
    "realize": ("restriction of an inflated template", _cmd_realize, _FILE_ARGS),
    "verify": (
        "oracle sweep over small posets",
        _cmd_verify,
        (
            _JSON,
            _Option("--n", required=True),
            _Option(
                "--budget", metavar="NODES",
                help="cap embedding-search nodes (exceeding exits 2)",
            ),
            _Option("--samples", metavar="K"),
            _Option(
                "--seed", metavar="S",
                help="sampler seed (default 0); requires --samples",
            ),
        ),
    ),
    "gen": (
        "write a poset to stdout",
        _cmd_gen,
        (
            _JSON,
            _Option("--r-lambda", metavar="L", exclusive=True),
            _Option("--s-n2", metavar="N", exclusive=True),
            _Option("--r22", nargs=0, exclusive=True),
            _Option("--cummings", metavar="O", exclusive=True),
            _Option("--random", str, 3, ("N", "P", "SEED"), exclusive=True),
        ),
    ),
}


def _recognize(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for a well-formed ``argv``, else None.

    Accepts only a verb followed by its exact option strings, each at most
    once, with every value converted by its ``type`` and the verb's
    required and exactly-one rules met.  Declines (None) every
    other argv, -h, abbreviations, ``--opt=value`` and ``--`` included,
    and any positional or value that starts with a dash, so that argparse
    alone writes help, usage and usage errors.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    verb = argv[0]
    _, run, options = _VERBS[verb]
    named = {opt.flag: opt for opt in options if opt.flag.startswith("-")}
    given: dict[str, list[str]] = {}  # dest -> the words it was given
    free: list[str] = []
    i = 1
    while i < len(argv):
        word = argv[i]
        i += 1
        if not word.startswith("-"):
            free.append(word)
            continue
        opt = named.get(word)
        if opt is None or opt.dest in given:
            return None
        given[opt.dest] = argv[i : i + opt.nargs]
        i += opt.nargs
    positionals = [opt for opt in options if opt.flag not in named]
    if len(free) != len(positionals):
        return None
    given.update((opt.dest, [word]) for opt, word in zip(positionals, free))
    exclusive = [opt.dest in given for opt in options if opt.exclusive]
    if exclusive and sum(exclusive) != 1:
        return None
    values = {}
    for opt in options:
        words = given.get(opt.dest)
        if words is None:
            if opt.required:
                return None
            values[opt.dest] = False if opt.nargs == 0 else None
            continue
        if len(words) < opt.nargs or any(w.startswith("-") for w in words):
            return None
        try:
            converted = [opt.type(w) for w in words]
        except ValueError:
            return None
        if opt.nargs == 0:
            values[opt.dest] = True
        else:
            values[opt.dest] = converted[0] if opt.nargs == 1 else converted
    return SimpleNamespace(verb=verb, **values, run=run)


def _parser(prog: str, **kwargs):
    """An argparse parser whose usage errors exit 1, not argparse's 2.

    Exit 2 means a budget overrun here.  argparse is imported only on
    this path: help, usage errors and argvs ``_recognize`` declines.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):
            self.print_usage(sys.stderr)
            self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    return _Parser(prog=prog, **kwargs)


def _add_options(parser, options: tuple[_Option, ...]) -> None:
    """Add ``options`` to ``parser`` in table order."""
    group = None
    for opt in options:
        kwargs: dict = {"help": opt.help}
        if opt.nargs == 0:
            kwargs["action"] = "store_true"
        else:
            kwargs.update(type=opt.type, metavar=opt.metavar)
            if opt.nargs != 1:
                kwargs["nargs"] = opt.nargs
        if opt.required:
            kwargs["required"] = True
        target = parser
        if opt.exclusive:
            group = group or parser.add_mutually_exclusive_group(required=True)
            target = group
        target.add_argument(opt.flag, **kwargs)


def _usage_error(verb: str, message: str) -> NoReturn:
    """Exit as argparse does on a usage error of ``verb``: its usage, then ``message``."""
    parser = _parser(f"tameorders {verb}")
    _add_options(parser, _VERBS[verb][2])
    parser.error(message)


def _build_parser():
    """The argparse parser of every verb, built from ``_VERBS``."""
    parser = _parser("tameorders", description="Analyze tame finite partial orders.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, run, options) in _VERBS.items():
        p = sub.add_parser(name, help=help_text)
        _add_options(p, options)
        p.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _recognize(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        # a block-buffered stdout that cannot be written fails here, not at exit
        sys.stdout.flush()
        return code
    except NotTame as exc:
        witness = [str(x) for x in exc.witness]
        return _fail(args, exc, EXIT_NEGATIVE, {"error": "not-tame", "witness": witness})
    except NotReduced as exc:
        return _fail(args, exc, EXIT_NEGATIVE, {"error": "not-reduced"})
    except BudgetExceeded as exc:
        return _fail(args, exc, EXIT_BUDGET)
    except UnicodeEncodeError as exc:
        # a label that stdout's encoding cannot write: an output error
        return _fail(args, exc, EXIT_INPUT)
    except (InternalInvariantViolation, ValueError) as exc:
        # inputs reach the library typed, so a bare ValueError is a library bug
        return _fail(args, exc, EXIT_INTERNAL)
    except (PosetError, OSError) as exc:
        return _fail(args, exc, EXIT_INPUT)
    except MemoryError as exc:
        # CPython raises it without a message; the document needs one
        return _fail(args, MemoryError(str(exc) or "out of memory"), EXIT_INPUT)


if __name__ == "__main__":
    raise SystemExit(main())
