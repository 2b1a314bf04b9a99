"""Command-line surface: inspect posets, enumerate bijection groups, decide
properness, and run the verification harness.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 bound exceeded, 141 closed pipe.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import bijections as bij
from . import chains as chn
from . import families as fam
from . import groups as grp
from . import poset as pst
from . import suites
from .errors import BoundExceeded, ParseError, PosetLieError, InvalidParameter
from .fields import parse_field_spec

DEFAULT_BOUND = 9  # largest |B| that enumerate m|am and decide attempt


def _dump(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _load_poset(args):
    if args.family:
        return fam.from_selector(args.family)
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as err:  # missing, a directory, not UTF-8
            raise InvalidParameter("cannot read %s: %s" % (args.file, err)) from None
        return pst.parse_poset(text)
    raise InvalidParameter("need --family or --file")


def _non_negative_int(text):
    """An argparse type for integers >= 0; anything else is exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid integer %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %d" % value)
    return value


def _add_format_flag(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _add_source_flags(sub):
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--family", help="family selector, e.g. crown:3 or kmn:2x3")
    source.add_argument("--file", help="path to a poset v1 file")
    _add_format_flag(sub)


def _add_bound_flag(sub):
    sub.add_argument("--bound", type=_non_negative_int, default=None,
                     help="largest |B| the exhaustive search may attempt")


def _check_bound(poset, bound):
    """The input check of --bound, made before any search: exit 3 past it."""
    bound = DEFAULT_BOUND if bound is None else bound
    size = len(poset.strict_pairs)
    if size > bound:
        raise BoundExceeded("|B| = %d exceeds the enumeration bound %d" % (size, bound))


def cmd_info(args):
    poset = _load_poset(args)
    crowns = pst.weak_crowns(poset)
    classes = chn.chain_classes(poset)
    data = {
        "elements": list(poset.names),
        "size": poset.n,
        "length": poset.length,
        "min": [poset.names[i] for i in poset.min_set],
        "max": [poset.names[i] for i in poset.max_set],
        "strict_pairs": len(poset.strict_pairs),
        "maximal_chains": len(poset.maximal_chains),
        "chain_classes": len(classes),
        "crownless": not crowns,
        "weak_crowns": len(crowns),
    }
    if args.format == "json":
        print(_dump(data))
    else:
        for key in (
            "size", "length", "min", "max", "strict_pairs",
            "maximal_chains", "chain_classes", "weak_crowns", "crownless",
        ):
            print("%s: %s" % (key, data[key]))
    return 0


def cmd_chains(args):
    poset = _load_poset(args)
    chains = [list(poset.label_chain(c)) for c in poset.maximal_chains]
    if args.format == "json":
        print(_dump({"chains": chains}))
    else:
        for c in chains:
            print(" < ".join(c))
    return 0


def cmd_classes(args):
    poset = _load_poset(args)
    report = chn.classes_to_json(poset, chn.chain_classes(poset))
    if args.format == "json":
        print(_dump(report))
    else:
        for k, cls in enumerate(report["classes"]):
            print("class %d: support {%s}" % (k, ", ".join(cls["support"])))
            for chain in cls["chains"]:
                print("  " + " < ".join(chain))
    return 0


def cmd_aut(args):
    poset = _load_poset(args)
    maps = pst.poset_maps(poset)
    data = [
        {"kind": m.kind.value, "images": [poset.names[m.perm[i]] for i in range(poset.n)]}
        for m in maps
    ]
    if args.format == "json":
        print(_dump({"maps": data, "order": len(data)}))
    else:
        print("order: %d" % len(data))
        for m in data:
            print("%s: %s" % (m["kind"], " ".join(m["images"])))
    return 0


def _element_texts(poset, elements):
    """Each element's EdgeBijection.to_json, as _dump writes it, read from
    one table: cells[k][j] is the text of [pair k, pair j]."""
    pairs = [_dump(list(pair)) for pair in poset.strict_pairs]
    cells = [["[%s,%s]" % (a, b) for b in pairs] for a in pairs]
    for theta in elements:
        yield "[" + ",".join(map(list.__getitem__, cells, theta.perm)) + "]"


def cmd_enumerate(args):
    if args.group == "p" and args.bound is not None:
        raise InvalidParameter("--bound does not apply to enumerate p")
    poset = _load_poset(args)
    if args.group != "p":
        _check_bound(poset, args.bound)
    if args.group == "m":
        elements = bij.enumerate_M(poset)  # counted, listed only in JSON
        report = {"order": elements.order}
    else:
        am = args.group == "am"
        group = grp.verify_group(bij.enumerate_AM(poset) if am else bij.enumerate_P(poset))
        elements, report = group.elements, group.to_json()
    if args.format == "json":
        # keys are sorted, so "elements" comes first: stream it in chunks
        # rather than hold every element's JSON at once
        sys.stdout.write('{"elements":[')
        texts = _element_texts(poset, elements)
        sep = ""
        while chunk := list(itertools.islice(texts, 1024)):
            sys.stdout.write(sep + ",".join(chunk))
            sep = ","
        print("]," + _dump({"group": args.group, "structure": report})[1:])
    else:
        print("order: %d" % report["order"])
        if "element_order_histogram" in report:
            histogram = ", ".join(
                "%s:%d" % (k, v)
                for k, v in report["element_order_histogram"].items()
            )
            print("element orders: %s" % histogram)
            print("generators: %d" % len(report["witness_generators"]))
    return 0


def cmd_decide(args):
    poset = _load_poset(args)
    _check_bound(poset, args.bound)
    verdict = chn.decide_all_proper(poset)
    if args.format == "json":
        print(_dump(verdict.to_json(poset)))
    else:
        print("all_proper: %s" % verdict.all_proper)
        print("|AM| = %d, |P| = %d" % (verdict.am_order, verdict.p_order))
        print(
            "chain classes: %d (single class is sufficient: %s)"
            % (verdict.class_count, verdict.single_class_sufficient)
        )
        if verdict.counterexample is not None:
            pairs = verdict.counterexample.to_json(poset)
            moved = [
                "e[%s,%s] -> e[%s,%s]"
                % (
                    poset.names[a], poset.names[b],
                    poset.names[c], poset.names[d],
                )
                for (a, b), (c, d) in pairs
                if (a, b) != (c, d)
            ]
            print("witness (admissible, not proper): " + "; ".join(moved))
    return 0


def cmd_verify(args):
    field = parse_field_spec(args.field)
    results = suites.run_suite(args.suite, field=field)
    failed = [c for c in results if not c.ok]
    if args.format == "json":
        print(
            _dump(
                {
                    "checks": [
                        {"name": c.name, "ok": c.ok, "detail": c.detail}
                        for c in results
                    ],
                    "passed": len(results) - len(failed),
                    "failed": len(failed),
                    "field": field.name,
                }
            )
        )
    else:
        for c in results:
            line = "%s %s" % ("PASS" if c.ok else "FAIL", c.name)
            if c.detail:
                line += " (%s)" % c.detail
            print(line)
        print("field: %s" % field.name)
        print("%d passed, %d failed" % (len(results) - len(failed), len(failed)))
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="posetlie",
        description="Bijection groups and properness checks for incidence algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler in (
        ("info", cmd_info),
        ("chains", cmd_chains),
        ("classes", cmd_classes),
        ("aut", cmd_aut),
    ):
        p = sub.add_parser(name)
        _add_source_flags(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("enumerate")
    p.add_argument("group", choices=("m", "am", "p"))
    _add_source_flags(p)
    _add_bound_flag(p)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("decide")
    _add_source_flags(p)
    _add_bound_flag(p)
    p.set_defaults(handler=cmd_decide)

    p = sub.add_parser("verify")
    p.add_argument("suite", help="suite name or 'all'")
    _add_format_flag(p)
    p.add_argument("--field", default="q", help="q or fp:<prime>")
    p.set_defaults(handler=cmd_verify)
    return parser


_parser = None  # main's parser, built by its first call


def main(argv=None):
    """Run one command and return its exit code; a usage error raises
    SystemExit(2) and --help SystemExit(0), as argparse does.

    The parser is built on the first call and reused by every later one in
    the process: a parse keeps nothing on the parser, and help is wrapped to
    COLUMNS as read when it is printed.  So the handlers are bound once too:
    a cmd_* function replaced after the first call is not the one called.
    build_parser() still returns a fresh parser for other callers.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.handler(args)
        print(end="", flush=True)  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader left: exit as SIGPIPE would, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BoundExceeded as err:
        print("error: %s" % err, file=sys.stderr)
        return 3
    except (InvalidParameter, ParseError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except PosetLieError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
