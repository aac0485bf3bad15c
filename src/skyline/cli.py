"""Command-line front end.

Every verb is reproducible: identical argv produces byte-identical stdout.
Usage errors exit 2, verification failures exit 1, success exits 0.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import correspondences, crystal, demazure, fillings, kernel, polynomials, tableaux
from .shapes import composition


def _parse_composition(text: str):
    try:
        return composition(int(t) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_at_least(low: int):
    """An argparse type for integers no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


def _read_biword(text: str):
    """Accept the two-row slash form or a JSON array of [i, j] pairs."""
    if text.lstrip().startswith("["):
        return correspondences.biword_from_json(json.loads(text))
    return correspondences.parse_biword(text)


def _print(out, text: str):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _read_ssaf(text: str):
    return fillings.ssaf_from_json(json.loads(text))


def _cmd_show(args, out) -> int:
    """Print a verb's one result: its JSON payload, or else its text, which
    ``as_text`` returns as one chunk or a tuple of chunks, printed one by one."""
    value = args.compute(args)
    if args.json:
        _print(out, json.dumps(args.as_json(value), sort_keys=True))
        return 0
    text = args.as_text(value)
    for chunk in (text,) if isinstance(text, str) else text:
        _print(out, chunk)
    return 0


def _insert_json(result):
    filling, height, column = result
    return {"ssaf": fillings.ssaf_to_json(filling), "height": height, "column": column}


def _insert_text(result):
    filling, height, column = result
    return filling.pretty(), f"terminated at column {column}, height {height}"


def _psi_text(filling):
    return filling.pretty(), f"shape: {filling.shape}"


def _rsk_json(pair):
    p, q = pair
    return {"p": tableaux.ssyt_to_json(p), "q": tableaux.ssyt_to_json(q)}


def _rsk_text(pair):
    p, q = pair
    return "P:\n" + p.pretty(), "Q:\n" + q.pretty()


def _phi_json(pair):
    f, g = pair
    return {"f": fillings.ssaf_to_json(f), "g": fillings.ssaf_to_json(g),
            "shape_f": list(f.shape), "shape_g": list(g.shape)}


def _phi_text(pair):
    f, g = pair
    return "F:\n" + f.pretty(), "G:\n" + g.pretty(), f"sh(F) = {f.shape}", f"sh(G) = {g.shape}"


def _cmd_crystal(args, out) -> int:
    if args.alpha is not None:
        n = len(args.alpha) if args.n is None else args.n
        graph = crystal.demazure_graph(args.alpha, n)
    else:
        if args.shape is None or args.n is None:
            raise ValueError("crystal needs --alpha or both --shape and --n")
        graph = crystal.crystal_graph(args.shape, args.n)
    _print(out, crystal.export_graph(graph, args.format))
    return 0


def _cmd_verify_main(args, out) -> int:
    report = correspondences.verify_criterion(args.n, args.max_len)
    _print(out, report.summary())
    return 0 if report.holds else 1


def _cmd_verify_kernel(args, out) -> int:
    inst = kernel.KernelInstance(args.n, args.m, args.k)
    report = kernel.verify_expansion(inst, args.deg)
    _print(out, report.summary())
    if args.json is not None:
        text = json.dumps(report.to_json(), sort_keys=True)
        if args.json == "-":
            _print(out, text)
        else:
            try:
                with open(args.json, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                # A mismatch found before the write still exits 1.
                print(f"error: {exc}", file=sys.stderr)
                return 1 if not report.equal else 2
    return 0 if report.equal else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyline",
        description="Skyline fillings, Demazure polynomials, crystal graphs, "
        "and truncated-staircase Cauchy kernel verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    def show(p, compute, as_json, as_text):
        """Hand a verb to ``_cmd_show``; ``--json`` goes last in its usage line."""
        p.set_defaults(compute=compute, as_json=as_json, as_text=as_text)
        p.add_argument("--json", action="store_true")

    p = add("key", _cmd_show, help="key tableau of a composition")
    p.add_argument("--gamma", type=_parse_composition, required=True)
    show(p, lambda args: tableaux.key_tableau(args.gamma), tableaux.ssyt_to_json,
         tableaux.SSYT.pretty)

    p = add("keypoly", _cmd_show, help="key polynomial (Demazure character)")
    p.add_argument("--alpha", type=_parse_composition, required=True)
    show(p, lambda args: demazure.key_polynomial(args.alpha), polynomials.SparsePoly.to_json, str)

    p = add("atom", _cmd_show, help="Demazure atom")
    p.add_argument("--alpha", type=_parse_composition, required=True)
    show(p, lambda args: demazure.atom(args.alpha), polynomials.SparsePoly.to_json, str)

    p = add("insert", _cmd_show, help="insert a letter into an SSAF")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ssaf", required=True, help="SSAF as JSON")
    show(p, lambda args: fillings.insert(args.k, _read_ssaf(args.ssaf)), _insert_json,
         _insert_text)

    p = add("psi", _cmd_show, help="tableau to skyline filling")
    p.add_argument("--tableau", required=True, help="SSYT as JSON")
    p.add_argument("--n", type=_non_negative, default=None)
    show(p, lambda args: fillings.psi(tableaux.ssyt_from_json(json.loads(args.tableau), n=args.n)),
         fillings.ssaf_to_json, _psi_text)

    p = add("psi-inv", _cmd_show, help="skyline filling to tableau")
    p.add_argument("--ssaf", required=True, help="SSAF as JSON")
    show(p, lambda args: fillings.psi_inverse(_read_ssaf(args.ssaf)), tableaux.ssyt_to_json,
         tableaux.SSYT.pretty)

    p = add("rsk", _cmd_show, help="classical RSK on a biword")
    p.add_argument("--biword", required=True, help='"i1 i2 ... / j1 j2 ..."')
    p.add_argument("--n", type=_non_negative, default=None)
    show(p, lambda args: correspondences.rsk(_read_biword(args.biword), args.n), _rsk_json,
         _rsk_text)

    p = add("phi", _cmd_show, help="skyline analogue of RSK")
    p.add_argument("--biword", required=True, help='"i1 i2 ... / j1 j2 ..."')
    p.add_argument("--n", type=_non_negative, required=True)
    show(p, lambda args: correspondences.phi(_read_biword(args.biword), args.n), _phi_json,
         _phi_text)

    p = add("phi-inv", _cmd_show, help="invert the skyline correspondence")
    p.add_argument("--f", required=True, help="insertion SSAF as JSON")
    p.add_argument("--g", required=True, help="recording SSAF as JSON")
    show(p, lambda args: correspondences.phi_inverse(_read_ssaf(args.f), _read_ssaf(args.g)),
         correspondences.biword_to_json, correspondences.format_biword)

    p = add("crystal", _cmd_crystal, help="crystal graph or Demazure crystal")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--shape", type=_parse_composition)
    p.add_argument("--n", type=_non_negative)
    which.add_argument("--alpha", type=_parse_composition)
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    unused_jobs = "accepted but unused: the check always runs in one process"
    p = add("verify-main", _cmd_verify_main, help="exhaustive staircase criterion")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--max-len", type=_non_negative, required=True)
    p.add_argument("--jobs", type=_positive, default=1, help=unused_jobs)

    p = add("verify-kernel", _cmd_verify_kernel, help="truncated kernel expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    p.add_argument("--jobs", type=_positive, default=1, help=unused_jobs)

    return parser


def run(argv, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args, out)
    except (ValueError, KeyError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
