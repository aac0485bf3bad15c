"""Command-line front end.

Every verb is reproducible: identical argv produces byte-identical stdout.
Usage errors exit 2, verification failures exit 1, success exits 0.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import correspondences, crystal, demazure, fillings, kernel, tableaux
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


def _cmd_key(args, out) -> int:
    tab = tableaux.key_tableau(args.gamma)
    if args.json:
        _print(out, json.dumps(tableaux.ssyt_to_json(tab), sort_keys=True))
    else:
        _print(out, tab.pretty())
    return 0


def _cmd_polynomial(args, out) -> int:
    poly = args.polynomial(args.alpha)
    _print(out, json.dumps(poly.to_json()) if args.json else str(poly))
    return 0


def _cmd_insert(args, out) -> int:
    filling = fillings.ssaf_from_json(json.loads(args.ssaf))
    new, h, col = fillings.insert(args.k, filling)
    if args.json:
        payload = {"ssaf": fillings.ssaf_to_json(new), "height": h, "column": col}
        _print(out, json.dumps(payload, sort_keys=True))
    else:
        _print(out, new.pretty())
        _print(out, f"terminated at column {col}, height {h}")
    return 0


def _cmd_psi(args, out) -> int:
    tab = tableaux.ssyt_from_json(json.loads(args.tableau), n=args.n)
    filling = fillings.psi(tab)
    if args.json:
        _print(out, json.dumps(fillings.ssaf_to_json(filling), sort_keys=True))
    else:
        _print(out, filling.pretty())
        _print(out, f"shape: {filling.shape}")
    return 0


def _cmd_psi_inv(args, out) -> int:
    filling = fillings.ssaf_from_json(json.loads(args.ssaf))
    tab = fillings.psi_inverse(filling)
    if args.json:
        _print(out, json.dumps(tableaux.ssyt_to_json(tab), sort_keys=True))
    else:
        _print(out, tab.pretty())
    return 0


def _cmd_rsk(args, out) -> int:
    w = _read_biword(args.biword)
    p, q = correspondences.rsk(w, args.n)
    if args.json:
        payload = {"p": tableaux.ssyt_to_json(p), "q": tableaux.ssyt_to_json(q)}
        _print(out, json.dumps(payload, sort_keys=True))
    else:
        _print(out, "P:\n" + p.pretty())
        _print(out, "Q:\n" + q.pretty())
    return 0


def _cmd_phi(args, out) -> int:
    w = _read_biword(args.biword)
    f, g = correspondences.phi(w, args.n)
    if args.json:
        payload = {
            "f": fillings.ssaf_to_json(f),
            "g": fillings.ssaf_to_json(g),
            "shape_f": list(f.shape),
            "shape_g": list(g.shape),
        }
        _print(out, json.dumps(payload, sort_keys=True))
    else:
        _print(out, "F:\n" + f.pretty())
        _print(out, "G:\n" + g.pretty())
        _print(out, f"sh(F) = {f.shape}")
        _print(out, f"sh(G) = {g.shape}")
    return 0


def _cmd_phi_inv(args, out) -> int:
    f = fillings.ssaf_from_json(json.loads(args.f))
    g = fillings.ssaf_from_json(json.loads(args.g))
    w = correspondences.phi_inverse(f, g)
    if args.json:
        _print(out, json.dumps(correspondences.biword_to_json(w)))
    else:
        _print(out, correspondences.format_biword(w))
    return 0


def _cmd_crystal(args, out) -> int:
    if args.alpha is not None:
        n = len(args.alpha) if args.n is None else args.n
        graph = crystal.demazure_graph(args.alpha, n)
    else:
        if args.shape is None or args.n is None:
            print("error: crystal needs --alpha or both --shape and --n", file=sys.stderr)
            return 2
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

    p = add("key", _cmd_key, help="key tableau of a composition")
    p.add_argument("--gamma", type=_parse_composition, required=True)
    p.add_argument("--json", action="store_true")

    for name, polynomial, text in (
        ("keypoly", demazure.key_polynomial, "key polynomial (Demazure character)"),
        ("atom", demazure.atom, "Demazure atom"),
    ):
        p = add(name, _cmd_polynomial, help=text)
        p.set_defaults(polynomial=polynomial)
        p.add_argument("--alpha", type=_parse_composition, required=True)
        p.add_argument("--json", action="store_true")

    p = add("insert", _cmd_insert, help="insert a letter into an SSAF")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ssaf", required=True, help="SSAF as JSON")
    p.add_argument("--json", action="store_true")

    p = add("psi", _cmd_psi, help="tableau to skyline filling")
    p.add_argument("--tableau", required=True, help="SSYT as JSON")
    p.add_argument("--n", type=_non_negative, default=None)
    p.add_argument("--json", action="store_true")

    p = add("psi-inv", _cmd_psi_inv, help="skyline filling to tableau")
    p.add_argument("--ssaf", required=True, help="SSAF as JSON")
    p.add_argument("--json", action="store_true")

    p = add("rsk", _cmd_rsk, help="classical RSK on a biword")
    p.add_argument("--biword", required=True, help='"i1 i2 ... / j1 j2 ..."')
    p.add_argument("--n", type=_non_negative, default=None)
    p.add_argument("--json", action="store_true")

    p = add("phi", _cmd_phi, help="skyline analogue of RSK")
    p.add_argument("--biword", required=True, help='"i1 i2 ... / j1 j2 ..."')
    p.add_argument("--n", type=_non_negative, required=True)
    p.add_argument("--json", action="store_true")

    p = add("phi-inv", _cmd_phi_inv, help="invert the skyline correspondence")
    p.add_argument("--f", required=True, help="insertion SSAF as JSON")
    p.add_argument("--g", required=True, help="recording SSAF as JSON")
    p.add_argument("--json", action="store_true")

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
