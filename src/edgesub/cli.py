"""Command-line front end.

Subcommands: substitute, transfer, classify, spectrum, verify, fixture.
Exit codes: 0 success, 1 spectrum mismatch / oracle disagreement,
2 usage error, 3 input validation error.  Each input file is checked while
it is read: `load_graph` and `load_substituent` build the checked types.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import fixtures
from .assemble import assemble
from .classify import classify_Q, classify_Qinterior
from .errors import EdgeSubError, GraphFormatError, GraphInvariantError, SubstituentInvalid
from .fileformat import dump_graph, dump_substituent, load_graph, load_substituent
from .graph import Orientation
from .operators import CLUSTER_TOL, ReversibleOperator, spectral_radius
from .oracle import direct_spectrum
from .substitution import substitute
from .transfer import compute_transfer


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_substitute(args) -> int:
    X = load_graph(_read(args.host))
    s = load_substituent(_read(args.sub))
    sub = substitute(X, Orientation.default(X), s)
    kinds = {}
    for x in range(sub.graph.n):
        kind = sub.vertex_kind(x)
        label = str(sub.graph.vertices[x])
        if kind[0] == "host":
            kinds[label] = "host"
        else:
            kinds[label] = f"interior edge={kind[1]}"
    _emit(dump_graph(sub.graph, extra={"vertexKind": kinds}), args.out)
    return 0


def _cmd_transfer(args) -> int:
    s = load_substituent(_read(args.sub))
    tf = compute_transfer(s)
    V = s.graph
    lam_vmb = spectral_radius(ReversibleOperator.restricted(V, [x for x in range(V.n) if x != s.b]))
    lam_int = spectral_radius(ReversibleOperator.restricted(V, s.interior))
    lines = [
        f"phi   = {tf.phi}",
        f"psi   = {tf.psi}",
        f"theta = {tf.theta}",
        f"lambda0(V minus b) = {lam_vmb:.12f}",
        f"lambda0(interior)  = {lam_int:.12f}",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_classify(args) -> int:
    s = load_substituent(_read(args.sub))
    lines = []
    for title, typed in (
        ("full operator Q:", classify_Q(s)),
        ("interior restriction:", classify_Qinterior(s)),
    ):
        lines.append(title)
        for t in typed:
            flag = "  (rank ambiguous)" if t.ambiguous else ""
            lines.append(
                f"  {t.value:+.12f}  type {t.type_label}  nu={t.nu}  nu'={t.nu_prime}{flag}"
            )
    _emit("\n".join(lines), args.out)
    return 0


def _compare_with_oracle(result, oracle) -> list[str]:
    assembled = sorted(result.report.multiset())
    direct = sorted(oracle.value_multiset())
    diffs = []
    if len(assembled) != len(direct):
        diffs.append(f"cluster counts differ: {len(assembled)} vs {len(direct)}")
    for (av, an), (dv, dn) in zip(assembled, direct):
        if abs(av - dv) > CLUSTER_TOL or an != dn:
            diffs.append(f"assembled {av:+.10f} x{an}  vs  direct {dv:+.10f} x{dn}")
    return diffs


def _cmd_spectrum(args) -> int:
    X = load_graph(_read(args.host))
    s = load_substituent(_read(args.sub))
    result = assemble(X, Orientation.default(X), s, build_families=False)
    text = result.report.to_text()
    if args.verify:
        diffs = _compare_with_oracle(result, direct_spectrum(result.substituted))
        if diffs:
            _emit(text + "\noracle disagreement:\n  " + "\n  ".join(diffs), args.out)
            return 1
        text += "\noracle agreement: ok"
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    X = load_graph(_read(args.host))
    s = load_substituent(_read(args.sub))
    result = assemble(X, Orientation.default(X), s, build_families=False)
    oracle = direct_spectrum(result.substituted)
    lines = ["assembled            direct"]
    a = sorted(result.report.multiset(), reverse=True)
    d = sorted(oracle.value_multiset(), reverse=True)
    for k in range(max(len(a), len(d))):
        left = f"{a[k][0]:+.8f} x{a[k][1]}" if k < len(a) else " " * 14
        right = f"{d[k][0]:+.8f} x{d[k][1]}" if k < len(d) else ""
        lines.append(f"{left:20s} {right}")
    diffs = _compare_with_oracle(result, oracle)
    lines.append("agreement: " + ("ok" if not diffs else "MISMATCH"))
    _emit("\n".join(lines), args.out)
    return 0 if not diffs else 1


# fixture kind -> the file text it emits, from the parsed arguments
FIXTURES = {
    "path-sub": lambda a: dump_substituent(fixtures.path_substituent(a.L)),
    "circle-antipodal": lambda a: dump_substituent(fixtures.circle_substituent(a.L, "antipodal")),
    "circle-adjacent": lambda a: dump_substituent(fixtures.circle_substituent(a.L, "adjacent")),
    "chorded-square": lambda a: dump_substituent(fixtures.chorded_square_substituent()),
    "cycle-host": lambda a: dump_graph(fixtures.cycle_host(a.n)),
    "path-host": lambda a: dump_graph(fixtures.path_host(a.n)),
    "star-host": lambda a: dump_graph(fixtures.star_host(a.n)),
    "weighted-circle": lambda a: dump_graph(fixtures.fixture_circle(Fraction(a.a), a.N)),
}


def _cmd_fixture(args) -> int:
    try:
        text = FIXTURES[args.kind](args)
    except (ValueError, ZeroDivisionError) as exc:  # an argument outside the fixture's range, or a/0
        print(f"usage error: fixture --kind {args.kind}: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgesub")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, host=False, sub_file=False):
        if host:
            p.add_argument("--host", required=True, help="host graph file")
        if sub_file:
            p.add_argument("--sub", required=True, help="substituent graph file")
        p.add_argument("--out", help="write output to this file")

    p = sub.add_parser("substitute", help="build the substituted graph")
    common(p, host=True, sub_file=True)

    p = sub.add_parser("transfer", help="print the transfer functions")
    common(p, sub_file=True)

    p = sub.add_parser("classify", help="print eigenvalue type tables")
    common(p, sub_file=True)

    p = sub.add_parser("spectrum", help="assemble the substituted spectrum")
    common(p, host=True, sub_file=True)
    p.add_argument("--verify", action="store_true", help="compare with brute force")

    p = sub.add_parser("verify", help="side-by-side assembled vs direct spectra")
    common(p, host=True, sub_file=True)

    p = sub.add_parser("fixture", help="emit a ready-made graph file")
    p.add_argument("--kind", required=True, choices=list(FIXTURES))
    p.add_argument("--L", type=int, default=2, help="path length / half circle length")
    p.add_argument("--n", type=int, default=5, help="host size")
    p.add_argument("--N", type=int, default=2, help="half length of the weighted circle")
    p.add_argument("--a", default="1", help="conductance of the weighted edge")
    p.add_argument("--out")

    return parser


COMMANDS = {
    "substitute": _cmd_substitute,
    "transfer": _cmd_transfer,
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "fixture": _cmd_fixture,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (GraphFormatError, GraphInvariantError, SubstituentInvalid) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except EdgeSubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
