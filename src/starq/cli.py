"""Command-line frontend: construction, verification, and reports.

Exit statuses are a total function of the computed report: 0 for a clean
result, 2 for configuration or parse problems, 3 for a negative finding
(nonzero residual or obstruction, failed verification, non-orderable term,
infeasible restricted solve), 4 for an internal grading violation.  Every
command's document goes through one step, ``_emit``, to an atomically
written --out file or to stdout, and every JSON document through one
streaming renderer, ``write_json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

from .jets import MODES, NABLA_PHI
from .latex import star_latex
from .opo import is_opo, parse_term, term_to_text
from .polynomials import XPoly
from .star import (MAX_ORDER, GradingError, InfeasibleError, ObstructionError,
                   StarProduct, build_star, check_closed, level_equation, parse_potential)
from .verify import jacobi_residual, poisson_vector, verify_star

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FINDING = 3
EXIT_GRADING = 4

# Resource bounds, checked before any work.  The cost of a build and of an
# obstruction (which builds every level below it) grows steeply with these
# values; so does the associator scan's, which runs up to a loaded product's
# order, bounded by MAX_ORDER at load.
MAX_K = MAX_ORDER + 1
# option -> (least, greatest, what the message calls it)
BOUNDS = {"order": (1, MAX_ORDER, "order"),
          "k": (2, MAX_K, "obstruction level")}
# A symbolic build's size depends only on its family and order, and order 6
# (or the R_6 of obstruction level 6) runs out of memory.  So where the
# symbolic product is built to the full order (--phi sym) or the family of an
# explicit one is (--opo-restrict), orders and obstruction levels go up to this.
MAX_SYMBOLIC_ORDER = 5


class ConfigError(Exception):
    pass


def _check(args: argparse.Namespace) -> None:
    """Resource bounds and the output directory, checked before any work."""
    given = vars(args)
    for name, (least, greatest, what) in BOUNDS.items():
        if given.get(name) is not None and not least <= given[name] <= greatest:
            raise ConfigError(f"{what} must be between {least} and {greatest}")
    for name in ("order", "k"):
        if ((given.get("phi") == "sym" or given.get("opo_restrict"))
                and (given.get(name) or 0) > MAX_SYMBOLIC_ORDER):
            raise ConfigError(f"{BOUNDS[name][2]} must be at most {MAX_SYMBOLIC_ORDER} "
                              "where it is built symbolically (--phi sym or --opo-restrict)")
    if given.get("out") == "":
        raise ConfigError("--out needs a file name")
    if given.get("out") is not None and not os.path.isdir(_directory(args.out)):
        raise ConfigError(f"no such output directory: {_directory(args.out)}")


def _directory(path: str) -> str:
    return os.path.dirname(os.path.abspath(path))


def _atomic_write(path: str, render: Callable) -> None:
    """Write render's chunks to a temporary file beside path, then move it there."""
    try:
        fd, tmp = tempfile.mkstemp(dir=_directory(path), prefix=".starq-")
        try:
            with os.fdopen(fd, "w") as handle:
                render(handle.write)
            os.umask(umask := os.umask(0))  # read the umask: mkstemp made the file 0600
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _emit(args: argparse.Namespace, render: Callable, show: bool) -> bool:
    """Write render's chunks to --out if one is given, else, when show is true,
    to stdout, ended by a newline as print ends a line.  Returns whether they
    went to stdout."""
    if args.out:
        _atomic_write(args.out, render)
        return False
    if show:
        render(sys.stdout.write)
        sys.stdout.write("\n")
    return show


def _json(payload: Callable[[], object]) -> Callable:
    """The rendering of payload()'s JSON; payload is called only when it is
    rendered, so an unused document is never built."""
    return lambda write: write_json(payload(), write)


def write_json(doc, write: Callable[[str], object]) -> None:
    """Write doc in the bytes of json.dumps(doc, indent=2), chunk by chunk.

    doc is built of dicts with str keys, lists, str, int, bool and None, the
    values starq writes.  Strings are escaped as the stdlib's default
    ensure_ascii does.  Each chunk goes to write as it is made, so neither
    the document's text nor a list of its pieces is ever held whole.
    """
    _write_value(doc, write, "\n")


def _write_value(value, write: Callable[[str], object], newline: str) -> None:
    """value at the indentation that newline (a line break and its indent) sets."""
    kind = type(value)
    if kind is dict:
        if not value:
            write("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in value.items():
            kind = type(item)
            if kind is dict or kind is list:
                write(sep + _quote(key) + ": ")
                _write_value(item, write, inner)
            else:
                write(sep + _quote(key) + ": " + _scalar(item))
            sep = comma
        write(newline + "}")
    elif kind is list:
        if not value:
            write("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            kind = type(item)
            if kind is dict or kind is list:
                write(sep)
                _write_value(item, write, inner)
            else:
                write(sep + _scalar(item))
            sep = comma
        write(newline + "]")
    else:
        write(_scalar(value))


def _scalar(value) -> str:
    if type(value) is str:
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _parse_expr(text: str | None, what: str) -> XPoly | str | None:
    try:
        return parse_potential(text)
    except Exception as exc:
        raise ConfigError(f"cannot parse {what} expression {text!r}: {exc}")


# -- subcommands ------------------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> int:
    phi, psi = _parse_expr(args.phi, "phi"), _parse_expr(args.psi, "psi")
    try:
        star = build_star(args.mode, args.order, phi=phi, psi=psi,
                          opo_restrict=args.opo_restrict)
    except ObstructionError as exc:
        payload = {"status": "obstructed", "report": exc.report.to_json()}
        message = f"nonzero obstruction at level {exc.report.level}"
    except InfeasibleError as exc:
        payload, message = {"status": "infeasible", "detail": str(exc)}, str(exc)
    except ValueError as exc:
        raise ConfigError(str(exc))
    else:
        shown = _emit(args, _json(star.to_json), args.emit == "json")
        if args.emit == "latex":
            print(star_latex(star))
        elif not shown:
            counts = ", ".join(f"{k}:{len(level.terms)}"
                               for k, level in enumerate(star.levels))
            print(f"constructed mode={star.mode} ring={star.ring} order={star.order}")
            print(f"level term counts: {counts}")
            print(f"gauges: {star.gauges}")
            print("obstructions zero:", all(r.is_zero for r in star.obstruction_reports))
        return EXIT_OK
    _emit(args, _json(lambda: payload), True)
    print(message, file=sys.stderr)
    return EXIT_FINDING


def _load_star(path: str) -> StarProduct:
    try:
        with open(path) as handle:
            data = json.load(handle)
        return StarProduct.from_json(data)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}")
    except KeyError as exc:
        raise ConfigError(f"cannot load star product from {path}: missing field {exc}")
    except (json.JSONDecodeError, RecursionError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise ConfigError(f"cannot load star product from {path}: {exc}")


def cmd_verify(args: argparse.Namespace) -> int:
    star = _load_star(args.star)
    report = verify_star(star)
    shown = _emit(args, _json(lambda: report), args.emit == "json")
    if not shown:
        for check in report["checks"]:
            status = "ok" if check["pass"] else "FAIL"
            line = f"{status:4} {check['name']}"
            if not check["pass"] and check["witness"]:
                line += f"  witness triple: {tuple(check['witness'])}"
            print(line)
    if report["pass"]:
        # a JSON report is the whole of stdout
        print("verified", file=sys.stderr if shown else sys.stdout)
        return EXIT_OK
    first = next(c for c in report["checks"] if not c["pass"])
    print(f"verification failed at {first['name']}"
          + (f" on witness {tuple(first['witness'])}" if first["witness"] else ""),
          file=sys.stderr)
    return EXIT_FINDING


def cmd_jacobi(args: argparse.Namespace) -> int:
    if args.vector is not None:
        if args.phi is not None or args.psi is not None:
            raise ConfigError("--P takes no --phi or --psi")
        pieces = args.vector.split(",")
        if len(pieces) != 3:
            raise ConfigError("--P needs three comma-separated components")
        p = [_parse_expr(c.strip(), "component") for c in pieces]
        if any(isinstance(c, str) for c in p):
            raise ConfigError("--P components must be explicit polynomials")
    else:
        phi = _parse_expr(args.phi, "phi")
        if not isinstance(phi, XPoly):
            raise ConfigError("jacobi needs --P or an explicit --phi")
        psi = _parse_expr(args.psi, "psi")
        if isinstance(psi, str):
            raise ConfigError("jacobi needs an explicit --psi")
        p = poisson_vector(phi, psi)
    residual = jacobi_residual(p)
    print(f"residual: {residual}")
    return EXIT_OK if residual.is_zero else EXIT_FINDING


def cmd_obstruction(args: argparse.Namespace) -> int:
    phi, psi = _parse_expr(args.phi, "phi"), _parse_expr(args.psi, "psi")
    try:
        star = build_star(args.mode, args.k - 1, phi=phi, psi=psi)
        rhs, report = level_equation(star.levels, args.k, args.mode)
        check_closed(rhs, args.k)  # no solve at level k implies it
    except ObstructionError as exc:
        report = exc.report
    except (InfeasibleError, ValueError) as exc:
        raise ConfigError(str(exc))
    shown = _emit(args, _json(report.to_json), args.emit == "json")
    print(f"level {report.level}: " +
          ("zero (parity)" if report.is_zero and report.parity_path
           else "zero" if report.is_zero else "NONZERO"),
          file=sys.stderr if shown else sys.stdout)
    return EXIT_OK if report.is_zero else EXIT_FINDING


def cmd_opo_check(args: argparse.Namespace) -> int:
    try:
        term = parse_term(args.term)
    except Exception as exc:
        raise ConfigError(f"cannot parse term: {exc}")
    ok, arrangement = is_opo(term)
    canon = term_to_text(term)
    if ok:
        print(f"OPO: {canon}  arrangement {arrangement}")
        return EXIT_OK
    print(f"NOT OPO: {canon}")
    return EXIT_FINDING


def cmd_export_latex(args: argparse.Namespace) -> int:
    text = star_latex(_load_star(args.star))
    _emit(args, lambda write: write(text), True)
    return EXIT_OK


# -- argument wiring ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starq",
        description="exact star-product construction and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, emit, order=False):
        p.add_argument("--mode", choices=MODES, default=NABLA_PHI)
        p.add_argument("--phi", default="sym",
                       help="polynomial expression or 'sym'")
        p.add_argument("--psi", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--emit", choices=emit, default="text")
        if order:
            p.add_argument("--order", type=int, required=True)

    c = sub.add_parser("construct", help="build a star product level by level")
    common(c, ("text", "json", "latex"), order=True)
    c.add_argument("--opo-restrict", action="store_true",
                   help="restrict every level to the orderable-diagram span")
    c.set_defaults(run=cmd_construct)

    v = sub.add_parser("verify", help="independent re-check of a stored product")
    v.add_argument("star", help="path to a star-product JSON file")
    v.add_argument("--out", default=None)
    v.add_argument("--emit", choices=("text", "json"), default="text")
    v.set_defaults(run=cmd_verify)

    j = sub.add_parser("jacobi", help="integrability residual of a vector")
    j.add_argument("--P", dest="vector", default=None,
                   help="three comma-separated component polynomials")
    j.add_argument("--phi", default=None, help="explicit potential, instead of --P")
    j.add_argument("--psi", default=None, help="explicit conformal factor, with --phi")
    j.set_defaults(run=cmd_jacobi)

    o = sub.add_parser("obstruction", help="alternating obstruction at a level")
    common(o, ("text", "json"))
    o.add_argument("--k", type=int, required=True)
    o.set_defaults(run=cmd_obstruction)

    t = sub.add_parser("opo-check", help="orderability of one abstract term")
    t.add_argument("term", help="term in the factor grammar")
    t.set_defaults(run=cmd_opo_check)

    x = sub.add_parser("export-latex", help="render a stored product to LaTeX")
    x.add_argument("star", help="path to a star-product JSON file")
    x.add_argument("--out", default=None)
    x.set_defaults(run=cmd_export_latex)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check(args)
        return args.run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GradingError as exc:
        print(f"grading violation: {exc}", file=sys.stderr)
        return EXIT_GRADING


if __name__ == "__main__":
    sys.exit(main())
