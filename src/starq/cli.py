"""Command-line frontend: construction, verification, and reports.

Exit statuses are a total function of the computed report: 0 for a clean
result, 2 for configuration or parse problems, 3 for a negative finding
(nonzero residual or obstruction, failed verification, non-orderable term,
infeasible restricted solve), 4 for an internal grading violation.  Output
files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass

from .jets import NABLA_PHI, PSI_NABLA_PHI
from .latex import star_latex
from .opo import is_opo, parse_term, term_to_text
from .polynomials import XPoly, parse_poly
from .star import (GradingError, InfeasibleError, ObstructionError,
                   StarProduct, build_star, level_equation)
from .verify import PoissonVector, jacobi_residual, verify_star

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FINDING = 3
EXIT_GRADING = 4

MODES = (NABLA_PHI, PSI_NABLA_PHI)

# Resource bounds, checked before any work: the cost of a build, of an
# obstruction (which builds every level below it) and of the associator scan
# grows steeply with these values.
MAX_ORDER = 8
MAX_K = 9
MAX_DEGREE = 8


class ConfigError(Exception):
    pass


@dataclass
class JobConfig:
    command: str
    mode: str = NABLA_PHI
    phi: str = "sym"
    psi: str | None = None
    order: int = 1
    jet_cap: int | None = None
    degree: int | None = None
    k: int | None = None  # obstruction level
    out: str | None = None
    emit: str = "text"
    opo_restrict: bool = False
    star: str | None = None  # stored product read by verify and export-latex

    def validate(self) -> None:
        if self.command == "construct" and not 1 <= self.order <= MAX_ORDER:
            raise ConfigError(f"order must be between 1 and {MAX_ORDER}")
        if self.k is not None and not 2 <= self.k <= MAX_K:
            raise ConfigError(f"obstruction level must be between 2 and {MAX_K}")
        # R_k, graded up to the top level, spreads 3k derivatives over k jets
        # of order >= 1 and three nonempty slots: its jets reach order 2k - 2
        top, what = (self.order, "order") if self.k is None else (self.k, "obstruction level")
        need = max(top + 1, 2 * top - 2)
        if self.jet_cap is not None and self.jet_cap < need:
            raise ConfigError(f"jet truncation must be at least {need} at this {what}")
        if self.degree is not None and not 1 <= self.degree <= MAX_DEGREE:
            raise ConfigError(f"degree bound must be between 1 and {MAX_DEGREE}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.out is not None and not os.path.isdir(_directory(self.out)):
            raise ConfigError(f"no such output directory: {_directory(self.out)}")


def _directory(path: str) -> str:
    return os.path.dirname(os.path.abspath(path))


def _atomic_write(path: str, text: str) -> None:
    try:
        fd, tmp = tempfile.mkstemp(dir=_directory(path), prefix=".starq-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _emit(cfg: JobConfig, text: str) -> None:
    if cfg.out:
        _atomic_write(cfg.out, text)
    else:
        print(text)


def _parse_expr(text: str, what: str) -> XPoly | str:
    if text == "sym":
        return "sym"
    try:
        return parse_poly(text)
    except Exception as exc:
        raise ConfigError(f"cannot parse {what} expression {text!r}: {exc}")


# -- subcommands ------------------------------------------------------------------


def cmd_construct(cfg: JobConfig) -> int:
    phi = _parse_expr(cfg.phi, "phi")
    psi = None if cfg.psi is None else _parse_expr(cfg.psi, "psi")
    try:
        star = build_star(cfg.mode, cfg.order, phi=phi, psi=psi,
                          jet_cap=cfg.jet_cap, opo_restrict=cfg.opo_restrict)
    except ObstructionError as exc:
        payload = {"status": "obstructed", "report": exc.report.to_json()}
        _emit(cfg, json.dumps(payload, indent=2))
        print(f"nonzero obstruction at level {exc.report.level}",
              file=sys.stderr)
        return EXIT_FINDING
    except InfeasibleError as exc:
        payload = {"status": "infeasible", "detail": str(exc)}
        _emit(cfg, json.dumps(payload, indent=2))
        print(str(exc), file=sys.stderr)
        return EXIT_FINDING
    except ValueError as exc:
        raise ConfigError(str(exc))
    text = json.dumps(star.to_json(), indent=2)
    if cfg.out:
        _atomic_write(cfg.out, text)
    if cfg.emit == "json" and not cfg.out:
        print(text)
    elif cfg.emit == "latex":
        print(star_latex(star))
    else:
        counts = ", ".join(f"{k}:{level.term_count()}"
                           for k, level in enumerate(star.levels))
        print(f"constructed mode={star.mode} ring={star.ring} "
              f"order={star.order}")
        print(f"level term counts: {counts}")
        print(f"gauges: {star.gauges}")
        print("obstructions zero:",
              all(r.is_zero for r in star.obstruction_reports))
    return EXIT_OK


def _load_star(path: str) -> StarProduct:
    try:
        with open(path) as handle:
            data = json.load(handle)
        return StarProduct.from_json(data)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}")
    except (json.JSONDecodeError, KeyError, RecursionError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise ConfigError(f"cannot load star product from {path}: {exc}")


def cmd_verify(cfg: JobConfig) -> int:
    star = _load_star(cfg.star)
    report = verify_star(star, degree=cfg.degree)
    text = json.dumps(report, indent=2)
    if cfg.out:
        _atomic_write(cfg.out, text)
    if cfg.emit == "json" and not cfg.out:
        print(text)
    else:
        for check in report["checks"]:
            status = "ok" if check["pass"] else "FAIL"
            line = f"{status:4} {check['name']}"
            if not check["pass"] and check["witness"]:
                line += f"  witness triple: {tuple(check['witness'])}"
            print(line)
    if report["pass"]:
        print("verified")
        return EXIT_OK
    first = next(c for c in report["checks"] if not c["pass"])
    print(f"verification failed at {first['name']}"
          + (f" on witness {tuple(first['witness'])}" if first["witness"] else ""),
          file=sys.stderr)
    return EXIT_FINDING


def cmd_jacobi(cfg: JobConfig, vector: str | None) -> int:
    if vector is not None:
        pieces = vector.split(",")
        if len(pieces) != 3:
            raise ConfigError("--P needs three comma-separated components")
        polys = [_parse_expr(p.strip(), "component") for p in pieces]
        if any(isinstance(p, str) for p in polys):
            raise ConfigError("--P components must be explicit polynomials")
        p = PoissonVector(*polys)
    else:
        phi = _parse_expr(cfg.phi, "phi")
        if isinstance(phi, str):
            raise ConfigError("jacobi needs --P or an explicit --phi")
        if cfg.psi is not None:
            psi = _parse_expr(cfg.psi, "psi")
            if isinstance(psi, str):
                raise ConfigError("jacobi needs an explicit --psi")
            p = PoissonVector.from_conformal(psi, phi)
        else:
            p = PoissonVector.from_gradient(phi)
    residual = jacobi_residual(p)
    print(f"residual: {residual}")
    return EXIT_OK if residual.is_zero else EXIT_FINDING


def cmd_obstruction(cfg: JobConfig) -> int:
    k = cfg.k
    phi = _parse_expr(cfg.phi, "phi")
    psi = None if cfg.psi is None else _parse_expr(cfg.psi, "psi")
    try:
        star = build_star(cfg.mode, k - 1, phi=phi, psi=psi,
                          jet_cap=cfg.jet_cap)
        _, report = level_equation(star.levels, k, cfg.mode, cfg.jet_cap)
    except ObstructionError as exc:
        report = exc.report
    except (InfeasibleError, ValueError) as exc:
        raise ConfigError(str(exc))
    payload = report.to_json()
    text = json.dumps(payload, indent=2)
    if cfg.out:
        _atomic_write(cfg.out, text)
    print(f"level {report.level}: " +
          ("zero (parity)" if report.is_zero and report.parity_path
           else "zero" if report.is_zero else "NONZERO"))
    if cfg.emit == "json" and not cfg.out:
        print(text)
    return EXIT_OK if report.is_zero else EXIT_FINDING


def cmd_opo_check(cfg: JobConfig, term_text: str) -> int:
    try:
        term = parse_term(term_text)
    except Exception as exc:
        raise ConfigError(f"cannot parse term: {exc}")
    ok, arrangement = is_opo(term)
    canon = term_to_text(term)
    if ok:
        print(f"OPO: {canon}  arrangement {arrangement}")
        return EXIT_OK
    print(f"NOT OPO: {canon}")
    return EXIT_FINDING


def cmd_export_latex(cfg: JobConfig) -> int:
    star = _load_star(cfg.star)
    text = star_latex(star)
    if cfg.out:
        _atomic_write(cfg.out, text)
    else:
        print(text)
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
        p.add_argument("--jet-cap", type=int, default=None,
                       help="jet truncation bound (symbolic runs)")
        p.add_argument("--out", default=None)
        p.add_argument("--emit", choices=emit, default="text")
        if order:
            p.add_argument("--order", type=int, required=True)

    c = sub.add_parser("construct", help="build a star product level by level")
    common(c, ("text", "json", "latex"), order=True)
    c.add_argument("--opo-restrict", action="store_true",
                   help="restrict every level to the orderable-diagram span")

    v = sub.add_parser("verify", help="independent re-check of a stored product")
    v.add_argument("star", help="path to a star-product JSON file")
    v.add_argument("--degree", type=int, default=None,
                   help="associator scan degree bound")
    v.add_argument("--out", default=None)
    v.add_argument("--emit", choices=("text", "json"), default="text")

    j = sub.add_parser("jacobi", help="integrability residual of a vector")
    j.add_argument("--P", dest="vector", default=None,
                   help="three comma-separated component polynomials")
    j.add_argument("--phi", default="sym")
    j.add_argument("--psi", default=None)

    o = sub.add_parser("obstruction", help="alternating obstruction at a level")
    common(o, ("text", "json"))
    o.add_argument("--k", type=int, required=True)

    t = sub.add_parser("opo-check", help="orderability of one abstract term")
    t.add_argument("term", help="term in the factor grammar")

    x = sub.add_parser("export-latex", help="render a stored product to LaTeX")
    x.add_argument("star", help="path to a star-product JSON file")
    x.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = JobConfig(
            command=args.command,
            mode=getattr(args, "mode", NABLA_PHI),
            phi=getattr(args, "phi", "sym") or "sym",
            psi=getattr(args, "psi", None),
            order=getattr(args, "order", 1),
            jet_cap=getattr(args, "jet_cap", None),
            degree=getattr(args, "degree", None),
            k=getattr(args, "k", None),
            out=getattr(args, "out", None),
            emit=getattr(args, "emit", "text"),
            opo_restrict=getattr(args, "opo_restrict", False),
            star=getattr(args, "star", None),
        )
        cfg.validate()
        if args.command == "construct":
            return cmd_construct(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "jacobi":
            return cmd_jacobi(cfg, args.vector)
        if args.command == "obstruction":
            return cmd_obstruction(cfg)
        if args.command == "opo-check":
            return cmd_opo_check(cfg, args.term)
        if args.command == "export-latex":
            return cmd_export_latex(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GradingError as exc:
        print(f"grading violation: {exc}", file=sys.stderr)
        return EXIT_GRADING


if __name__ == "__main__":
    sys.exit(main())
