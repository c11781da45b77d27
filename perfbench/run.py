"""Benchmark of starq: CPU time to a certified product, to a verdict, to a rejection.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: starq is imported from ``src``.
One workload runs in this single process and drives starq through
``starq.cli.main`` in whole rounds of the same operations until ``--seconds``
of wall time have passed.  A round constructs each product, verifies it,
verifies two seeded mutants of it and, in ``explicit-potentials``, verifies
nine malformed star files (timed apart, in no metric).  Phases are timed in CPU time (the engine is
sequential), corrected for the shared machine's speed by ``speed.py``; raw
CPU and wall time are kept in the result file only.
Independent checks (``oracles.py``) run after the timed rounds.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The full record goes
to ``perfbench/out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from corpus import malformed_files, mutant
from speed import REFERENCE_S, Speedometer
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 9
# "load" is the malformed files: kept in the record, reported in no metric
PHASES = ("construct", "verify", "reject", "load")
# each product gets one mutant per level: its first asymmetric term is changed
MUTANT_LEVELS = (1, 2)

@dataclass
class Product:
    """One `starq construct` call and the checks its output must pass."""
    name: str
    args: list[str]
    oracle: str  # "symbolic", "opo" or "explicit"
    weyl: bool = False  # also compare with the closed Weyl formula

    def option(self, flag: str) -> str | None:
        """The value this product passes for ``flag``, or None."""
        return self.args[self.args.index(flag) + 1] if flag in self.args else None


SYMBOLIC = ["--phi", "sym", "--order", "3"]
WORKLOADS = {
    "symbolic-gradient": [Product("sym3", SYMBOLIC, "symbolic")],
    "orderable-span": [Product("opo3", SYMBOLIC + ["--opo-restrict"], "opo")],
    "explicit-potentials": [
        Product("cubic", ["--phi", "x1*x2*x3", "--order", "3"], "explicit"),
        Product("quadratic", ["--phi", "1/2*(x1^2+x2^2+x3^2)", "--order", "3"], "explicit"),
        Product("linear", ["--phi", "x3", "--order", "4"], "explicit", weyl=True),
        Product("conformal", ["--mode", "psi-nabla-phi", "--phi", "x1*x2*x3", "--psi", "1+x1",
                              "--order", "3"], "explicit"),
    ],
}
MALFORMED = {"explicit-potentials"}

# Per-layer metrics: name -> (traced function, report time, report calls).
LAYER_METRICS = {
    "cochains.bracket": ("cochains.Cochain.bracket", True, True),
    "cochains.insert": ("cochains.Cochain.insert", True, True),
    "cochains.hochschild_delta": ("cochains.Cochain.hochschild_delta", True, True),
    "cochains.antisymmetrize": ("cochains.Cochain.antisymmetrize", True, False),
    "cochains.eval_args": ("cochains.Cochain.eval_args", True, True),
    "cochains.specialize": ("cochains.Cochain.specialize", True, False),
    "star.assemble_rhs": ("star.assemble_rhs", True, False),
    "star.obstruction": ("star.obstruction", True, False),
    "star.check_grading": ("star.check_grading", True, False),
    "star.delta_solver": ("star.DeltaSolver.solve", True, True),
    "star.solve_opo": ("star.solve_opo", True, False),
    "star.from_json": ("star.StarProduct.from_json", True, False),
    "star.to_json": ("star.StarProduct.to_json", True, False),
    "linsolve.add_column": ("linsolve.ColumnReducer.add_column", True, True),
    "linsolve.solve": ("linsolve.ColumnReducer.solve", True, True),
    "opo.enumerate_terms": ("opo.enumerate_terms", True, True),
    "opo.concretize": ("opo.concretize", True, True),
    "opo.canonical_term": ("opo.canonical_term", False, True),
    "verify.verify_star": ("verify.verify_star", True, False),
    "verify.associator": ("verify.associator", True, True),
    "verify.commutator_probe": ("verify.commutator_probe", True, False),
    "polynomials.mul": ("polynomials.XPoly.__mul__", True, True),
    "polynomials.derivative": ("polynomials.XPoly.derivative", True, True),
    "jets.eval_jets": ("jets.JetPolynomial.eval_jets", True, False),
    "jets.mul": ("jets.JetPolynomial.__mul__", True, True),
    "jets.x_derivative": ("jets.JetPolynomial.x_derivative", True, True),
    "cli.main": ("cli.main", True, False),
}


@dataclass
class Op:
    phase: str
    label: str
    rc: int
    cpu: float  # CPU seconds corrected for the machine's speed (speed.py)
    raw_cpu: float
    wall: float
    ok: bool
    detail: str = ""
    layer_self: dict | None = None  # traced runs: module self time in this op


@dataclass
class Context:
    """What one set-up produces: the CLI entry point and the input files."""
    main: object
    work: Path
    products: list[Product]
    malformed: list[Path] = field(default_factory=list)


# -- set-up --------------------------------------------------------------------------


def import_starq():
    """A fresh import of starq from the checkout's src, whatever was loaded before."""
    for name in [n for n in sys.modules if n == "starq" or n.startswith("starq.")]:
        del sys.modules[name]
    import starq.cli
    if Path(starq.cli.__file__).resolve().parent != SRC / "starq":
        raise SystemExit(f"starq was imported from {starq.cli.__file__}, not from {SRC}")
    return starq.cli.main


def set_up(workload: str, work: Path) -> Context:
    ctx = Context(main=import_starq(), work=work, products=WORKLOADS[workload])
    if workload in MALFORMED:
        for name, text in malformed_files():
            path = work / f"malformed-{name}.json"
            path.write_text(text)
            ctx.malformed.append(path)
    return ctx


# -- timed operations ----------------------------------------------------------------


def call(main, argv: list[str]) -> tuple[int, str, str]:
    """starq.cli.main in-process; an escaping exception counts as exit 1, as
    the console script would end with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the CLI's own boundary let it through
        rc = 1
        err.write(f"traceback: {type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


def verify_report(stdout: str) -> dict | None:
    try:
        return json.JSONDecoder().raw_decode(stdout.lstrip())[0]
    except ValueError:
        return None


class Round:
    """The operations of one round, with their checks."""

    def __init__(self, ctx: Context, rng_seed: int, clock: Speedometer, tracer=None):
        self.ctx, self.clock, self.tracer = ctx, clock, tracer
        self.rng_seed = rng_seed
        self.texts: dict[str, str] = {}  # product name -> JSON of the first round
        self.mutants: dict[str, list[Path]] = {}
        self.ops: list[Op] = []

    def op(self, phase: str, label: str, argv: list[str], expect: int, check=None) -> Op:
        layer_self = None
        mark, wall = self.clock.mark(), time.perf_counter()
        if self.tracer is None:
            rc, out, err = call(self.ctx.main, argv)
        else:
            before = self.tracer.module_self()
            with self.tracer.span(f"{phase}:{label}"):
                rc, out, err = call(self.ctx.main, argv)
            layer_self = {m: v - before[m] for m, v in self.tracer.module_self().items()}
        wall = time.perf_counter() - wall
        raw_cpu, cpu = self.clock.since(mark)
        ok, detail = rc == expect, err.strip()[-300:]
        if ok and check is not None:
            ok, detail = check(out)
        result = Op(phase, label, rc, cpu, raw_cpu, wall, ok, "" if ok else detail, layer_self)
        self.ops.append(result)
        return result

    def run(self) -> list[Op]:
        start = len(self.ops)
        for product in self.ctx.products:
            path = self.ctx.work / f"{product.name}.json"
            built = self.op("construct", product.name,
                            ["construct", *product.args, "--out", str(path)], 0)
            if built.ok:
                self._record(product, path, built)
            self.op("verify", product.name, ["verify", str(path), "--emit", "json"], 0,
                    check=_passes)
        for product in self.ctx.products:
            for path in self.mutants.get(product.name, []):
                self.op("reject", path.stem, ["verify", str(path), "--emit", "json"], 3,
                        check=_witnessed)
        for path in self.ctx.malformed:
            self.op("load", path.stem, ["verify", str(path)], 2)
        return self.ops[start:]

    def _record(self, product: Product, path: Path, op: Op) -> None:
        """Keep the first round's product; later rounds must reproduce it."""
        text = path.read_text()
        first = self.texts.setdefault(product.name, text)
        if text != first:
            op.ok, op.detail = False, "product differs from the first round's"
        if product.name not in self.mutants:
            self.mutants[product.name] = []
            for level in MUTANT_LEVELS:
                rng = random.Random(f"{self.rng_seed}:{product.name}:{level}")
                path = self.ctx.work / f"mutant-{product.name}-{level}.json"
                path.write_text(json.dumps(mutant(json.loads(text), rng, level), indent=2))
                self.mutants[product.name].append(path)


def _passes(stdout: str) -> tuple[bool, str]:
    report = verify_report(stdout)
    if report is None or report.get("pass") is not True:
        return False, "verify did not report a pass"
    return True, ""


def _witnessed(stdout: str) -> tuple[bool, str]:
    report = verify_report(stdout)
    failing = [c for c in (report or {}).get("checks", []) if not c.get("pass")]
    if report is None or report.get("pass") is not False or not failing:
        return False, "verify did not reject the mutant"
    if not failing[0].get("witness"):
        return False, f"check {failing[0].get('name')} failed without a witness"
    return True, ""


# -- independent checks --------------------------------------------------------------


def check_products(products: list[Product], texts: dict[str, str], seed: int) -> dict:
    """Run the oracles on each product; returns {name: error or None}."""
    import oracles  # imports sympy, so only after peak memory was read
    results = {}
    for product in products:
        if product.name not in texts:
            results[product.name] = "not constructed"
            continue
        star = json.loads(texts[product.name])
        try:
            if product.oracle in ("symbolic", "opo"):
                oracles.check_symbolic(star, random.Random(f"{seed}:oracle:{product.name}"))
            if product.oracle == "opo":
                oracles.check_gauges(star, "opo", range(2, star["order"] + 1))
            if product.oracle == "explicit":
                oracles.check_parity(star)
                oracles.check_bracket(star, product.option("--phi"), product.option("--psi"))
            if product.weyl:
                oracles.check_weyl(star)
            results[product.name] = None
        except oracles.OracleError as exc:
            results[product.name] = str(exc)
    return results


def fail_rejected(ops: list[Op], oracle_results: dict) -> set[str]:
    """Mark every construct of a product the oracles rejected as failed."""
    rejected = {name for name, error in oracle_results.items() if error}
    for op in ops:
        if op.phase == "construct" and op.label in rejected:
            op.ok, op.detail = False, f"oracle: {oracle_results[op.label]}"
    return rejected


# -- the run -------------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def phase_totals(ops: list[Op], attr: str) -> dict[str, float]:
    return {phase: sum(getattr(o, attr) for o in ops if o.phase == phase) for phase in PHASES}


def layer_metrics(tracer, rounds: int) -> dict:
    metrics = {}
    for name, (traced, timed, counted) in LAYER_METRICS.items():
        calls, total, _ = tracer.stats.get(traced, (0, 0.0, 0.0))
        if timed:
            metrics[f"{name}_s"] = {"value": total / rounds, "unit": "s"}
        if counted:
            metrics[f"{name}_calls"] = {"value": calls / rounds, "unit": "count"}
    for module, own in tracer.module_self().items():
        metrics[f"{module}.self_s"] = {"value": own / rounds, "unit": "s"}
    return metrics


def phase_accounting(ops: list[Op]) -> dict:
    """How much of each traced phase's wall time the module self times cover."""
    out = {}
    for phase in PHASES:
        mine = [o for o in ops if o.phase == phase]
        modules = {m: sum(o.layer_self[m] for o in mine)
                   for m in (mine[0].layer_self if mine else {})}
        wall = sum(o.wall for o in mine)
        out[phase] = {"wall_s": wall, "module_self_s": modules,
                      "share": sum(modules.values()) / wall if wall else None}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    # traced runs report per-layer times only, so they are not interrupted by samples
    clock = Speedometer(sampling=not trace)
    try:
        return _measure(workload, seed, seconds, trace, work, clock)
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
             clock: Speedometer) -> dict:
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        mark = clock.mark()
        ctx = set_up(workload, work)
        raw, corrected = clock.since(mark)
        raw_setups.append(raw)
        setups.append(corrected)
    # the speed sampler's own CPU time is not set-up
    to_first_call = time.process_time() - clock.warmup_s - clock.spent

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        ctx.main = sys.modules["starq.cli"].main
    round_ = Round(ctx, seed, clock, tracer)
    per_round = []
    began = time.perf_counter()
    while True:
        ops = round_.run()
        per_round.append({key: phase_totals(ops, key) for key in ("cpu", "raw_cpu", "wall")})
        if time.perf_counter() - began >= seconds:
            break
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    oracle_results = check_products(ctx.products, round_.texts, seed)
    rejected = fail_rejected(round_.ops, oracle_results)

    rounds = len(per_round)
    failures = [o for o in round_.ops if not o.ok]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds, "attempted": len(round_.ops), "failed": len(failures),
        "correct": not rejected,
        "setup_s_repeats": setups, "raw_setup_s_repeats": raw_setups,
        "process_cpu_to_first_call_s": to_first_call,
        "per_round": per_round, "oracles": oracle_results,
        "speed_samples": {"count": len(clock.samples),
                          "median_s": _median(clock.samples), "reference_s": REFERENCE_S},
        "failures": sorted({(o.phase, o.label, o.rc, o.detail) for o in failures}),
    }
    if trace:
        metrics = layer_metrics(tracer, rounds)
        record["phase_accounting"] = phase_accounting(round_.ops)
        tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl",
                     {"workload": workload, "seed": seed, "rounds": rounds})
    else:
        cpu = {p: _median([r["cpu"][p] for r in per_round]) for p in PHASES}
        metrics = {
            "setup_s": {"value": _median(setups), "unit": "s"},
            "construct_s": {"value": cpu["construct"], "unit": "s"},
            "verify_s": {"value": cpu["verify"], "unit": "s"},
            "reject_s": {"value": cpu["reject"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["metrics"] = metrics
    with open(OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w") as handle:
        json.dump(record, handle, indent=2)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starq" / "cli.py").is_file():
        print(f"error: no starq sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for phase in PHASES:
        cpu, raw, wall = (_median([r[key][phase] for r in record["per_round"]])
                          for key in ("cpu", "raw_cpu", "wall"))
        print(f"{phase:9s} cpu {cpu:8.4f} s  raw cpu {raw:8.4f} s  wall {wall:8.4f} s"
              f"  (medians of {record['rounds']} rounds)")
    for phase, label, rc, detail in record["failures"]:
        print(f"failed: {phase} {label} exit {rc}: {detail}")
    for name, error in record["oracles"].items():
        print(f"oracle {name}: {error or 'ok'}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
