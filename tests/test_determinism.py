"""Outputs do not depend on the ids of the monomial table.

A jet monomial is an int id, numbered in the order a process first meets
the monomial.  A process whose table is pre-seeded in a shuffled order gives
its monomials other ids than a fresh one; every product, report, LaTeX
export and record must still come out byte for byte the same.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import starq

# Runs in a child process: interns the code tuples read from stdin, in that
# order, then prints every output and the table it ended with as one JSON object.
_CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path
from starq import jets
from starq.cli import main
from records import psi_opo_experiment

for codes in json.load(sys.stdin):
    jets.intern(tuple(codes))
work = Path(sys.argv[1])
outputs = {}

def run(name, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    outputs[name] = [rc, out.getvalue(), err.getvalue()]

CONFORMAL = ["--mode", "psi-nabla-phi", "--phi", "sym", "--psi", "sym"]
PRODUCTS = {
    "sym3": ["--phi", "sym", "--order", "3"],
    "sym3-opo": ["--phi", "sym", "--order", "3", "--opo-restrict"],
    "conformal2": CONFORMAL + ["--order", "2"],
}
for name, args in PRODUCTS.items():
    path = str(work / f"{name}.json")
    run(f"construct {name}", ["construct", *args, "--out", path])
    outputs[f"file {name}"] = Path(path).read_text()
    run(f"verify {name}", ["verify", path, "--emit", "json"])
    run(f"export-latex {name}", ["export-latex", path])
run("obstruction gradient", ["obstruction", "--phi", "sym", "--k", "4", "--emit", "json"])
run("obstruction conformal", ["obstruction", *CONFORMAL, "--k", "4", "--emit", "json"])
outputs["experiment"] = json.dumps(psi_opo_experiment(), indent=2)
print(json.dumps({"outputs": outputs, "table": jets._codes}))
"""


def _child(work: Path, seed_codes: list, hash_seed: str) -> dict:
    paths = [Path(starq.__file__).resolve().parents[1], Path(__file__).resolve().parent]  # src, tests
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(map(str, paths)))
    work.mkdir()
    done = subprocess.run([sys.executable, "-c", _CHILD, str(work)], input=json.dumps(seed_codes),
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_outputs_do_not_depend_on_monomial_ids(tmp_path):
    fresh = _child(tmp_path / "fresh", [], "0")
    shuffled = fresh["table"][1:]  # id 0 stays the constant
    Random(2024).shuffle(shuffled)
    seeded = _child(tmp_path / "seeded", shuffled, "1")
    # the seeded process gave the fresh one's monomials their ids in a shuffled order
    assert seeded["table"][1:len(shuffled) + 1] == shuffled != fresh["table"][1:]
    assert len(shuffled) > 1000
    assert seeded["outputs"].keys() == fresh["outputs"].keys()
    for name, output in fresh["outputs"].items():
        assert seeded["outputs"][name] == output, name
    assert fresh["outputs"]["obstruction conformal"][0] == 3  # a nonzero report is compared too
