"""Same bytes: what every benchmark op writes, and every certificate, pinned by digest.

The ops are those `bench/gen.py` builds at seed 5, run through `cli.main` in process; each
op adds its name, exit code and the sha256 of its stdout to its workload's digest.  A
change meant to keep every output byte fails here if it does not.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from indexlab.cli import main
from indexlab.prover import certificate_json

GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
SEED = 5
DIGESTS = {
    "iterate_sweep": "0dff014ab7d8d399017145782e5ac80cd1c2c5ebc7033c0a23c941c8d88ea0a0",
    "morse_deep": "f2c54c9ae38998d264afc43f03cf41d5b9875a0316768cd6ecfdb47201adf7e7",
    "prove_certify": "bb25967e45d8db6297ed9f48c5bce334cddb1f32af1b1e7175152763231efb4f",
}
# certificate_json(n) + "\n", the bytes `prove --n N` writes, over n = 2..400, 10^9, 10^9 + 1
CERTIFICATES = "329b08c4f6243e27164246ec8e0614bee44ace4ef36cce60c32a13f891762006"


@pytest.fixture(scope="module")
def gen():
    """bench/gen.py, loaded from its file, which stays as it is."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_every_op_writes_the_same_bytes(tmp_path, gen, workload):
    ops = gen.make_ops(workload, SEED)
    gen.write_inputs(ops, str(tmp_path))
    digest = hashlib.sha256()
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(op.argv(str(tmp_path)))
        stdout = hashlib.sha256(out.getvalue().encode()).hexdigest()
        digest.update(f"{op.name} {code} {stdout}\n".encode())
    assert digest.hexdigest() == DIGESTS[workload]


def test_every_certificate_keeps_its_bytes():
    digest = hashlib.sha256()
    for n in [*range(2, 401), 10**9, 10**9 + 1]:
        digest.update((certificate_json(n) + "\n").encode())
    assert digest.hexdigest() == CERTIFICATES
