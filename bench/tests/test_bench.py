"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
from run import MIN_PASSES, passes, tail, traced_ops  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_self_time_nested_and_sibling_spans():
    ticks = iter([0, 1, 3, 4, 5, 6, 8, 10])
    tracer = Tracer(clock=lambda: next(ticks))
    a = tracer.wrap("a", lambda: None, span=True)
    c = tracer.wrap("c", lambda: None, span=False)  # counter only, still a child
    b = tracer.wrap("b", lambda: c(), span=True)
    outer = tracer.wrap("outer", lambda: (a(), b()), span=True)
    tracer.begin_op(7)
    outer()
    tracer.end_op()
    # outer [0,10] holds a [1,3] and b [4,8]; b holds c [5,6]
    assert dict(tracer.self_s) == {"outer": 4, "a": 2, "b": 3, "c": 1}
    spans = {s.name: s for s in tracer.spans}
    assert set(spans) == {"outer", "a", "b"}
    assert spans["outer"].parent is None
    assert spans["a"].parent == spans["b"].parent == spans["outer"].id
    assert (spans["b"].start, spans["b"].end, spans["b"].op) == (4, 8, 7)


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100, 0, -1)]
    assert tail(samples) == (90.0, 0.9)
    assert tail(samples[:11]) == (90.0, 1 / 11)
    with pytest.raises(ValueError):
        tail(samples[:10])
    # ties: ten samples still lie beyond the one returned
    assert tail([1.0] * 5 + [2.0] * 10) == (1.0, 1 / 3)


def test_passes_and_traced_share_follow_seconds():
    assert passes("iterate_sweep", 20) == 7
    assert passes("morse_deep", 20) == MIN_PASSES
    ops = list(range(27))
    assert traced_ops(ops, "morse_deep", 20) == ops[:7]
    assert traced_ops(ops, "morse_deep", 1000) == ops
    assert traced_ops(ops, "morse_deep", 0.001) == ops[:1]


def test_oracle_hand_worked_values():
    # README: rho = sqrt(2) - 1, GeodesicModel(3, [Rot(rho), Hyp(2)], 2) is NCG4
    g = gen.Model(3, 2, "NCG4", (gen.Rho(-1, 1, 1, 2),), (), (gen.Fraction(2),), (0, 1))
    assert oracle.index(g, 10) == 19
    assert oracle.serialize(oracle.mean_index(g)) == "(-1+2*sqrt(2))/1"
    assert oracle.betti(2, 5) == [0, 1, 0, 2, 0, 2]
    assert oracle.floor_qf(0, 1, 1, 2) == 1 and oracle.floor_qf(0, -1, 1, 2) == -2


def test_oracle_betti_matches_closed_form():
    from indexlab.morse import betti

    for n in range(2, 9):
        assert oracle.betti(n, 60) == [betti(n, q) for q in range(61)]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_are_byte_identical_per_seed(tmp_path, workload):
    docs = []
    for i, seed in enumerate((5, 5, 6)):
        d = tmp_path / str(i)
        d.mkdir()
        ops = gen.make_ops(workload, seed)
        gen.write_inputs(ops, str(d))
        docs.append(([o.argv("") for o in ops],
                     {p.name: p.read_bytes() for p in sorted(d.iterdir())}))
    assert docs[0] == docs[1]
    assert docs[0] != docs[2]


def _run(argv):
    from indexlab import cli

    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_traced_counts_match_the_inputs(tmp_path):
    """The wrappers reach every namespace: counts equal what the oracle
    derives, and uninstall restores the originals."""
    import indexlab.iteration
    import indexlab.morse

    ops = [o for o in gen.make_ops("iterate_sweep", 3) if o.param < 40][:20]
    ops += [gen.Op("p", "prove", 12)]
    gen.write_inputs(ops, str(tmp_path))
    original = indexlab.morse.index_of_iterate
    tracer = Tracer()
    tracer.install()
    implied = oracle.Counter()
    try:
        for op in ops:
            tracer.begin_op(op.name)
            rc, out = _run(op.argv(str(tmp_path)))
            tracer.end_op()
            problems, counts = oracle.check(op, rc, out)
            assert problems == []
            implied.update(counts)
    finally:
        tracer.uninstall()
    assert indexlab.morse.index_of_iterate is original
    assert indexlab.iteration.index_of_iterate is original
    counts = tracer.layer_counts()
    for name, value in implied.items():
        assert counts[name] == value, name
    assert counts["iteration.index_of_iterate.distinct"] * 2 == counts[
        "iteration.index_of_iterate.calls"]


def test_oracle_rejects_a_wrong_output(tmp_path):
    op = [o for o in gen.make_ops("iterate_sweep", 1) if o.models[0].k > 0][0]
    gen.write_inputs([op], str(tmp_path))
    rc, out = _run(op.argv(str(tmp_path)))
    assert oracle.check(op, rc, out)[0] == []
    wrong = out.replace('"i":', '"i":1', 1)
    assert oracle.check(op, rc, wrong)[0]
    assert oracle.check(op, 1, out)[0]


def test_oracle_morse_check_agrees_on_a_small_horizon(tmp_path):
    op = gen.make_ops("morse_deep", 2)[0]
    op = gen.Op(op.name, op.command, 300, op.models)
    gen.write_inputs([op], str(tmp_path))
    rc, out = _run(op.argv(str(tmp_path)))
    problems, counts = oracle.check(op, rc, out)
    assert problems == []
    assert counts["morse.morse_numbers.iterates"] > 0
