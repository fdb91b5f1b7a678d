"""Katok-type model sets as an exact positive control at every n.

Katok's bumpy Finsler n-spheres have exactly 2 * ceil(n/2) prime closed geodesics
(Ziller 1983), so the identity, the index iteration and the Betti closed forms must
all agree on them.  `conftest.katok_models` builds the sets from rotation values that
reproduce the n = 2 Beatty pair; they were not checked against Ziller's paper, so the
sets are "Katok-type".  Every index has the parity of n - 1, and so has every degree
with b_q > 0: by Bott's lacunary principle the Morse table equals the Betti table.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from indexlab import ExactReal, GeodesicModel, NormalFormDecomposition, Rot
from indexlab.cli import main
from indexlab.morse import betti_values

from conftest import NONSQUARE_D, katok_models, model_json

BEATTY_ALPHA = ExactReal(-2, 1, 1, 5)  # sqrt(5) - 2: at n = 2 the set is the Beatty pair


@st.composite
def katok_sets(draw):
    """(n, models): alpha is a fractional part b*sqrt(D)/c shrunk below 1 / max weight."""
    n = draw(st.integers(2, 10))
    weights = draw(st.lists(st.integers(1, 12), min_size=(n + 1) // 2,
                            max_size=(n + 1) // 2, unique=True))
    x = ExactReal(0, draw(st.integers(1, 9)), draw(st.integers(2, 12)),
                  draw(st.sampled_from(NONSQUARE_D)))
    alpha = (x + (-x.floor())) / (max(weights) * draw(st.integers(1, 5)))
    return n, katok_models(n, alpha, weights)


def run(tmp_path, command, models, *extra):
    path = tmp_path / "models.json"
    path.write_text(json.dumps([model_json(g) for g in models]))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([command, "--models", str(path), *extra])
    return code, json.loads(out.getvalue())


def test_the_n_2_set_is_the_beatty_pair():
    pair = [GeodesicModel(2, NormalFormDecomposition([Rot(ExactReal(1, 1, 4, 5))]), 0),
            GeodesicModel(2, NormalFormDecomposition([Rot(ExactReal(-1, 1, 4, 5))]), 1)]
    assert katok_models(2, BEATTY_ALPHA, [1]) == pair


@settings(max_examples=50, deadline=None)
@given(katok_sets())
@example((8, katok_models(8, BEATTY_ALPHA, [1, 2, 3, 4])))
def test_identity_and_morse_table_hold_and_each_geodesic_is_needed(tmp_path_factory, drawn):
    n, models = drawn
    tmp_path = tmp_path_factory.mktemp("katok")
    assert len(models) == 2 * ((n + 1) // 2)
    code, doc = run(tmp_path, "identity", models)
    assert (code, doc["holds"]) == (0, True)

    # the horizon from the models' data: past every first index, and a period beyond it
    first = [g.initial_index for g in models]
    horizon = 2 * max(first) + 2 * (n - 1)
    code, doc = run(tmp_path, "morse-check", models, "--horizon", str(horizon))
    assert (code, doc["violations"]) == (0, [])
    assert doc["M"] == doc["b"] == betti_values(n, horizon)

    # without c_d, M falls below b first at i(c_d): below it M = b, as p >= 0 makes every
    # index sequence nondecreasing from i(c), and at it c_d's own count is missing
    for d, i_d in enumerate(first):
        rest = models[:d] + models[d + 1:]
        code, doc = run(tmp_path, "morse-check", rest, "--horizon", str(horizon))
        assert code == 1
        assert (doc["violations"][0]["q"], doc["violations"][0]["kind"]) == (i_d, "alternating")
