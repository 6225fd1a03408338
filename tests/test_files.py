"""Game and scheme file parsing, serialization, and diagnostics."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from statehelper import (
    GameFileError,
    LayeredScheme,
    Scheme,
    parse_game,
    parse_scheme,
    serialize_game,
    serialize_scheme,
)

from statehelper import files

from conftest import (
    make_degenerate_game,
    make_erasure_game,
    make_fig1_game,
    make_optimal_erasure_scheme,
    random_game,
    random_scheme,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

ERASURE_YAML = """
states: ["0", "1"]
prior: [0.5, 0.5]
actions_a: ["0", "e", "1"]
actions_b: ["0", "1"]
payoffs:
  - [[3, 0], [0, 1], ["-inf", "-inf"]]
  - [["-inf", "-inf"], [1, 0], [0, 3]]
"""


def test_parse_game_with_forbidden_entries():
    game = parse_game(ERASURE_YAML)
    reference = make_erasure_game()
    assert game.states == reference.states
    assert np.array_equal(game.payoff, reference.payoff)
    assert game.payoff[2, 0, 0] == -1e6


def test_game_round_trip_is_value_identity():
    game = make_erasure_game()
    again = parse_game(serialize_game(game))
    assert again.states == game.states
    assert again.actions_a == game.actions_a
    assert again.actions_b == game.actions_b
    assert np.array_equal(again.prior, game.prior)
    assert np.array_equal(again.payoff, game.payoff)
    assert again.neg_inf_value == game.neg_inf_value
    # the serialized text writes forbidden entries back as the literal
    assert "-inf" in serialize_game(game)


def test_parse_game_honors_custom_neg_inf_value():
    text = ERASURE_YAML + "neg_inf_value: -999.0\n"
    game = parse_game(text)
    assert game.payoff[2, 0, 0] == -999.0


def test_parse_game_diagnostics_name_the_field():
    with pytest.raises(GameFileError, match="missing required key 'prior'"):
        parse_game("states: [a]\nactions_a: [x]\nactions_b: [y]\npayoffs: []\n")
    bad = ERASURE_YAML.replace("[0, 3]", "[0, oops]")
    with pytest.raises(GameFileError, match=r"payoffs\[1\]\[2\]\[1\]"):
        parse_game(bad)
    with pytest.raises(GameFileError, match="not valid YAML"):
        parse_game("states: [unclosed\n")
    with pytest.raises(GameFileError, match="top level"):
        parse_game("- just\n- a\n- list\n")


def test_parse_game_shape_mismatches():
    with pytest.raises(GameFileError, match="prior has"):
        parse_game(ERASURE_YAML.replace("[0.5, 0.5]", "[1.0]"))
    with pytest.raises(GameFileError, match=r"payoffs\[0\]"):
        parse_game(ERASURE_YAML.replace("[[3, 0], [0, 1], ", "[[3, 0], "))


def test_scheme_round_trip():
    scheme = make_optimal_erasure_scheme()
    again = parse_scheme(serialize_scheme(scheme))
    assert isinstance(again, Scheme)
    assert np.array_equal(again.p_u_given_s.rows, scheme.p_u_given_s.rows)
    assert np.array_equal(again.p_a_given_u.rows, scheme.p_a_given_u.rows)


LAYERED_YAML = """
p_u_given_s:
  - [0.8, 0.2]
  - [0.2, 0.8]
p_u2_given_u1_s:
  - [0.9, 0.1]
  - [0.3, 0.7]
  - [0.7, 0.3]
  - [0.1, 0.9]
p_a_given_u1_u2:
  - [1.0, 0.0]
  - [0.5, 0.5]
  - [0.5, 0.5]
  - [0.0, 1.0]
"""


def test_layered_scheme_detection_and_round_trip():
    scheme = parse_scheme(LAYERED_YAML)
    assert isinstance(scheme, LayeredScheme)
    again = parse_scheme(serialize_scheme(scheme))
    assert isinstance(again, LayeredScheme)
    assert np.array_equal(again.p_u2_given_u1_s.rows, scheme.p_u2_given_u1_s.rows)


def test_parse_scheme_diagnostics():
    with pytest.raises(GameFileError, match="p_a_given_u"):
        parse_scheme("p_u_given_s:\n  - [1.0]\n")
    with pytest.raises(GameFileError, match="conditional row"):
        parse_scheme("p_u_given_s:\n  - [0.9, 0.3]\np_a_given_u:\n"
                     "  - [1.0]\n  - [1.0]\n")
    with pytest.raises(GameFileError, match="cardinalities differ"):
        parse_scheme("p_u_given_s:\n  - [0.5, 0.5]\np_a_given_u:\n  - [1.0]\n")


# ---------------------------------------------------------------------------
# the libyaml loader reads every document as the pure-Python one does


def _suite_yaml_texts(tmp_path):
    """The YAML texts the tests and the benchmark's inputs feed the parsers."""
    rng = np.random.default_rng(0)
    texts = [ERASURE_YAML, ERASURE_YAML + "neg_inf_value: -999.0\n",
             ERASURE_YAML.replace("[0, 3]", "[0, oops]"),
             ERASURE_YAML.replace("[0.5, 0.5]", "[1.0]"), LAYERED_YAML,
             "states: [unclosed\n", "- just\n- a\n- list\n",
             "states: [a]\nactions_a: [x]\nactions_b: [y]\npayoffs: []\n",
             "p_u_given_s:\n  - [1.0]\n",
             "p_u_given_s:\n  - [0.9, 0.3]\np_a_given_u:\n  - [1.0]\n  - [1.0]\n",
             "p_u_given_s: [[.nan, .nan, .nan], [0.0, 0.5, 0.5]]\n"
             "p_a_given_u: [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0]]\n",
             "joint:\n  - [0.5, 0.0]\n  - [0.0, 0.5]\n"]
    texts += [serialize_game(game) for game in (
        make_erasure_game(), make_fig1_game(), make_degenerate_game(),
        random_game(rng, n_states=12, n_actions_a=4, n_actions_b=4))]
    texts += [serialize_scheme(scheme) for scheme in (
        make_optimal_erasure_scheme(), parse_scheme(LAYERED_YAML),
        random_scheme(rng, n_states=3, card_u=4, n_actions=3))]
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in ("simulate", "analyze"):
        for seed in (1, 2, 303):
            inputs = workloads.write_inputs(workload, seed,
                                            str(tmp_path / f"{workload}{seed}"))
            texts += [Path(path).read_text() for path in inputs.files.values()]
    return texts


def _same_document(a, b):
    """Equal documents: the same types and values, NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same_document(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_document, a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _load(text, loader):
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError:
        return yaml.YAMLError


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="pyyaml built without libyaml")
def test_libyaml_loader_reads_the_documents_of_the_pure_python_loader(tmp_path):
    assert files._SAFE_LOADER is yaml.CSafeLoader
    texts = _suite_yaml_texts(tmp_path)
    assert len(texts) > 40
    for text in texts:
        assert _same_document(_load(text, yaml.CSafeLoader),
                              _load(text, yaml.SafeLoader)), text
    with pytest.raises(GameFileError, match="not valid YAML"):
        files.parse_yaml("states: [unclosed\n")
