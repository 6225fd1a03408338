"""YAML game and scheme description files.

A game file holds states, prior, action labels, and payoffs as a nested list
indexed [state][action_a][action_b]; the literal string "-inf" stands for a
forbidden action and is mapped to the game's neg_inf_value at parse time.
A scheme file holds the helper channel rows, with optional second-layer keys
for the staged two-auxiliary construction.
"""

from __future__ import annotations

import numpy as np
import yaml

from .errors import GameFileError
from .game_core import DEFAULT_NEG_INF, ConditionalDistribution, Game
from .rate_value import LayeredScheme, Scheme


# libyaml's safe loader when pyyaml was built with it: the same documents,
# parsed about ten times faster than by the pure-Python SafeLoader
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_yaml(text):
    """The document of a YAML text, safe-loaded; GameFileError when invalid."""
    try:
        return yaml.load(text, Loader=_SAFE_LOADER)
    except yaml.YAMLError as exc:
        raise GameFileError(f"not valid YAML: {exc}") from exc


def _load_document(text):
    doc = parse_yaml(text)
    if not isinstance(doc, dict):
        raise GameFileError("top level must be a mapping of keys to values")
    return doc


def _require(doc, key, kind, where):
    if key not in doc:
        raise GameFileError(f"{where}: missing required key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise GameFileError(
            f"{where}: key {key!r} should be {kind.__name__}, got {type(value).__name__}")
    return value


def _payoff_entry(entry, neg_inf_value, where):
    if isinstance(entry, str):
        if entry.strip() == "-inf":
            return float(neg_inf_value)
        raise GameFileError(f'{where}: expected a number or "-inf", got {entry!r}')
    if isinstance(entry, (int, float)):
        value = float(entry)
        if value == float("-inf"):
            return float(neg_inf_value)
        if not np.isfinite(value):
            raise GameFileError(f"{where}: payoff {entry!r} is not finite")
        return value
    raise GameFileError(f'{where}: expected a number or "-inf", got {entry!r}')


def parse_game(text: str) -> Game:
    """Parse a game file document into a Game."""
    doc = _load_document(text)
    states = tuple(str(x) for x in _require(doc, "states", list, "game file"))
    actions_a = tuple(str(x) for x in _require(doc, "actions_a", list, "game file"))
    actions_b = tuple(str(x) for x in _require(doc, "actions_b", list, "game file"))
    prior = _require(doc, "prior", list, "game file")
    payoffs = _require(doc, "payoffs", list, "game file")
    neg_inf_value = float(doc.get("neg_inf_value", DEFAULT_NEG_INF))
    ns, na, nb = len(states), len(actions_a), len(actions_b)
    if len(prior) != ns:
        raise GameFileError(f"prior has {len(prior)} entries for {ns} states")
    if len(payoffs) != ns:
        raise GameFileError(f"payoffs has {len(payoffs)} state blocks for {ns} states")
    table = np.zeros((na, nb, ns))
    for s, block in enumerate(payoffs):
        if not isinstance(block, list) or len(block) != na:
            raise GameFileError(
                f"payoffs[{s}]: expected {na} rows (one per action of player A)")
        for a, row in enumerate(block):
            if not isinstance(row, list) or len(row) != nb:
                raise GameFileError(
                    f"payoffs[{s}][{a}]: expected {nb} entries (one per action of B)")
            for b, entry in enumerate(row):
                table[a, b, s] = _payoff_entry(
                    entry, neg_inf_value, f"payoffs[{s}][{a}][{b}]")
    try:
        return Game(states=states, prior=np.asarray(prior, dtype=float),
                    actions_a=actions_a, actions_b=actions_b, payoff=table,
                    neg_inf_value=neg_inf_value)
    except (ValueError, TypeError) as exc:
        raise GameFileError(f"game file: {exc}") from exc


def serialize_game(game: Game) -> str:
    """Inverse of parse_game on values; forbidden entries round-trip as "-inf"."""
    payoffs = []
    for s in range(game.n_states):
        block = []
        for a in range(game.n_actions_a):
            row = []
            for b in range(game.n_actions_b):
                v = float(game.payoff[a, b, s])
                row.append("-inf" if v == game.neg_inf_value else v)
            block.append(row)
        payoffs.append(block)
    doc = {
        "states": list(game.states),
        "prior": [float(p) for p in game.prior],
        "actions_a": list(game.actions_a),
        "actions_b": list(game.actions_b),
        "payoffs": payoffs,
        "neg_inf_value": float(game.neg_inf_value),
    }
    return yaml.safe_dump(doc, sort_keys=False)


def _rows(doc, key, where):
    raw = _require(doc, key, list, where)
    try:
        rows = np.asarray(raw, dtype=float)
    except (ValueError, TypeError) as exc:
        raise GameFileError(f"{where}: key {key!r} is not a numeric table") from exc
    if rows.ndim != 2:
        raise GameFileError(f"{where}: key {key!r} must be a list of equal-length rows")
    try:
        return ConditionalDistribution(rows)
    except (ValueError, TypeError) as exc:
        raise GameFileError(f"{where}: {key}: {exc}") from exc


def parse_scheme(text: str):
    """Parse a scheme file into a Scheme, or a LayeredScheme when layered keys exist."""
    doc = _load_document(text)
    layered = "p_u2_given_u1_s" in doc or "p_a_given_u1_u2" in doc
    try:
        if layered:
            return LayeredScheme(
                p_u1_given_s=_rows(doc, "p_u_given_s", "scheme file"),
                p_u2_given_u1_s=_rows(doc, "p_u2_given_u1_s", "scheme file"),
                p_a_given_u1_u2=_rows(doc, "p_a_given_u1_u2", "scheme file"))
        return Scheme(p_u_given_s=_rows(doc, "p_u_given_s", "scheme file"),
                      p_a_given_u=_rows(doc, "p_a_given_u", "scheme file"))
    except (ValueError, TypeError) as exc:
        raise GameFileError(f"scheme file: {exc}") from exc


def _table(rows):
    return [[float(x) for x in row] for row in rows]


def serialize_scheme(scheme) -> str:
    if isinstance(scheme, LayeredScheme):
        doc = {
            "u_symbols": [f"u{i}" for i in range(scheme.card_u1)],
            "u2_symbols": [f"v{i}" for i in range(scheme.card_u2)],
            "p_u_given_s": _table(scheme.p_u1_given_s.rows),
            "p_u2_given_u1_s": _table(scheme.p_u2_given_u1_s.rows),
            "p_a_given_u1_u2": _table(scheme.p_a_given_u1_u2.rows),
        }
    else:
        doc = {
            "u_symbols": [f"u{i}" for i in range(scheme.card_u)],
            "p_u_given_s": _table(scheme.p_u_given_s.rows),
            "p_a_given_u": _table(scheme.p_a_given_u.rows),
        }
    return yaml.safe_dump(doc, sort_keys=False)


def load_game(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())


def load_scheme(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scheme(fh.read())
