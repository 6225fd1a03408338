"""Value of state information in two-player zero-sum Bayesian games.

Core pieces: exact game values under deterministic information structures,
discrete information measures (including a Wyner common-information search),
the achievable rate-value bound with its optimizer and layered variant, and a
Monte Carlo block-coding simulator with a decoding adversary.
"""

# numpy imports numpy.random on first use; the commands draw from it, so it
# is loaded with the package rather than inside the first command
import numpy.random  # noqa: F401

from .errors import (
    CapacityError,
    ContractViolationError,
    GameFileError,
    InfeasibleDecompositionError,
    InfeasibleRateError,
)
from .files import (
    load_game,
    load_scheme,
    parse_game,
    parse_scheme,
    serialize_game,
    serialize_scheme,
)
from .game_core import (
    ConditionalDistribution,
    Game,
    GameValueResult,
    SignalFunction,
    best_response_payoff,
    expected_payoff,
    game_value,
    solve_matrix_game,
)
from .info_measures import (
    CommonInfoResult,
    CommonInfoSearch,
    JointDistribution,
    binary_entropy,
    conditional_mutual_information,
    entropy,
    inverse_binary_entropy,
    mutual_information,
    wyner_common_information,
)
from .rate_value import (
    BoundSearch,
    LayeredPayoffResult,
    LayeredScheme,
    RateValuePoint,
    Scheme,
    SchemeStats,
    degenerate_rd_payoff,
    degenerate_rd_rate,
    layered_payoff,
    optimize_bound,
    scheme_statistics,
    theorem1_payoff,
    threshold_alpha,
)
from .simulator import (
    Codebook,
    MatchConfig,
    MatchResult,
    adversary_play,
    build_codebook,
    decode_actions,
    deterministic_baseline,
    encode,
    run_match,
)

__all__ = [
    "BoundSearch",
    "CapacityError",
    "Codebook",
    "CommonInfoResult",
    "CommonInfoSearch",
    "ConditionalDistribution",
    "ContractViolationError",
    "Game",
    "GameFileError",
    "GameValueResult",
    "InfeasibleDecompositionError",
    "InfeasibleRateError",
    "JointDistribution",
    "LayeredPayoffResult",
    "LayeredScheme",
    "MatchConfig",
    "MatchResult",
    "RateValuePoint",
    "Scheme",
    "SchemeStats",
    "SignalFunction",
    "adversary_play",
    "best_response_payoff",
    "binary_entropy",
    "build_codebook",
    "conditional_mutual_information",
    "decode_actions",
    "degenerate_rd_payoff",
    "degenerate_rd_rate",
    "deterministic_baseline",
    "encode",
    "entropy",
    "expected_payoff",
    "game_value",
    "inverse_binary_entropy",
    "layered_payoff",
    "load_game",
    "load_scheme",
    "mutual_information",
    "optimize_bound",
    "parse_game",
    "parse_scheme",
    "run_match",
    "scheme_statistics",
    "serialize_game",
    "serialize_scheme",
    "solve_matrix_game",
    "theorem1_payoff",
    "threshold_alpha",
    "wyner_common_information",
]
