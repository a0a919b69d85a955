"""Forge, restructure, infect, and judge combinational benchmark circuits."""

__version__ = "0.1.0"

from .netlist import (
    CONST0,
    CONST1,
    Gate,
    Netlist,
    NetlistError,
    ParseError,
    ValidationError,
    parse_netlist,
    simulate,
    simulate_packed,
    validate,
    write_netlist,
)
from .aig import AigGraph, aig_simulate, from_aig, strash, to_aig
from .restructure import (
    RECIPES,
    PassReport,
    Recipe,
    apply_recipe,
    balance,
    fraig,
    refactor,
    resubstitute,
    rewrite,
)
from .analysis import (
    NetStats,
    ScoapValues,
    exact_signal_prob,
    rare_nets,
    scoap,
    signal_prob,
)
from .trojan import (
    InsertionError,
    InsufficientRareNetsError,
    TrojanRecord,
    TrojanSpec,
    activation_estimate,
    find_trigger_witness,
    insert_trojan,
)
from .equiv import (
    CheckConfig,
    EquivVerdict,
    InterfaceMismatchError,
    check_equivalence,
    check_trojan_semantics,
)
from .judge import (
    AnswerKey,
    BenchmarkSet,
    ConfusionReport,
    ForgeConfig,
    JudgeError,
    Submission,
    confidence_value,
    forge_benchmark,
    score_submission,
)
from .analytics import (
    FEATURE_NAMES,
    PcaModel,
    StrategyProfile,
    expected_seek_length,
    extract_features,
    ht_space_size,
    pca_fit,
    pca_project,
    seek_simulate,
)
