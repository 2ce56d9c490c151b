"""govlab: deterministic DAO governance mechanisms under adversarial pressure.

Token-weighted, quorum-gated, quadratic, and conviction voting; Sybil
wallet-splitting attacks and identity-verification mitigations; a proposal
lifecycle engine writing a hash-chained audit ledger; and a scenario-driven
simulation harness whose runs are reproducible byte for byte.
"""

from types import ModuleType as _ModuleType

from .core import (
    GovlabError,
    IdentityId,
    ProposalId,
    TallyOutcome,
    TallyResult,
    TokenAmount,
    VoteRecord,
    VotingPower,
    WalletId,
    canonical_json,
)
from .governance import GovernanceEngine, Phase, Proposal, Window, replay
from .identity import (
    FilterReport,
    IdentityFilter,
    IdentityRegistry,
    RegistryMode,
    RejectionReason,
    SimulatedProvider,
    VerificationOutcome,
    VotePolicy,
    filter_and_collapse,
)
from .ledger import Ledger, LedgerEntry, verify_chain
from .mechanisms import (
    ConvictionParams,
    Mechanism,
    QuorumBasis,
    QuorumConfig,
    conviction_power,
    power_quadratic,
    power_token,
    tally,
)
from .scenario import (
    AgentKind,
    AgentSpec,
    Scenario,
    ScenarioValidationError,
    load_preset,
    load_scenario,
    loads_scenario,
    preset_names,
)
from .simulation import RunResult, compare_mechanisms, gini, min_controlling_set, run
from .sybil import SybilReport, best_split, split_uniform, sybil_gain

__version__ = "0.1.0"

# Every public name imported above; the submodules (govlab.core, ...) are not listed.
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType))
