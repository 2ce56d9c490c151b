"""Independent reference implementations the tests use as oracles.

Everything here is deliberately written from the underlying definitions
(mpmath for the irrational functions, integer/Fraction arithmetic for the
rationals, FIPS 180-4 for SHA-256) rather than by calling the package, so
agreement between the two is evidence and not tautology.  conviction_units_decimal
is one exception: it is the Decimal arithmetic the integer conviction rule
replaced, so agreeing with it to the unit shows the rule changes no byte.  The probe
references are the other: they count every preference profile
afresh through `governance.count_votes`, so they check the probes' single
count and per-agent sums against the brute force those sums replace.
"""

from __future__ import annotations

import csv
import io
import json
import re
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import permutations, product

import mpmath

NANO = 10**9

mpmath.mp.dps = 60


def half_even_units(x: mpmath.mpf) -> int:
    """Round a high-precision value (token scale) to integer 1e-9 units, ties to even."""
    scaled = x * NANO
    floor = int(mpmath.floor(scaled))
    frac = scaled - floor
    if frac > mpmath.mpf("0.5"):
        return floor + 1
    if frac < mpmath.mpf("0.5"):
        return floor
    return floor if floor % 2 == 0 else floor + 1


def sqrt_units(token_units: int) -> int:
    """Quadratic-power oracle: units of sqrt(u / 1e9) tokens = round(sqrt(u * 1e9))."""
    root = mpmath.sqrt(mpmath.mpf(token_units) * NANO)
    floor = int(mpmath.floor(root))
    # mpf comparison suffices away from ties; perfect squares are exact anyway.
    frac = root - floor
    if frac > mpmath.mpf("0.5"):
        return floor + 1
    if frac < mpmath.mpf("0.5"):
        return floor
    return floor if floor % 2 == 0 else floor + 1


def conviction_units(token_units: int, alpha: str, dt: int) -> int:
    """Conviction oracle: round(u * (1 - e^(-alpha*dt))) in 1e-9 units."""
    if dt == 0:
        return 0
    factor = 1 - mpmath.e ** (-mpmath.mpf(alpha) * dt)
    return half_even_units(mpmath.mpf(token_units) / NANO * factor)


def conviction_units_decimal(token_units: int, decay_rate: Decimal, dt: int) -> int:
    """Conviction power by the Decimal token route: the token amount's own text as a
    Decimal, times 1 - e^(-decay_rate * dt) in a 50-digit context, then quantized at
    10^-9 half-even.  The integer power rule must equal it exactly, not within an ulp."""
    from govlab.core import TokenAmount

    with localcontext() as ctx:
        ctx.prec = 50
        raw = Decimal(str(TokenAmount(token_units))) * (1 - (-decay_rate * dt).exp())
    return int(raw.quantize(Decimal(1).scaleb(-9), rounding=ROUND_HALF_EVEN).scaleb(9))


def ratio_units(num: int, den: int) -> int:
    """Half-even rounding of num/den at 9 fractional digits, exact in integers."""
    q, r = divmod(num * NANO, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    return q


def gini_pairwise_units(units: list[int]) -> int:
    """O(n^2) pairwise-difference Gini, exact (Fraction) then half-even at 9 digits."""
    n = len(units)
    total = sum(units)
    num = sum(abs(a - b) for a in units for b in units)
    g = Fraction(num, 2 * n * total)
    return ratio_units(g.numerator, g.denominator)


def controlling_set_exhaustive(units: list[int]) -> int:
    """Smallest subset whose sum strictly exceeds half the total, by full search."""
    total = sum(units)
    n = len(units)
    best = n
    for mask in range(1, 1 << n):
        acc = sum(u for k, u in enumerate(units) if mask >> k & 1)
        if 2 * acc > total:
            best = min(best, mask.bit_count())
    return best


# ---------------------------------------------------------------------------
# Canonical JSON from its definition: sorted keys, compact separators, ASCII
# escapes; no floats.  A decimal quantity is the caller's str(), so none is read here.


def canonical_json_ref(value) -> str:
    return json.dumps(_canonical_ref(value), sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _canonical_ref(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, float):
        raise ValueError("float")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_canonical_ref(v) for v in value]
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise ValueError("non-string key")
        return {str(k): _canonical_ref(v) for k, v in value.items()}
    raise ValueError(f"unsupported type {type(value).__name__}")


_DECIMAL_TEXT = re.compile(r"[0-9]+(\.[0-9]{1,9})?")  # ASCII digits only, matched whole


def parse_units_ref(text: str) -> int | None:
    """10^-9 units of a decimal string in the fixed-point grammar, else None.

    Exact Decimal/Fraction arithmetic, no range check: the caller compares
    the result with the fixed-point maximum itself.
    """
    if not _DECIMAL_TEXT.fullmatch(text):
        return None
    scaled = Fraction(Decimal(text)) * NANO
    assert scaled.denominator == 1
    return scaled.numerator


def ndjson_line_ref(index: int, prev_hash: str, payload: str, hash_: str) -> str:
    """One persisted ledger line: the canonical JSON of the entry's four fields."""
    entry = {"index": index, "prev_hash": prev_hash, "payload": payload, "hash": hash_}
    return json.dumps(entry, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


# The id rule in README.md: 1 to 64 characters, each an ASCII letter, digit, '_' or '-'.
ID_RULE = re.compile(r"[A-Za-z0-9_-]{1,64}")


def _numbered_ref(prefix: str, n: int) -> list[str]:
    """prefix followed by k for k from 0 to n - 1, zero-padded to the digits of n - 1 (README.md)."""
    width = len(str(n - 1))
    return [prefix + str(k).rjust(width, "0") for k in range(n)]


def wallets_ref(agent) -> list[str]:
    """An agent's wallet ids by the README's naming rule: attacker a with n wallets owns a_w<k>,
    every other agent the one wallet named by its id."""
    if agent.kind.value != "sybil_attacker":
        return [agent.id]
    return _numbered_ref(agent.id + "_w", agent.n_wallets)


def fake_identities_ref(agent) -> list[str]:
    """The identities an attacker's wallets claim under fake_identities: wallet a_w<k> claims a_fake<k>."""
    return _numbered_ref(agent.id + "_fake", agent.n_wallets)


def run_with_counts(scenario):
    """run(scenario), and per proposal id the counted votes and their power unit ints as
    finalize returned them: the run itself keeps neither."""
    from unittest import mock

    from govlab.governance import GovernanceEngine
    from govlab.simulation import run

    counted = {}
    finalize = GovernanceEngine.finalize

    def spy(engine, proposal_id, now):
        votes, result = finalize(engine, proposal_id, now)
        counted[proposal_id] = (votes, result.vote_power_units)
        return votes, result

    with mock.patch.object(GovernanceEngine, "finalize", spy):
        return run(scenario), counted


def report_csv_ref(scenario, counted) -> str:
    """The per-agent CSV through the csv module, summed from each proposal's counted votes
    and the powers the tally gave them (run_with_counts), each amount written by Decimal
    formatting."""
    owner = {wallet: agent.id for agent in scenario.agents for wallet in wallets_ref(agent)}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["proposal", "agent", "wallets_counted", "counted_tokens", "realized_power"])
    for spec in scenario.proposals:
        rows = {agent.id: [0, 0, 0] for agent in scenario.agents}
        votes, powers = counted[spec.id]
        for (wallet, vote), power in zip(votes.items(), powers, strict=True):
            row = rows[owner[wallet]]
            row[0] += 1
            row[1] += vote.committed.units
            row[2] += power
        for agent in scenario.agents:
            wallets, tokens, realized = rows[agent.id]
            writer.writerow([spec.id, agent.id, wallets, _nine_digits(tokens), _nine_digits(realized)])
    return out.getvalue()


def identity_record_ref(identity):
    """The genesis event's identity member as a dict, or None: the filter's policy, its
    registry's mode and its bindings, sorted by identity, each with its wallets sorted."""
    if identity is None:
        return None
    registry = identity.registry
    bindings = [
        {"identity": str(name), "wallets": sorted(str(w) for w in wallets)}
        for name, wallets in sorted(registry._wallets_by_identity.items())
    ]
    return {"policy": identity.policy.value, "registry": {"mode": registry.mode.value, "bindings": bindings}}


def _nine_digits(units: int) -> str:
    return f"{Decimal(units) / NANO:.9f}"


# ---------------------------------------------------------------------------
# Token locks as a per-proposal table: each wallet maps each live proposal it
# voted on to the units its vote there commits.


class LockTableRef:
    """The lock rule from its definition: a cast may commit the wallet's balance less
    what its votes on other live proposals lock; finalize releases the proposal's locks."""

    def __init__(self, balances: dict[str, int]):
        self.balances = dict(balances)
        self.locks: dict[str, dict[str, int]] = {wallet: {} for wallet in balances}

    def cast(self, proposal: str, wallet: str, units: int) -> str | None:
        """None if the cast is accepted, else the InsufficientUnlockedTokens text."""
        locks = self.locks[wallet]
        available = self.balances[wallet] - sum(u for p, u in locks.items() if p != proposal)
        if units > available:
            return f"wallet {wallet!r} has {available} unlocked units, needs {units}"
        locks[proposal] = units
        return None

    def finalize(self, proposal: str) -> None:
        for locks in self.locks.values():
            locks.pop(proposal, None)

    def totals(self) -> dict[str, int]:
        """Each wallet's locked units, for the wallets that have any."""
        return {wallet: total for wallet, locks in self.locks.items() if (total := sum(locks.values()))}


# ---------------------------------------------------------------------------
# SHA-256 from the FIPS 180-4 definition, used to cross-check hashlib-based
# ledger hashes with an implementation sharing no code with the package.

_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

_H0 = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]

_M32 = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _M32


def sha256_pure(message: bytes) -> str:
    """SHA-256 digest (hex) computed from the FIPS 180-4 standard, no hashlib."""
    length = len(message) * 8
    message = message + b"\x80"
    while len(message) % 64 != 56:
        message += b"\x00"
    message += length.to_bytes(8, "big")

    h = list(_H0)
    for off in range(0, len(message), 64):
        block = message[off : off + 64]
        w = [int.from_bytes(block[i : i + 4], "big") for i in range(0, 64, 4)]
        for t in range(16, 64):
            s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _M32)
        a, b, c, d, e, f, g, hh = h
        for t in range(64):
            big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            t1 = (hh + big_s1 + ch + _K[t] + w[t]) & _M32
            big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (big_s0 + maj) & _M32
            hh, g, f, e, d, c, b, a = g, f, e, (d + t1) & _M32, c, b, a, (t1 + t2) & _M32
        h = [(x + y) & _M32 for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return "".join(f"{x:08x}" for x in h)


# ---------------------------------------------------------------------------
# Companion RNG implementations transcribed separately from the published
# reference code, for stream-equality checks against the package's generator.

_M64 = 2**64 - 1


def splitmix64_ref(seed: int, count: int) -> list[int]:
    out = []
    x = seed & _M64
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & _M64
        z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
        out.append(z ^ (z >> 31))
    return out


def xoshiro_ref(state: tuple[int, int, int, int], count: int) -> list[int]:
    def rotl(x: int, k: int) -> int:
        return ((x << k) & _M64) | (x >> (64 - k))

    s = list(state)
    out = []
    for _ in range(count):
        out.append((rotl((s[1] * 5) & _M64, 7) * 9) & _M64)
        t = (s[1] << 17) & _M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out


def _profile_tally_ref(scenario, setup, proposal, choices):
    """Count one preference profile as finalize would, every wallet on its agent's choice:
    full balance committed at the voting-window start, counted at the window's end."""
    from govlab.core import VoteRecord
    from govlab.governance import count_votes

    window = proposal.voting_window
    votes = {
        wallet: VoteRecord(choices[agent.id], setup.balances[wallet], window.start)
        for agent in scenario.agents if agent.votes()
        for wallet in wallets_ref(agent)
    }
    return count_votes(proposal, votes, setup.identity, scenario.supply, len(setup.balances), window.end)[1].outcome


def _probe_instance_ref(scenario):
    from govlab.simulation import _engine_proposal, build_setup

    voters = [a for a in scenario.agents if a.votes()]
    return voters, _engine_proposal(scenario, scenario.proposals[0]), build_setup(scenario)


def dictator_probe_ref(scenario) -> tuple[str, ...]:
    """The dictator probe by brute force: every wallet of every profile counted afresh."""
    voters, proposal, setup = _probe_instance_ref(scenario)
    candidates = {a.id for a in voters}
    for profile in product(proposal.options, repeat=len(voters)):
        choices = {agent.id: option for agent, option in zip(voters, profile)}
        outcome = _profile_tally_ref(scenario, setup, proposal, choices)
        winner = outcome.option if outcome.is_winner() else None
        candidates = {a for a in candidates if choices[a] == winner}
    return tuple(a.id for a in voters if a.id in candidates)


def iia_probe_ref(scenario):
    """The IIA probe by brute force, each profile and each deletion counted afresh through a
    copy of the proposal without the deleted option: the first witness as (profile,
    removed_option, winner_before, winner_after), or None."""
    from govlab.simulation import _engine_proposal

    voters, proposal, setup = _probe_instance_ref(scenario)
    options = proposal.options
    if len(options) < 3:
        return None
    for profile in product(list(permutations(options)), repeat=len(voters)):
        choices = {agent.id: ranking[0] for agent, ranking in zip(voters, profile)}
        outcome = _profile_tally_ref(scenario, setup, proposal, choices)
        if not outcome.is_winner():
            continue
        for removed in options:
            if removed == outcome.option:
                continue
            spec = scenario.proposals[0]._replace(options=tuple(o for o in options if o != removed))
            without = _engine_proposal(scenario, spec)
            fallback = {agent.id: next(o for o in ranking if o != removed) for agent, ranking in zip(voters, profile)}
            after = _profile_tally_ref(scenario, setup, without, fallback)
            if after.is_winner() and after.option != outcome.option:
                witness = tuple((agent.id, tuple(ranking)) for agent, ranking in zip(voters, profile))
                return witness, removed, outcome.option, after.option
    return None
