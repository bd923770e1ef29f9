"""Empirical prior statistics over labeled training proposals.

The table stores, separately for face and non-face proposals, the fraction
of proposals carrying each exact segment combination and the fraction
containing each individual segment. A proposal's prior-feature vector has
2M+2 entries; its mean is the re-rank multiplier applied to network scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrainingSetError, ParseError
from .proposals import LabeledProposal, Proposal
from .segments import ALL_KINDS, MASK_ALL, NUM_KINDS
from . import store


@dataclass(frozen=True)
class PriorTable:
    combo_face: dict[int, float]  # segment-set bitmask -> fraction of face proposals
    combo_nonface: dict[int, float]
    seg_face: np.ndarray  # per-kind fraction of face proposals containing it
    seg_nonface: np.ndarray
    n_face: int
    n_nonface: int


PRIOR_FEATURE_LEN = 2 * NUM_KINDS + 2  # 20 for the nine-segment taxonomy


def build_priors(train: list[LabeledProposal]) -> PriorTable:
    """Exact empirical frequencies; combinations never seen are absent (read 0)."""
    faces = [lp for lp in train if lp.is_face]
    nonfaces = [lp for lp in train if not lp.is_face]
    if not faces or not nonfaces:
        raise DegenerateTrainingSetError(
            f"need both classes to build priors ({len(faces)} face, {len(nonfaces)} nonface)"
        )

    def tally(group):
        combo: dict[int, int] = {}
        seg = np.zeros(NUM_KINDS, dtype=np.float64)
        for lp in group:
            mask = lp.proposal.mask()
            combo[mask] = combo.get(mask, 0) + 1
            for k in lp.proposal.segments:
                seg[int(k)] += 1.0
        total = len(group)
        fracs = {m: c / total for m, c in sorted(combo.items())}
        return fracs, seg / total

    combo_face, seg_face = tally(faces)
    combo_nonface, seg_nonface = tally(nonfaces)
    return PriorTable(combo_face, combo_nonface, seg_face, seg_nonface, len(faces), len(nonfaces))


def prior_features(p: Proposal, table: PriorTable) -> np.ndarray:
    """Fixed-order vector: [combo_face, combo_nonface, per-segment face
    fractions, per-segment nonface fractions]; per-segment entries are zeroed
    for segments absent from the proposal."""
    mask = p.mask()
    out = np.zeros(PRIOR_FEATURE_LEN, dtype=np.float64)
    out[0] = table.combo_face.get(mask, 0.0)
    out[1] = table.combo_nonface.get(mask, 0.0)
    for k in ALL_KINDS:
        if k in p.segments:
            out[2 + int(k)] = table.seg_face[int(k)]
            out[2 + NUM_KINDS + int(k)] = table.seg_nonface[int(k)]
    return out


def rerank_multiplier(p: Proposal, table: PriorTable) -> float:
    """Arithmetic mean of the prior features; always in [0, 1]."""
    return float(prior_features(p, table).mean())


# --- serialization (a section inside classifier model files) -----------------


def priors_to_entries(table: PriorTable) -> list[tuple[str, str]]:
    combo_f = " ".join(f"{m}:{f!r}" for m, f in sorted(table.combo_face.items()))
    combo_n = " ".join(f"{m}:{f!r}" for m, f in sorted(table.combo_nonface.items()))
    return [
        ("n_face", str(table.n_face)),
        ("n_nonface", str(table.n_nonface)),
        ("combo_face", combo_f),
        ("combo_nonface", combo_n),
        ("seg_face", store.floats_to_text(table.seg_face)),
        ("seg_nonface", store.floats_to_text(table.seg_nonface)),
    ]


def priors_from_entries(entries: dict[str, str], where: str = "[priors]") -> PriorTable:
    """Read a [priors] section: positive counts, segment masks in 0..MASK_ALL
    and fractions in [0, 1], so that every re-rank multiplier is in [0, 1]."""

    def within(key: str, values, lo, hi):
        for v in values:
            if not lo <= v <= hi:
                raise ParseError(f"{where} {key}: {v!r} is outside [{lo}, {hi}]")
        return values

    def combos(key: str) -> dict[int, float]:
        pairs = (tok.split(":") for tok in store.entry_text(entries, key, where).split())
        combo = dict(store.fields(pair, (int, float), f"{where} {key}") for pair in pairs)
        within(key, combo.values(), 0.0, 1.0)
        return within(key, combo, 0, MASK_ALL)

    def fractions(key: str) -> np.ndarray:
        return np.array(within(key, store.entry(entries, key, (float,) * NUM_KINDS, where), 0.0, 1.0))

    def count(key: str) -> int:
        (n,) = within(key, store.entry(entries, key, (int,), where), 1, math.inf)
        return n

    return PriorTable(
        combos("combo_face"),
        combos("combo_nonface"),
        fractions("seg_face"),
        fractions("seg_nonface"),
        count("n_face"),
        count("n_nonface"),
    )
