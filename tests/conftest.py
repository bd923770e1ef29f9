import math

import numpy as np
import pytest

from segdet.imaging import BoxI, GrayImageF
from segdet.proposals import LabeledProposal, Proposal
from segdet.segments import SegmentDetection, SegmentKind


def gray(arr) -> GrayImageF:
    a = np.asarray(arr, dtype=np.float64)
    return GrayImageF(a.shape[1], a.shape[0], a)


def count_subsets(n: int, kmin: int) -> int:
    """Number of subsets of size kmin..n of an n-element set: how many
    proposals a cluster of n members can yield at min_segments = kmin."""
    if not (0 <= kmin <= n <= 9):
        raise ValueError(f"need 0 <= kmin <= n <= 9, got n={n}, kmin={kmin}")
    return sum(math.comb(n, k) for k in range(kmin, n + 1))


def mk_proposal(kinds, box=BoxI(0, 0, 10, 10), image_id="img", cluster_id=0) -> Proposal:
    segs = {
        SegmentKind(k): SegmentDetection(SegmentKind(k), BoxI(int(k), 0, 5, 5), 1.0)
        for k in sorted(int(k) for k in kinds)
    }
    return Proposal(segs, box, cluster_id, image_id)


def mk_labeled(kinds, is_face, overlap=None, **kw) -> LabeledProposal:
    if overlap is None:
        overlap = 1.0 if is_face else 0.0
    return LabeledProposal(mk_proposal(kinds, **kw), is_face, overlap)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
