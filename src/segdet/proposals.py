"""Face proposals from per-image segment detections.

Detections whose implied face centers fall near each other are grouped
greedily into clusters; duplicate clusters are collapsed; each cluster then
yields up to zeta proposals: its full member set first, then distinct random
subsets of at least min_segments members. A proposal's box is, by default,
the mean of the face boxes its members imply (box_mode "implied"); box_mode
"segments" gives the smallest box encapsulating the member segment boxes
instead. Proposals can be labeled against ground truth at the 50% overlap
rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .evaluate import IOU_MIN, iou
from .imaging import BoxI, union_box
from .segments import (
    SegmentDetection,
    SegmentKind,
    SegmentLayout,
    implied_face_box,
    implied_face_center,
    implied_face_diagonal,
    kind_from_name,
    kind_name,
    kinds_mask,
)
from . import store


@dataclass
class Cluster:
    """Co-located detections, at most one per segment kind."""

    members: list[SegmentDetection]
    center: tuple[float, float]
    box: BoxI

    def kinds(self) -> set[SegmentKind]:
        return {m.kind for m in self.members}

    def total_score(self) -> float:
        return sum(m.score for m in self.members)


def _cluster_box(members: list[SegmentDetection], layout: SegmentLayout, box_mode: str) -> BoxI:
    """Face box of a member set: "implied" averages the members' implied face
    boxes, so one badly localised member moves it by a fraction of its error;
    "segments" is the union of the member segment boxes."""
    if box_mode == "segments":
        return union_box(m.box for m in members)
    if box_mode == "implied":
        boxes = [implied_face_box(m, layout) for m in members]
        x = round(sum(b.x for b in boxes) / len(boxes))
        y = round(sum(b.y for b in boxes) / len(boxes))
        w = round(sum(b.w for b in boxes) / len(boxes))
        h = round(sum(b.h for b in boxes) / len(boxes))
        return BoxI(x, y, w, h)
    raise ValueError(f"unknown box_mode {box_mode!r}")


def cluster_detections(
    dets: list[SegmentDetection],
    layout: SegmentLayout,
    radius_frac: float = 0.25,
    box_mode: str = "implied",
) -> list[Cluster]:
    """Greedy clustering by implied face center.

    Detections are processed in descending score order and join the first
    cluster whose running mean center lies within radius_frac times the
    diagonal of the detection's implied face box; otherwise they open a new
    cluster. Only the highest-scoring detection per kind is retained.
    """
    if radius_frac <= 0:
        raise ValueError("radius_frac must be positive")
    ordered = sorted(dets, key=lambda d: (-d.score, int(d.kind), d.box.x, d.box.y, d.box.w, d.box.h))
    clusters: list[tuple[list[SegmentDetection], list[tuple[float, float]]]] = []
    for det in ordered:
        c = implied_face_center(det, layout)
        radius = radius_frac * implied_face_diagonal(det, layout)
        placed = False
        for members, centers in clusters:
            mx = sum(p[0] for p in centers) / len(centers)
            my = sum(p[1] for p in centers) / len(centers)
            if math.hypot(c[0] - mx, c[1] - my) <= radius:
                if all(m.kind != det.kind for m in members):
                    members.append(det)
                    centers.append(c)
                # lower-scoring duplicate kinds are absorbed and dropped
                placed = True
                break
        if not placed:
            clusters.append(([det], [c]))
    out = []
    for members, centers in clusters:
        cx = sum(p[0] for p in centers) / len(centers)
        cy = sum(p[1] for p in centers) / len(centers)
        out.append(Cluster(members, (cx, cy), _cluster_box(members, layout, box_mode)))
    return out


def dedupe_clusters(clusters: list[Cluster]) -> list[Cluster]:
    """Collapse clusters with identical segment-kind sets and identical boxes;
    the duplicate with the highest total score is kept, order preserved."""
    kept: list[Cluster] = []
    index: dict[tuple, int] = {}
    for c in clusters:
        key = (tuple(sorted(int(k) for k in c.kinds())), c.box.astuple())
        if key in index:
            i = index[key]
            if c.total_score() > kept[i].total_score():
                kept[i] = c
        else:
            index[key] = len(kept)
            kept.append(c)
    return kept


@dataclass(frozen=True)
class Proposal:
    """A co-clustered segment subset plus the face box it implies (see
    _cluster_box for the box rules)."""

    segments: dict[SegmentKind, SegmentDetection]
    box: BoxI
    cluster_id: int
    source_image: str

    def mask(self) -> int:
        return kinds_mask(self.segments.keys())

    def kinds(self) -> tuple[SegmentKind, ...]:
        return tuple(sorted(self.segments.keys()))


@dataclass(frozen=True)
class LabeledProposal:
    proposal: Proposal
    is_face: bool
    overlap: float


def segment_rows(proposals: list[Proposal], kind: SegmentKind) -> tuple[np.ndarray, list[int]]:
    """The row rule both classifiers share: one row per distinct present
    segment of `kind`, keyed on (source image, box). Returns (row_of, firsts):
    each proposal's row, and the first proposal holding each row; proposals
    lacking the kind get row len(firsts)."""
    keys = [(p.source_image, p.segments[kind].box.astuple()) if kind in p.segments else None for p in proposals]
    rows: dict = {}
    firsts: list[int] = []
    for i, key in enumerate(keys):
        if key is not None and key not in rows:
            rows[key] = len(firsts)
            firsts.append(i)
    return np.array([rows.get(key, len(firsts)) for key in keys], dtype=np.intp), firsts


def _subset_proposal(
    picked: list[SegmentDetection],
    cluster_id: int,
    image_id: str,
    layout: SegmentLayout,
    box_mode: str,
) -> Proposal:
    segs = {m.kind: m for m in sorted(picked, key=lambda m: int(m.kind))}
    return Proposal(segs, _cluster_box(picked, layout, box_mode), cluster_id, image_id)


def generate_proposals(
    clusters: list[Cluster],
    layout: SegmentLayout,
    zeta: int = 10,
    min_segments: int = 3,
    seed: int = 0,
    image_id: str = "",
    box_mode: str = "implied",
) -> list[Proposal]:
    """Up to zeta proposals per cluster: the full member set first, then
    distinct uniformly sampled subsets of size >= min_segments (without
    replacement over subsets). Deterministic for a given seed. Duplicate
    proposals (same kinds and same box) across clusters are removed."""
    if zeta < 1:
        raise ValueError("zeta must be >= 1")
    if min_segments < 1:
        raise ValueError("min_segments must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    out: list[Proposal] = []
    seen: set[tuple] = set()
    for ci, cluster in enumerate(clusters):
        members = sorted(cluster.members, key=lambda m: int(m.kind))
        n = len(members)
        if n < min_segments:
            continue
        chosen: list[list[SegmentDetection]] = [members]
        if zeta > 1 and n > min_segments:
            subsets = []
            for bits in range(1, 1 << n):
                size = bits.bit_count()
                if size >= min_segments and size < n:
                    subsets.append([members[i] for i in range(n) if bits >> i & 1])
            take = min(zeta - 1, len(subsets))
            for idx in rng.choice(len(subsets), size=take, replace=False):
                chosen.append(subsets[int(idx)])
        for picked in chosen[:zeta]:
            p = _subset_proposal(picked, ci, image_id, layout, box_mode)
            key = (tuple(int(k) for k in p.kinds()), p.box.astuple())
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def label_proposals(proposals: list[Proposal], truth: BoxI | None) -> list[LabeledProposal]:
    """Face label iff the image has a truth box and IoU >= IOU_MIN."""
    out = []
    for p in proposals:
        overlap = iou(p.box, truth) if truth is not None else 0.0
        out.append(LabeledProposal(p, overlap >= IOU_MIN, overlap))
    return out


# --- proposal interchange format ---------------------------------------------
# image_id,cluster_id,x,y,w,h,label,overlap,k, then k member records of
# kind,x,y,w,h,score. label/overlap are empty for unlabeled proposals.


def export_proposals(labeled_by_image: dict[str, list[LabeledProposal]], path) -> None:
    rows = []
    for image_id, lps in labeled_by_image.items():
        for lp in lps:
            p = lp.proposal
            label = "face" if lp.is_face else "nonface"
            row = [image_id, p.cluster_id, *p.box.astuple(), label, lp.overlap, len(p.segments)]
            for kind in p.kinds():
                d = p.segments[kind]
                row += [kind_name(kind), *d.box.astuple(), d.score]
            rows.append(row)
    store.write_csv(path, rows, "# image_id,cluster_id,x,y,w,h,label,overlap,k,(kind,x,y,w,h,score)*k")


def import_proposals(path) -> dict[str, list[LabeledProposal]]:
    out: dict[str, list[LabeledProposal]] = {}
    for where, parts in store.records(path):
        if len(parts) < 9:
            raise ParseError(f"{where}: expected at least 9 fields, got {len(parts)}")
        image_id, cluster_id, x, y, w, h, label, overlap, k = store.fields(
            parts[:9], (str, int, int, int, int, int, str, str, int), where
        )
        if label not in ("face", "nonface", ""):
            raise ParseError(f"{where}: bad label {label!r}")
        overlap = store.fields([overlap], (float,), where)[0] if overlap else 0.0
        if len(parts) != 9 + 6 * k:
            raise ParseError(f"{where}: expected {9 + 6 * k} fields for {k} members")
        segs: dict[SegmentKind, SegmentDetection] = {}
        for m in range(9, len(parts), 6):
            kname, mx, my, mw, mh, score = store.fields(
                parts[m : m + 6], (str, int, int, int, int, float), where
            )
            kind = kind_from_name(kname, where)
            with store.checked(where):
                segs[kind] = SegmentDetection(kind, BoxI(mx, my, mw, mh), score)
        with store.checked(where):
            p = Proposal(segs, BoxI(x, y, w, h), cluster_id, image_id)
        out.setdefault(image_id, []).append(LabeledProposal(p, label == "face", overlap))
    return out
