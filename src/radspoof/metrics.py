"""Pooled equal error rate and score-file I/O.

Scores follow the accept-if-score-at-least-threshold convention with
higher meaning more bonafide. The EER is read off the FAR/FRR crossing
with linear interpolation between the adjacent operating points, which is
stable on small evaluation sets.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

from .atomic import write_text
from .corpus import LABEL_BONAFIDE, LABEL_SPOOF, read_text_file
from .errors import InvalidInputError, ManifestParseError, MetricUndefinedError


@dataclass
class ScoreRecord:
    utt_id: str
    score: float
    label: str


@dataclass
class EerResult:
    eer: float
    threshold: float


def det_points(records: list[ScoreRecord]) -> list[tuple[float, float, float]]:
    """Operating points (threshold, FAR, FRR) over all distinct scores.

    Thresholds ascend; a final sentinel beyond the maximum score gives the
    (FAR=0, FRR=1) endpoint.
    """
    if not all(math.isfinite(r.score) for r in records):
        raise InvalidInputError("scores must be finite")
    bona = sorted(r.score for r in records if r.label == LABEL_BONAFIDE)
    spoof = sorted(r.score for r in records if r.label == LABEL_SPOOF)
    if not bona or not spoof:
        raise MetricUndefinedError("need at least one bonafide and one spoof score")
    thresholds = sorted(set(bona) | set(spoof))
    thresholds.append(thresholds[-1] + 1.0)
    # bisect_left counts the scores below t in a sorted list
    return [
        (t, (len(spoof) - bisect_left(spoof, t)) / len(spoof), bisect_left(bona, t) / len(bona))
        for t in thresholds
    ]


def pooled_eer(records: list[ScoreRecord]) -> EerResult:
    """EER over all trials pooled, with the crossing threshold."""
    points = det_points(records)
    prev = points[0]
    for t, far, frr in points:
        d = far - frr
        if d <= 0.0:
            if d == 0.0:
                return EerResult(eer=far, threshold=t)
            pt, pfar, pfrr = prev
            d_prev = pfar - pfrr
            alpha = d_prev / (d_prev - d)
            eer_far = pfar + alpha * (far - pfar)
            eer_frr = pfrr + alpha * (frr - pfrr)
            return EerResult(eer=0.5 * (eer_far + eer_frr), threshold=pt + alpha * (t - pt))
        prev = (t, far, frr)
    # d stays positive only if the sentinel failed, which cannot happen
    raise MetricUndefinedError("no FAR/FRR crossing found")


def write_scores(path, records: list[ScoreRecord]) -> None:
    bad = next((r for r in records if not math.isfinite(r.score)), None)
    if bad is not None:  # checked before the file is opened, so no NaN reaches disk
        raise InvalidInputError(f"non-finite score {bad.score} for {bad.utt_id!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{r.utt_id}\t{r.score:.9g}\t{r.label}" for r in records]
    write_text(path, "\n".join(lines) + "\n")


def read_scores(path) -> list[ScoreRecord]:
    path = Path(path)
    records = []
    for line_no, line in enumerate(read_text_file(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ManifestParseError(path, line_no, f"expected 3 fields, got {len(fields)}")
        utt_id, score_text, label = fields
        if label not in (LABEL_BONAFIDE, LABEL_SPOOF):
            raise ManifestParseError(path, line_no, f"unknown label {label!r}")
        try:
            score = float(score_text)
        except ValueError:
            raise ManifestParseError(path, line_no, f"bad score {score_text!r}") from None
        if not math.isfinite(score):
            raise ManifestParseError(path, line_no, f"non-finite score {score_text!r}")
        records.append(ScoreRecord(utt_id, score, label))
    return records


def write_det_csv(path, records: list[ScoreRecord]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = ["threshold,far,frr"]
    rows += [f"{t:.9g},{far:.9g},{frr:.9g}" for t, far, frr in det_points(records)]
    write_text(path, "\n".join(rows) + "\n")
