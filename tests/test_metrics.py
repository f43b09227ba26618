import numpy as np
import pytest

from radspoof.errors import InvalidInputError, ManifestParseError, MetricUndefinedError
from radspoof.metrics import (
    ScoreRecord,
    det_points,
    pooled_eer,
    read_scores,
    write_det_csv,
    write_scores,
)


def recs(bona, spoof):
    out = [ScoreRecord(f"b{i}", s, "bonafide") for i, s in enumerate(bona)]
    out += [ScoreRecord(f"s{i}", s, "spoof") for i, s in enumerate(spoof)]
    return out


def sweep_oracle(bona, spoof):
    """Independent EER oracle: exhaustive threshold sweep, pick |FAR-FRR| minimum
    and return the balanced error there (valid when the crossing is exact)."""
    best = None
    for t in sorted(set(bona) | set(spoof)):
        far = sum(1 for s in spoof if s >= t) / len(spoof)
        frr = sum(1 for b in bona if b < t) / len(bona)
        gap = abs(far - frr)
        if best is None or gap < best[0]:
            best = (gap, (far + frr) / 2)
    return best[1]


def det_points_oracle(records):
    """det_points as a rescan of both score lists at every threshold."""
    bona = sorted(r.score for r in records if r.label == "bonafide")
    spoof = sorted(r.score for r in records if r.label == "spoof")
    thresholds = sorted(set(bona) | set(spoof))
    thresholds.append(thresholds[-1] + 1.0)
    points = []
    for t in thresholds:
        far = sum(1 for s in spoof if s >= t) / len(spoof)
        frr = sum(1 for s in bona if s < t) / len(bona)
        points.append((t, far, frr))
    return points


def test_perfectly_separated_zero():
    result = pooled_eer(recs([0.9, 0.8], [0.1, 0.2]))
    assert result.eer == 0.0


def test_worked_example_exactly_one_third():
    bona, spoof = [0.9, 0.8, 0.3], [0.7, 0.2, 0.1]
    result = pooled_eer(recs(bona, spoof))
    assert result.eer == 1.0 / 3.0
    assert sweep_oracle(bona, spoof) == 1.0 / 3.0


def test_negate_and_swap_symmetry():
    bona, spoof = [0.9, 0.8, 0.3], [0.7, 0.2, 0.1]
    forward = pooled_eer(recs(bona, spoof)).eer
    backward = pooled_eer(recs([-s for s in spoof], [-b for b in bona])).eer
    assert forward == backward

    rng = np.random.default_rng(0)
    for _ in range(20):
        b = rng.standard_normal(17).tolist()
        s = (rng.standard_normal(23) - 0.5).tolist()
        fwd = pooled_eer(recs(b, s)).eer
        bwd = pooled_eer(recs([-x for x in s], [-x for x in b])).eer
        assert abs(fwd - bwd) < 1e-12


def test_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    b = rng.standard_normal(15).tolist()
    s = (rng.standard_normal(15) - 1.0).tolist()
    base = pooled_eer(recs(b, s)).eer
    warped = pooled_eer(recs([np.tanh(x) * 3 + 7 for x in b],
                             [np.tanh(x) * 3 + 7 for x in s])).eer
    assert abs(base - warped) < 1e-12


def test_duplication_invariance():
    b, s = [0.9, 0.8, 0.3], [0.7, 0.2, 0.1]
    once = pooled_eer(recs(b, s)).eer
    thrice = pooled_eer(recs(b * 3, s * 3)).eer
    assert once == thrice


def test_anti_separated_is_one():
    assert pooled_eer(recs([0.1, 0.2], [0.8, 0.9])).eer == 1.0


def test_eer_bounds_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        b = rng.standard_normal(11).tolist()
        s = rng.standard_normal(13).tolist()
        e = pooled_eer(recs(b, s)).eer
        assert 0.0 <= e <= 1.0


def test_threshold_is_crossing_point():
    result = pooled_eer(recs([0.9, 0.8, 0.3], [0.7, 0.2, 0.1]))
    assert result.threshold == 0.7


@pytest.mark.parametrize("seed", range(6))
def test_det_points_match_the_rescan_oracle_with_ties(seed):
    rng = np.random.default_rng(seed)
    n_bona, n_spoof = rng.integers(1, 60, 2)
    # few distinct values, so ties within and across the classes are common
    values = rng.standard_normal(int(rng.integers(1, 12)))
    bona = rng.choice(values, n_bona).tolist()
    spoof = (rng.choice(values, n_spoof) - 0.5 * rng.integers(0, 2, n_spoof)).tolist()
    records = recs(bona, spoof)
    assert det_points(records) == det_points_oracle(records)


def test_single_class_undefined():
    with pytest.raises(MetricUndefinedError):
        pooled_eer([ScoreRecord("a", 0.5, "bonafide")])
    with pytest.raises(MetricUndefinedError):
        pooled_eer(recs([0.5], []))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_score_rejected(bad, tmp_path):
    # a NaN bonafide score used to drop out of every comparison and give EER 0
    records = [ScoreRecord("b0", bad, "bonafide")] + recs([0.3], [0.1])
    with pytest.raises(InvalidInputError):
        det_points(records)
    with pytest.raises(InvalidInputError):
        pooled_eer(records)
    path = tmp_path / "scores.tsv"
    with pytest.raises(InvalidInputError, match="b0"):
        write_scores(path, records)
    assert not path.exists()
    path.write_text(f"s0\t0.1\tspoof\nb0\t{bad}\tbonafide\n")
    with pytest.raises(ManifestParseError, match=":2:"):
        read_scores(path)


def test_det_points_monotone():
    points = det_points(recs([0.9, 0.5, 0.3], [0.6, 0.2, 0.05]))
    fars = [p[1] for p in points]
    frrs = [p[2] for p in points]
    assert fars == sorted(fars, reverse=True)
    assert frrs == sorted(frrs)
    assert points[0][1] == 1.0 and points[0][2] == 0.0
    assert points[-1][1] == 0.0 and points[-1][2] == 1.0


# --- score file I/O ---------------------------------------------------------------


def test_score_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    records = recs(rng.standard_normal(100).tolist(), rng.standard_normal(100).tolist())
    path = tmp_path / "scores.tsv"
    write_scores(path, records)
    loaded = read_scores(path)
    assert len(loaded) == len(records)
    for a, b in zip(loaded, records):
        assert a.utt_id == b.utt_id
        assert a.label == b.label
        assert a.score == float(f"{b.score:.9g}")


def test_score_missing_label_is_parse_error(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("u1\t0.5\n")
    with pytest.raises(ManifestParseError):
        read_scores(path)


def test_score_scientific_notation(tmp_path):
    path = tmp_path / "sci.tsv"
    path.write_text("u1\t1.5e-3\tbonafide\nu2\t-2E+2\tspoof\n")
    loaded = read_scores(path)
    assert loaded[0].score == 1.5e-3
    assert loaded[1].score == -200.0


def test_write_det_csv(tmp_path):
    path = tmp_path / "det.csv"
    write_det_csv(path, recs([0.9, 0.3], [0.5, 0.1]))
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,far,frr"
    assert len(lines) > 2
