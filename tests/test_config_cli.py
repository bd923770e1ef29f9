from dataclasses import fields

import numpy as np
import pytest

from segdet import cli, proposals as props, store
from segdet import deepsegface as dsf
from segdet.config import _KEY_ALIASES, _SECTIONS, RunConfig, parse_config, validate_config
from segdet.errors import ConfigError
from segdet.imaging import BoxI
from segdet.segments import SegmentKind
from segdet.synth import Annotation, SynthSpec

from conftest import mk_proposal


def write_config(cfg: RunConfig, path) -> None:
    """Emit every field as dotted keys: the parser's fixed point."""
    file_keys = {field_key: key for key, field_key in _KEY_ALIASES.items()}
    lines = [f"seed = {cfg.seed}", f"segments.layout = {cfg.layout_scale}"]
    for name, value in cfg.layout_overrides.items():
        lines.append(f"segments.layout.{name} = {value}")
    for section, cls in _SECTIONS.items():
        obj = getattr(cfg, section)
        for f in fields(cls):
            key = f"{section}.{f.name}"
            lines.append(f"{file_keys.get(key, key)} = {getattr(obj, f.name)}")
    store.write_lines(path, lines)


class TestConfig:
    def test_defaults_are_valid(self):
        validate_config(RunConfig())

    def test_parse_and_override(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# run settings\n"
            "seed = 42\n"
            "proposals.zeta = 5\n"
            "svm.lambda = 0.001\n"
            "segments.layout = full\n"
        )
        cfg = parse_config(p)
        assert cfg.seed == 42
        assert cfg.proposals.zeta == 5
        assert cfg.svm.lam == 0.001
        assert cfg.layout_scale == "full"
        assert cfg.layout().canonical[SegmentKind.NOSE] == (69, 81)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("proposals.zetta = 3\n")
        with pytest.raises(ConfigError, match="zetta"):
            parse_config(p)
        # the 50% overlap rule is fixed: TAR, labels and coverage share it
        p.write_text("eval.iou_min = 0.7\n")
        with pytest.raises(ConfigError, match="unknown key 'eval.iou_min'"):
            parse_config(p)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("proposals.zeta", "0"),
            ("weak.scale_min", "0"),
            ("weak.scale_min", "-1"),
            ("synth.width", "0"),
            ("synth.height", "0"),
            ("synth.noise", "-1"),
            ("weak.scale_min", "0.0001"),
            ("weak.scale_count", "5000"),
            ("weak.scale_factor", "1e10"),
            ("weak.scale_min", "1e308"),
            ("weak.pool_size", "0"),
            ("net.lr", "0"),
            ("hog.clip", "0"),
            ("synth.face_min", "0.9"),
            ("weak.threshold_scale", "nan"),
            ("weak.threshold_scale", "0"),
            ("weak.threshold_scale", "2.5"),
            ("weak.nms_iou", "nan"),
            ("weak.nms_iou", "-0.1"),
            ("weak.nms_iou", "1.5"),
            ("weak.negatives_per_image", "0"),
            ("weak.negatives_per_image", "-1"),
            ("weak.stride", "9"),
            ("weak.stride", "100000"),
            ("hog.cell", "12"),
            ("segments.layout.Nose", "0.3 0.35 0.7 0.75 12 12"),
            ("synth.noise", "inf"),
            ("synth.face_min", "0"),
            ("synth.height", "5"),
        ],
        ids=[
            "zeta", "scale_min_zero", "scale_min_negative", "width", "height", "noise",
            "scale_min_tiny", "scale_count_huge", "scale_factor_huge", "scale_min_top_rung_inf",
            "pool_size_zero", "net_lr", "hog_clip", "face_min_above_face_max",
            "threshold_scale_nan", "threshold_scale_zero", "threshold_scale_above_two",
            "nms_iou_nan", "nms_iou_negative", "nms_iou_above_one",
            "negatives_per_image_zero", "negatives_per_image_negative",
            "stride_above_eight", "stride_huge", "hog_cell_above_eye_patch", "nose_patch_below_hog_block",
            "noise_inf", "face_min_under_two_px", "height_under_decoy_minimum",
        ],
    )
    def test_range_violation_names_field(self, tmp_path, key, value):
        p = tmp_path / "run.cfg"
        p.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(p)

    def test_sections_are_stage_records(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("net.lr = 0.1\n")
        net = parse_config(p).net
        assert isinstance(net, dsf.TrainParams) and net.lr == 0.1
        assert dsf.TrainParams() == RunConfig().net
        assert RunConfig().synth.spec(5, 1) == SynthSpec(count=5, seed=1)

    def test_layout_override_entry(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("segments.layout = toy\nsegments.layout.Nose = 0.25 0.3 0.75 0.8 20 24\n")
        cfg = parse_config(p)
        layout = cfg.layout()
        assert layout.canonical[SegmentKind.NOSE] == (20, 24)
        assert layout.regions[SegmentKind.NOSE].u0 == 0.25

    def test_write_then_parse_fixed_point(self, tmp_path):
        cfg = RunConfig()
        cfg.seed = 17
        cfg.proposals.zeta = 8
        p1, p2 = tmp_path / "a.cfg", tmp_path / "b.cfg"
        write_config(cfg, p1)
        back = parse_config(p1)
        assert back.seed == 17 and back.proposals.zeta == 8
        write_config(back, p2)
        assert p1.read_text() == p2.read_text()


class TestCliExitCodes:
    def test_validate_config_ok(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\n")
        assert cli.main(["validate-config", "--config", str(p)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_config_bad_zeta(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("proposals.zeta = 0\n")
        assert cli.main(["validate-config", "--config", str(p)]) == 2
        assert "proposals.zeta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["net.scale = full\n", "segments.layout.Nose = 0.25 0.3 0.75 0.8 2 2\n"],
        ids=["full_net_on_toy_layout", "collapsing_override"],
    )
    def test_network_must_fit_layout_exit_code(self, tmp_path, capsys, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        assert cli.main(["validate-config", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "net.scale" in err and "Nose" in err and "Traceback" not in err

    def test_full_network_follows_layout_override(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("net.scale = full\nsegments.layout = full\nsegments.layout.Nose = 0.3 0.35 0.7 0.75 128 64\n")
        assert cli.main(["validate-config", "--config", str(p)]) == 0
        cfg = parse_config(p)
        assert dsf.network_config("full", cfg.layout()).flatten_size(SegmentKind.NOSE) == 50 * 4 * 2

    def test_out_of_range_synth_size_exit_code(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("synth.width = 0\n")
        assert cli.main(["synth", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "synth.width" in err and "Traceback" not in err

    def test_zero_pixel_faces_exit_code(self, tmp_path, capsys):
        # a face under 2 px tall would round to zero width and divide by zero
        p = tmp_path / "run.cfg"
        p.write_text("synth.face_min = 0.0\n")
        assert cli.main(["validate-config", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "synth.face_min" in err and "Traceback" not in err

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["validate-config", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"seed = \xff\n")
        assert cli.main(["validate-config", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert str(p) in err and "Traceback" not in err

    def test_missing_input_exit_code(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\n")
        assert cli.main(["train-weak", "--config", str(p)]) == 3

    def test_missing_model_exit_code(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\nsynth.train_count = 2\nsynth.test_count = 2\n")
        assert cli.main(["synth", "--config", str(p)]) == 0
        assert cli.main(["detect-segments", "--config", str(p), "--split", "train"]) == 3

    @pytest.mark.parametrize(
        "line", ["images/a.pgm,1,2,30", "images/a.pgm,1,2,30,40,5", "images/a.pgm,1,2,x,40"]
    )
    def test_malformed_annotations_exit_code(self, tmp_path, capsys, line):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\n")
        ann = tmp_path / "data/test/annotations.csv"
        ann.parent.mkdir(parents=True)
        ann.write_text(f"images/b.pgm,,,,\n{line}\n")
        assert cli.main(["eval", "--config", str(p)]) == 4
        err = capsys.readouterr().err
        assert f"{ann}:2" in err and "Traceback" not in err

    def test_directory_for_input_file_exit_code(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\n")
        ann = tmp_path / "data/test/annotations.csv"
        ann.parent.mkdir(parents=True)
        ann.write_text("images/a.pgm,1,2,30,40\n")
        faces = tmp_path / "reports/faces_deepsegface_test.csv"
        faces.mkdir(parents=True)
        assert cli.main(["eval", "--config", str(p)]) == 3
        err = capsys.readouterr().err
        assert str(faces) in err and "Traceback" not in err

    def test_faces_file_missing_an_image_exit_code(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\n")
        ann = tmp_path / "data/test/annotations.csv"
        ann.parent.mkdir(parents=True)
        ann.write_text("images/a.pgm,1,2,30,40\nimages/b.pgm,,,,\nimages/c.pgm,,,,\n")
        faces = tmp_path / "reports/faces_deepsegface_test.csv"
        faces.parent.mkdir(parents=True)
        cli.save_faces([("images/a.pgm", (BoxI(1, 2, 30, 40), 0.9))], faces)
        assert cli.main(["eval", "--config", str(p)]) == 4
        err = capsys.readouterr().err
        assert str(faces) in err and "images/b.pgm" in err and "Traceback" not in err

    def test_faces_file_with_an_image_outside_the_split_exit_code(self, tmp_path, capsys):
        # a faces file from another split or a stale run must not evaluate as this run's
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\n")
        ann = tmp_path / "data/test/annotations.csv"
        ann.parent.mkdir(parents=True)
        ann.write_text("images/a.pgm,1,2,30,40\nimages/b.pgm,,,,\nimages/c.pgm,,,,\n")
        faces = tmp_path / "reports/faces_deepsegface_test.csv"
        faces.parent.mkdir(parents=True)
        cli.save_faces([(f"images/{c}.pgm", None) for c in "abc"], faces)
        props.export_proposals({}, tmp_path / "reports/proposals_test.csv")
        assert cli.main(["eval", "--config", str(p)]) == 0
        with faces.open("a") as fh:
            fh.write("img_zzz.pgm,1,2,30,40,0.99\n")
        assert cli.main(["eval", "--config", str(p)]) == 4
        err = capsys.readouterr().err
        assert str(faces) in err and "img_zzz.pgm" in err and "(1 extra)" in err and "Traceback" not in err

    def test_out_option_is_a_usage_error(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--config", str(p), "--out", "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--out" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\nsynth.train_count = 3\nsynth.test_count = 2\n")
        assert cli.main(["synth", "--config", str(p), "--seed", "2"]) == 0
        first = (tmp_path / "data/train/annotations.csv").read_text()
        assert cli.main(["synth", "--config", str(p)]) == 0
        second = (tmp_path / "data/train/annotations.csv").read_text()
        assert first != second


class TestFacesFormat:
    def test_round_trip(self, tmp_path):
        rows = [
            ("img_a", (BoxI(1, 2, 3, 4), 0.75)),
            ("img_b", None),
        ]
        p = tmp_path / "faces.csv"
        cli.save_faces(rows, p)
        back = cli.load_faces(p)
        assert back == dict(rows)
        lines = p.read_text().splitlines()
        assert lines[2] == "img_b,,,,,"


def test_interior_face_detection():
    a = type("A", (), {"face": BoxI(0, 5, 10, 10)})
    assert not cli._interior_face(a, 160, 120)
    b = type("A", (), {"face": BoxI(3, 5, 10, 10)})
    assert cli._interior_face(b, 160, 120)
    c = type("A", (), {"face": None})
    assert not cli._interior_face(c, 160, 120)


@pytest.mark.parametrize("model", ["segface", "deepsegface"])
def test_detect_cache_entries_do_not_outlive_their_image(monkeypatch, model):
    """Cache keys carry the image id, so no entry may be seen by a later image."""
    seen = []

    def score(p, cache):
        seen.append((p.source_image, set(cache)))
        cache[(p.source_image, "patch")] = 0.0
        return 0.5

    monkeypatch.setattr(cli.weakdet, "detect_segments", lambda *a, **k: [])
    monkeypatch.setattr(
        cli,
        "proposals_for_image",
        lambda dets, layout, cfg, image_id: [mk_proposal([0, 1, 2], image_id=image_id)],
    )
    monkeypatch.setattr(
        cli.segface, "score_proposal_segface", lambda p, model, image, cache: score(p, cache)
    )
    # DeepSegFace builds its inputs per call: the CLI passes it no cache
    monkeypatch.setattr(cli.dsf, "detect", lambda model, image, plist: (plist[0].box, score(plist[0], {})))
    annotations = [Annotation(f"img_{i}", None) for i in range(3)]
    images = {a.path: None for a in annotations}
    detect = (cli.segface if model == "segface" else cli.dsf).detect
    rows, _ = cli._detect_with_model(RunConfig(), detect, annotations, images, [], None, None)
    assert [r[0] for r in rows] == ["img_0", "img_1", "img_2"]
    assert [image for image, _ in seen] == ["img_0", "img_1", "img_2"]
    assert all(key[0] == image for image, keys in seen for key in keys)
