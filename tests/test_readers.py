"""Every reader of a segdet file returns a value or raises a SegdetError.

The four CSV readers and the config parser get arbitrary bytes; the model
readers get mutations of a valid file (a dropped line, a value or key
replaced by arbitrary text, a line replaced by arbitrary bytes, or a
truncation). The CLI cases check that such input exits 4, not a traceback,
and every value `store.write_csv` writes reads back equal.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from segdet import cli, deepsegface as dsf, proposals, segface, store, synth, weakdet
from segdet.config import parse_config
from segdet.errors import ParseError, SegdetError
from segdet.imaging import BoxI
from segdet.priors import build_priors
from segdet.segface import FEATURE_LEN, HogParams, LinearModel, SegFaceModel, hog_length
from segdet.segments import ALL_KINDS, SegmentKind, default_layout

from conftest import mk_labeled

FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

CSV_READERS = {
    "annotations": synth.load_annotations,
    "detections": weakdet.import_detections,
    "proposals": proposals.import_proposals,
    "faces": cli.load_faces,
    "config": parse_config,
}

# CSV-shaped text reaches the field parsers; raw bytes reach the decoder
CSV_ALPHABET = "0123456789,.-+#e \nNoseEyeUL34facenonfaceinfa.pgm"
csv_bytes = st.one_of(
    st.binary(max_size=200),
    st.text(CSV_ALPHABET, max_size=200).map(str.encode),
    st.text(max_size=100).map(lambda t: t.encode("utf-8", "surrogatepass")),
)


def _reads_or_raises_segdet_error(read, path):
    try:
        read(path)
    except SegdetError:
        pass


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
@FUZZ
@given(data=csv_bytes)
def test_csv_reader_on_arbitrary_bytes(tmp_path, reader, data):
    path = tmp_path / f"{reader}.csv"
    path.write_bytes(data)
    _reads_or_raises_segdet_error(CSV_READERS[reader], path)


@pytest.mark.parametrize(
    "reader, text",
    [
        ("annotations", "a.pgm,1,2,30,40\nb.pgm,,,,\na.pgm,,,,\n"),
        ("faces", "# image_id,x,y,w,h,score\na.pgm,1,2,30,40,0.5\na.pgm,,,,,\n"),
    ],
)
def test_csv_reader_rejects_a_repeated_image(tmp_path, reader, text):
    # a repeated frame would be detected and counted twice, a repeated faces row override the first
    path = tmp_path / f"{reader}.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=rf"{reader}\.csv:3: repeated image 'a\.pgm'"):
        CSV_READERS[reader](path)


# ids as the readers see them: no comma or line break, and no '#' as the first non-blank character
csv_ids = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters=",")).filter(
    lambda t: not t.lstrip().startswith("#")
)
finite = st.floats(allow_nan=False, allow_infinity=False)
csv_rows = st.lists(
    st.tuples(csv_ids, st.lists(st.integers(), min_size=1, max_size=3), st.lists(finite, max_size=3)), max_size=5
)


@FUZZ
@given(rows=csv_rows)
def test_write_csv_values_read_back_equal(tmp_path, rows):
    # text as it is and numbers by repr: what write_csv writes, records and fields read back exactly
    path = tmp_path / "rows.csv"
    store.write_csv(path, [(i, *ints, *floats) for i, ints, floats in rows], "# id,ints,floats")
    back = list(store.records(path))
    assert len(back) == len(rows)
    for (where, parts), (i, ints, floats) in zip(back, rows):
        types = (str, *[int] * len(ints), *[float] * len(floats))
        assert store.fields(parts, types, where) == [i, *ints, *floats]


@pytest.mark.parametrize(
    "save, load, value",
    [
        (synth.save_annotations, synth.load_annotations, [synth.Annotation(" a.pgm ", BoxI(1, 2, 30, 40))]),
        (cli.save_faces, cli.load_faces, [(" a.pgm ", (BoxI(1, 2, 30, 40), 0.5))]),
    ],
)
def test_ids_with_outer_whitespace_round_trip(tmp_path, save, load, value):
    save(value, tmp_path / "rows.csv")
    back = load(tmp_path / "rows.csv")
    assert (back if isinstance(back, list) else list(back.items())) == value


def _weak_model(path):
    det = weakdet.BoostedDetector(
        SegmentKind.EYE,
        12,
        8,
        [
            weakdet.Stump(weakdet.HaarFeature(weakdet.HAAR_TWO_H, BoxI(0, 0, 12, 8)), 0.25, 1, 0.5),
            weakdet.Stump(weakdet.HaarFeature(weakdet.HAAR_THREE_H, BoxI(3, 2, 9, 6)), -0.125, -1, 0.75),
        ],
        accept_threshold=0.625,
    )
    weakdet.save_detectors([det], path)


def _priors():
    return build_priors([mk_labeled([0, 1, 2], True), mk_labeled([0, 1, 2, 3], True), mk_labeled([3, 4, 5], False)])


def _segface_model(path):
    rng = np.random.default_rng(5)
    layout = default_layout("toy")
    hp = HogParams()

    def linear(dim):
        return LinearModel(rng.normal(size=dim), float(rng.normal()))

    per_segment = {k: linear(hog_length(*layout.canonical[k], hp)) for k in ALL_KINDS}
    segface.save_segface(SegFaceModel(hp, per_segment, linear(FEATURE_LEN), _priors(), layout), path)


def _deepsegface_model(path):
    model = dsf.build_network(dsf.network_config("toy", default_layout("toy"), "float32"), seed=5)
    model.priors = _priors()
    dsf.save_deepsegface(model, path)


MODELS = {
    "weak": (_weak_model, weakdet.load_detectors),
    "segface": (_segface_model, segface.load_segface),
    "deepsegface": (_deepsegface_model, dsf.load_deepsegface),
}


@pytest.fixture(scope="module")
def model_lines(tmp_path_factory):
    """The lines of each valid model file, checked to load unchanged."""
    out = {}
    for name, (write, read) in MODELS.items():
        path = tmp_path_factory.mktemp("models") / f"{name}.txt"
        write(path)
        read(path)
        out[name] = path.read_text().splitlines()
    return out


junk_text = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
    st.from_regex(r"-?[0-9]{1,6}(\.[0-9]{1,3})?( -?[0-9]{1,4}){0,6}", fullmatch=True),
)


@st.composite
def mutations(draw, lines):
    """A valid model file's lines with one mutation, as bytes."""
    op = draw(st.sampled_from(["drop", "value", "key", "bytes", "truncate"]))
    text = "\n".join(lines) + "\n"
    if op == "truncate":
        return text[: draw(st.integers(0, len(text)))].encode()
    lines = [line.encode() for line in lines]
    at = draw(st.integers(0, len(lines) - 1))
    key, sep, value = lines[at].partition(b" = ")
    if op == "drop":
        del lines[at]
    elif op == "bytes":
        lines[at] = draw(st.binary(max_size=20))
    elif op == "value":
        lines[at] = key + sep + draw(junk_text).encode()
    else:
        lines[at] = draw(junk_text).encode() + sep + value
    return b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("model", sorted(MODELS))
@FUZZ
@given(data=st.data())
def test_model_reader_on_mutated_file(tmp_path, model_lines, model, data):
    path = tmp_path / f"{model}.txt"
    path.write_bytes(data.draw(mutations(model_lines[model])))
    _reads_or_raises_segdet_error(MODELS[model][1], path)


@pytest.mark.parametrize(
    "model, name", [("weak", "detector kind=Eye"), ("segface", "svm kind=Nose"), ("deepsegface", "head")]
)
def test_model_reader_rejects_a_repeated_section(tmp_path, model, name):
    # a copy of the section at the end of the file would silently replace the first
    write, read = MODELS[model]
    write(tmp_path / "m.txt")
    lines = (tmp_path / "m.txt").read_text().splitlines()
    at = lines.index(f"[{name}]")
    end = next((i for i in range(at + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    (tmp_path / "m.txt").write_text("\n".join(lines + lines[at:end]) + "\n")
    with pytest.raises(ParseError, match=rf"m\.txt:{len(lines) + 1}: repeated section \[{re.escape(name)}\]"):
        read(tmp_path / "m.txt")


@pytest.mark.parametrize(
    "model, line",
    [("weak", "accept_threshold = 999.0"), ("segface", "cell = 4"), ("deepsegface", "n_face = 7")],
)
def test_model_reader_rejects_a_repeated_key(tmp_path, model, line):
    # a second entry right after the first would silently override it
    write, read = MODELS[model]
    write(tmp_path / "m.txt")
    lines = (tmp_path / "m.txt").read_text().splitlines()
    key = line.split(" = ")[0]
    (at,) = [i for i, old in enumerate(lines) if old.startswith(f"{key} = ")]
    lines.insert(at + 1, line)
    (tmp_path / "m.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=rf"m\.txt:{at + 2}: repeated key '{key}' in \["):
        read(tmp_path / "m.txt")


@pytest.mark.parametrize(
    "old, new, key",
    [
        # a stump line past stump_count used to be dropped without a word
        ("stump_count = 2", "stump_count = 1", "stump1"),
        # a misspelt key next to the real one used to be ignored
        ("accept_threshold = 0.625", "accept_threshold = 0.625\naccept_treshold = 0.5", "accept_treshold"),
    ],
)
def test_weak_reader_rejects_an_unknown_key(tmp_path, old, new, key):
    _weak_model(tmp_path / "m.txt")
    text = (tmp_path / "m.txt").read_text()
    assert old in text
    (tmp_path / "m.txt").write_text(text.replace(old, new, 1))
    with pytest.raises(ParseError, match=rf"m\.txt: \[detector kind=Eye\] {key}: unknown key"):
        weakdet.load_detectors(tmp_path / "m.txt")


def test_layout_section_checks(tmp_path):
    _segface_model(tmp_path / "m.txt")
    text = (tmp_path / "m.txt").read_text()
    for old, new, error in [
        ("Nose = ", "Ear = ", "UnknownSegmentKindError"),
        ("Eye = 0.125", "Eye = x", "ParseError"),
        ("Eye = 0.125", "Eye = 0.9", "ParseError"),
    ]:
        (tmp_path / "bad.txt").write_text(text.replace(old, new, 1))
        with pytest.raises(SegdetError) as exc:
            segface.load_segface(tmp_path / "bad.txt")
        assert type(exc.value).__name__ == error and "[layout]" in str(exc.value)
    lines = [line for line in text.splitlines() if not line.startswith("UR34 = ")]
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="UR34"):
        segface.load_segface(tmp_path / "bad.txt")


@pytest.mark.parametrize(
    "old, new, kind",
    [("Nose = 0.3 0.35 0.7 0.75 24 28", "Nose = 0.3 0.35 0.7 0.75 12 12", "Nose"), ("cell = 8", "cell = 12", "Eye")],
)
def test_segface_layout_must_hold_a_hog_block(tmp_path, old, new, kind):
    _segface_model(tmp_path / "m.txt")
    text = (tmp_path / "m.txt").read_text()
    assert old in text
    (tmp_path / "m.txt").write_text(text.replace(old, new, 1))
    with pytest.raises(ParseError, match=rf"m\.txt: \[layout\] {kind}: patch"):
        segface.load_segface(tmp_path / "m.txt")


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_face", "-3"),
        ("n_nonface", "0"),
        ("combo_face", "7:5.0 99999:-2.0"),
        ("combo_face", "7:0.5 99999:0.5"),
        ("combo_face", "-1:0.5 15:0.5"),
        ("combo_nonface", "56:-2.0"),
        ("seg_face", "3.0 1.0 1.0 0.5 0.0 0.0 0.0 0.0 0.0"),
        ("seg_nonface", "-1.0 0.0 0.0 1.0 1.0 1.0 0.0 0.0 0.0"),
    ],
)
@pytest.mark.parametrize("model", ["segface", "deepsegface"])
def test_priors_values_must_be_in_range(tmp_path, model, key, value):
    # a count below one, a mask outside 0..511 or a fraction outside [0, 1]
    # would let the re-rank multiplier leave [0, 1]
    write, read = MODELS[model]
    write(tmp_path / "m.txt")
    lines = (tmp_path / "m.txt").read_text().splitlines()
    (at,) = [i for i, line in enumerate(lines) if line.startswith(f"{key} = ")]
    lines[at] = f"{key} = {value}"
    (tmp_path / "m.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=rf"m\.txt: \[priors\] {key}: "):
        read(tmp_path / "m.txt")


def test_deepsegface_layout_must_fit_its_preset(tmp_path):
    # the full preset's [config] over the toy layout: its five pools floor Nose to nothing
    _deepsegface_model(tmp_path / "m.txt")
    text = (tmp_path / "m.txt").read_text()
    layout = default_layout("toy")

    def config_lines(scale):
        return "\n".join(f"{k} = {v}" for k, v in dsf._config_entries(dsf.network_config(scale, layout, "float32")))

    assert config_lines("toy") in text
    (tmp_path / "m.txt").write_text(text.replace(config_lines("toy"), config_lines("full"), 1))
    with pytest.raises(ParseError, match=r"m\.txt: \[layout\] Nose: input \(24, 28\) collapses"):
        dsf.load_deepsegface(tmp_path / "m.txt")


@pytest.mark.parametrize(
    "old, new",
    [("channels = 1", "channels = 100000"), ("fc_units = 64", "fc_units = 65"), ("dtype = float32", "dtype = int8")],
)
def test_deepsegface_config_must_match_its_preset(tmp_path, old, new):
    _deepsegface_model(tmp_path / "m.txt")
    text = (tmp_path / "m.txt").read_text()
    assert old in text
    (tmp_path / "m.txt").write_text(text.replace(old, new, 1))
    with pytest.raises(ParseError, match=new.split(" = ")[0]):
        dsf.load_deepsegface(tmp_path / "m.txt")


def test_deepsegface_blob_shape_must_match_its_layer(tmp_path):
    model = dsf.build_network(dsf.network_config("toy", default_layout("toy"), "float32"), seed=5)
    model.priors = _priors()
    conv = model.columns[SegmentKind.NOSE][0]
    conv.bias = np.zeros(conv.bias.size + 1, dtype=conv.bias.dtype)
    dsf.save_deepsegface(model, tmp_path / "m.txt")
    with pytest.raises(ParseError, match=r"\[column kind=Nose\] p0.1"):
        dsf.load_deepsegface(tmp_path / "m.txt")


def test_eval_on_short_faces_line_exits_4(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n")
    ann = tmp_path / "data/test/annotations.csv"
    ann.parent.mkdir(parents=True)
    ann.write_text("a.pgm,,,,\n")
    faces = tmp_path / "reports/faces_deepsegface_test.csv"
    faces.parent.mkdir()
    faces.write_text("a.pgm,1,2,3\n")
    assert cli.main(["eval", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert f"{faces}:1" in err and "Traceback" not in err


def test_detect_on_segface_model_without_hog_key_exits_4(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n")
    models = tmp_path / "models"
    models.mkdir()
    _weak_model(models / "weakdet.txt")
    _segface_model(models / "segface.txt")
    lines = (models / "segface.txt").read_text().splitlines()
    lines.remove("cell = 8")
    (models / "segface.txt").write_text("\n".join(lines) + "\n")
    assert cli.main(["detect", "--config", str(cfg), "--model", "segface"]) == 4
    err = capsys.readouterr().err
    assert "[hog] cell" in err and "Traceback" not in err
