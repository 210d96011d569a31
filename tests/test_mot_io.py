from __future__ import annotations

import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from shadowmot import (
    BoundingBox,
    MotFormatError,
    MotLine,
    OracleConfig,
    SceneConfig,
    ShadowConfig,
    Tracklets,
    TrackerConfig,
    format_mot,
    generate_scene,
    read_mot,
    track_scene,
    write_mot,
)
from shadowmot.mot_io import MAX_CORNER, parse_mot_line

from helpers import format_mot_line, pairwise, random_box, to_pixel, tracklets_from_rows

# signed zeros, subnormals and magnitudes near the corner bound, drawn as
# box extents and, with either sign, as centers
_EDGE_SIZES = st.sampled_from([-0.0, 5e-324, 1e-310, MAX_CORNER / 3, MAX_CORNER])
_EDGE_COORDS = _EDGE_SIZES | _EDGE_SIZES.map(lambda v: -v)


def _read_corners(line: MotLine) -> tuple[float, float, float, float]:
    """The corners that ``read_mot`` computes from a written line."""
    cx, cy = line.bb_left + line.bb_width / 2, line.bb_top + line.bb_height / 2
    return (cx - line.bb_width / 2, cy - line.bb_height / 2,
            cx + line.bb_width / 2, cy + line.bb_height / 2)


class TestParseMotLine:
    def test_field_mapping(self):
        line = parse_mot_line("1,3,100.5,200.0,50.0,80.0,0.9,-1,-1,-1", 1)
        assert line == MotLine(1, 3, 100.5, 200.0, 50.0, 80.0, 0.9, -1.0, -1.0, -1.0)

    def test_whitespace_tolerated_between_fields(self):
        line = parse_mot_line("1, 3, 100.5, 200.0, 50.0, 80.0, 0.9, -1, -1, -1", 4)
        assert line.id == 3
        assert line.bb_left == 100.5

    def test_wrong_field_count(self):
        with pytest.raises(MotFormatError, match="line 7: expected 10 fields, got 9"):
            parse_mot_line("1,3,100.5,200.0,50.0,80.0,0.9,-1,-1", 7)
        with pytest.raises(MotFormatError, match="expected 10 fields, got 11"):
            parse_mot_line("1,3,1,2,3,4,5,6,7,8,9", 2)

    def test_bad_integer(self):
        with pytest.raises(MotFormatError, match="line 2: field 'frame': invalid integer '1.5'"):
            parse_mot_line("1.5,3,1.0,2.0,3.0,4.0,0.9,-1,-1,-1", 2)
        with pytest.raises(MotFormatError, match="field 'id': invalid integer 'abc'"):
            parse_mot_line("1,abc,1.0,2.0,3.0,4.0,0.9,-1,-1,-1", 3)

    def test_bad_number(self):
        with pytest.raises(MotFormatError, match="field 'bb_width': invalid number 'wide'"):
            parse_mot_line("1,3,1.0,2.0,wide,4.0,0.9,-1,-1,-1", 5)
        with pytest.raises(MotFormatError, match="field 'conf': invalid number 'nan'"):
            parse_mot_line("1,3,1.0,2.0,3.0,4.0,nan,-1,-1,-1", 5)

    def test_frame_below_one(self):
        with pytest.raises(MotFormatError, match="line 9: field 'frame': must be >= 1"):
            parse_mot_line("0,3,1.0,2.0,3.0,4.0,0.9,-1,-1,-1", 9)

    def test_negative_extent(self):
        with pytest.raises(MotFormatError, match="negative box extent"):
            parse_mot_line("1,3,1.0,2.0,-3.0,4.0,0.9,-1,-1,-1", 1)

    def test_default_tail_fields(self):
        assert MotLine(1, 2, 0.0, 0.0, 1.0, 1.0, 0.5) == MotLine(
            1, 2, 0.0, 0.0, 1.0, 1.0, 0.5, -1.0, -1.0, -1.0
        )


class TestFormatMotLine:
    def test_shortest_round_trip_floats(self):
        line = MotLine(2, 7, 100.1, 0.30000000000000004, 50.0, 80.0, 0.9)
        text = format_mot_line(line)
        assert parse_mot_line(text, 1) == line

    def test_layout(self):
        line = MotLine(1, 3, 100.5, 200.0, 50.0, 80.0, 0.9)
        assert format_mot_line(line) == "1,3,100.5,200.0,50.0,80.0,0.9,-1.0,-1.0,-1.0"


class TestReadMot:
    def test_pixel_center_conversion(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1,3,100.5,200.0,50.0,80.0,0.9,-1,-1,-1\n")
        tracklets = read_mot(str(path))
        assert tracklets.identities == (3,)
        (obs,) = tracklets.track(3)
        assert obs.frame == 1
        assert obs.box == BoundingBox(cx=125.5, cy=240.0, w=50.0, h=80.0)
        assert obs.score == 0.9

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_mot(str(path)) == Tracklets()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("\n1,3,0.0,0.0,10.0,10.0,1.0,-1,-1,-1\n   \n")
        assert read_mot(str(path)).n_boxes() == 1

    def test_unsorted_frames_accepted(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text(
            "2,3,0.0,0.0,10.0,10.0,1.0,-1,-1,-1\n"
            "1,3,5.0,5.0,10.0,10.0,1.0,-1,-1,-1\n"
        )
        tracklets = read_mot(str(path))
        assert [o.frame for o in tracklets.track(3)] == [1, 2]

    def test_duplicate_frame_id_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text(
            "1,3,0.0,0.0,10.0,10.0,1.0,-1,-1,-1\n"
            "1,3,5.0,5.0,10.0,10.0,1.0,-1,-1,-1\n"
        )
        with pytest.raises(MotFormatError, match=r"line 2: duplicate \(frame, id\) = \(1, 3\)"):
            read_mot(str(path))

    def test_error_carries_real_line_number(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1,3,0.0,0.0,10.0,10.0,1.0,-1,-1,-1\n\nbroken\n")
        with pytest.raises(MotFormatError, match="line 3: expected 10 fields"):
            read_mot(str(path))

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1,3,0.0,0.0,10.0,10.0,1.0,-1,-1,-1\n\nbroken\n")
        with pytest.raises(MotFormatError) as info:
            read_mot(str(path))
        assert str(info.value) == f"{path}: line 3: expected 10 fields, got 1"

    def test_overflowing_box_center_is_a_located_error(self, tmp_path):
        # every field is finite, but bb_left + bb_width / 2 is not
        path = tmp_path / "r.txt"
        path.write_text(
            "1,3,0.0,0.0,10.0,10.0,1.0,-1,-1,-1\n"
            "2,3,1.7e308,0.0,1.7e308,10.0,1.0,-1,-1,-1\n"
        )
        with pytest.raises(MotFormatError) as info:
            read_mot(str(path))
        assert str(info.value) == f"{path}: line 2: box component cx must be finite, got inf"

    @pytest.mark.parametrize("fields,corner", [
        ("0.0,0.0,1e300,10.0", "1e+300"),
        ("-2e150,0.0,1.0,10.0", "-2e+150"),
        ("0.0,1e151,1.0,1.0", "1e+151"),
    ], ids=["wide", "far-left", "low"])
    def test_box_beyond_the_corner_bound_is_a_located_error(self, tmp_path, fields, corner):
        path = tmp_path / "r.txt"
        path.write_text(f"1,3,0.0,0.0,10.0,10.0,1.0,-1,-1,-1\n2,3,{fields},1.0,-1,-1,-1\n")
        with pytest.raises(MotFormatError) as info:
            read_mot(str(path))
        assert str(info.value) == f"{path}: line 2: box corner {corner} outside [-1e150, 1e150]"

    def test_boxes_at_the_corner_bound_have_finite_overlaps(self, tmp_path):
        # the largest box a read accepts, a point at its corner, and a box
        # from the opposite corner: every overlap is finite
        path = tmp_path / "r.txt"
        path.write_text(
            "1,1,-1e150,-1e150,2e150,2e150,1.0,-1,-1,-1\n"
            "1,2,1e150,1e150,0.0,0.0,1.0,-1,-1,-1\n"
            "1,3,-1e150,-1e150,1e150,2e150,1.0,-1,-1,-1\n"
        )
        boxes = [obs.box for _, track in read_mot(str(path)) for obs in track]
        with np.errstate(all="raise"):
            for values in pairwise(boxes, boxes):
                assert np.isfinite(values).all()


    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_non_ascii_byte_is_a_located_error(self, tmp_path, newline):
        path = tmp_path / "r.txt"
        good = "1,3,0.0,0.0,10.0,10.0,1.0,-1,-1,-1"
        path.write_bytes(
            (good + newline + newline + "2,3,").encode() + b"\xff" + b",0,1,1,1,-1,-1,-1\n"
        )
        with pytest.raises(MotFormatError) as info:
            read_mot(str(path))
        assert str(info.value) == f"{path}: line 3: non-ASCII byte 0xff"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("byte", [b"\x00", b"\x0b", b"\x0c", b"\x1c", b"\x7f"])
    def test_control_byte_is_a_located_error(self, tmp_path, newline, byte):
        # str.splitlines breaks lines at \x0b, \x0c and \x1c too; a line
        # number counts only \n, \r\n and \r
        path = tmp_path / "r.txt"
        good = "1,3,0.0,0.0,10.0,10.0,1.0,-1,-1,-1"
        path.write_bytes((good + newline + newline + "2,3,").encode() + byte
                         + b",0,1,1,1,-1,-1,-1\xff\n")
        with pytest.raises(MotFormatError) as info:
            read_mot(str(path))
        assert str(info.value) == f"{path}: line 3: control byte 0x{byte[0]:02x}"

    def test_records_joined_by_a_form_feed_are_one_line(self, tmp_path):
        path = tmp_path / "r.txt"
        good = b"1,3,0.0,0.0,10.0,10.0,1.0,-1,-1,-1"
        path.write_bytes(good + b"\x0c" + good.replace(b"1,3", b"2,3", 1) + b"\n")
        with pytest.raises(MotFormatError) as info:
            read_mot(str(path))
        assert str(info.value) == f"{path}: line 1: control byte 0x0c"

    @pytest.mark.parametrize("line,message", [
        ("1_0,1,1,1,1,1,1,-1,-1,-1", "field 'frame': invalid integer '1_0'"),
        ("1,1_0,1,1,1,1,1,-1,-1,-1", "field 'id': invalid integer '1_0'"),
        ("1,1,1_2.5,1,1,1,1,-1,-1,-1", "field 'bb_left': invalid number '1_2.5'"),
        ("1,1,1,1,1,1,1,-1,-1,1e1_0", "field 'z': invalid number '1e1_0'"),
    ])
    def test_underscore_in_a_field_is_a_located_error(self, tmp_path, line, message):
        # int() and float() read "1_0" as 10
        path = tmp_path / "r.txt"
        path.write_text(f"2,3,0.0,0.0,10.0,10.0,1.0,-1,-1,-1\n{line}\n")
        with pytest.raises(MotFormatError) as info:
            read_mot(str(path))
        assert str(info.value) == f"{path}: line 2: {message}"


class TestWriteReadCycle:
    def test_write_then_read_pixel_tracklets(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = []
        for identity in (1, 2):
            for frame in (1, 2, 3):
                b = random_box(rng)
                pixel = BoundingBox(cx=b.cx * 640, cy=b.cy * 480, w=b.w * 640, h=b.h * 480)
                rows.append((identity, frame, pixel, float(rng.uniform())))
        tracklets = tracklets_from_rows(rows)
        path = tmp_path / "out.txt"
        write_mot(tracklets, str(path))
        recovered = read_mot(str(path))
        assert recovered.identities == tracklets.identities
        # one file hop may shift the centre by an ulp; a second hop is fixed
        write_mot(recovered, str(tmp_path / "out2.txt"))
        assert read_mot(str(tmp_path / "out2.txt")) == recovered

    def test_read_write_read_is_identity(self, tmp_path):
        scene = generate_scene(SceneConfig(n_frames=12, n_objects=3, seed=8))
        cfg = TrackerConfig(shadow=ShadowConfig(embed_dim=8), n_detection_sets=6)
        tracked = track_scene(scene, cfg, OracleConfig(seed=8, box_noise_std=0.002))
        first = tmp_path / "a.txt"
        write_mot(tracked, str(first), image_size=(1920, 1080))
        loaded = read_mot(str(first))
        second = tmp_path / "b.txt"
        write_mot(loaded, str(second))
        assert read_mot(str(second)) == loaded
        assert (tmp_path / "b.txt").read_text() == format_mot(loaded)

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_write_error_names_the_file(self):
        # the final flush of a full device raises an OSError with no name
        b = BoundingBox(cx=10.0, cy=10.0, w=4.0, h=4.0)
        with pytest.raises(OSError) as info:
            write_mot(tracklets_from_rows([(1, 1, b, 0.9)]), "/dev/full")
        assert info.value.filename == "/dev/full"
        assert "'/dev/full'" in str(info.value)

    def test_output_sorted_by_frame_then_id(self, tmp_path):
        b = BoundingBox(cx=10.0, cy=10.0, w=4.0, h=4.0)
        tracklets = tracklets_from_rows(
            [(9, 2, b, 1.0), (1, 1, b, 1.0), (9, 1, b, 1.0), (1, 2, b, 1.0)]
        )
        text = format_mot(tracklets)
        heads = [line.split(",")[:2] for line in text.splitlines()]
        assert heads == [["1", "1"], ["1", "9"], ["2", "1"], ["2", "9"]]

    def test_image_size_scales_normalized_boxes(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.5, h=0.5)
        tracklets = tracklets_from_rows([(1, 1, b, 1.0)])
        text = format_mot(tracklets, image_size=(100, 200))
        assert text == "1,1,25.0,50.0,50.0,100.0,1.0,-1.0,-1.0,-1.0\n"

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(1, 6), st.integers(1, 6),
                st.floats(-2.0, 2.0) | _EDGE_COORDS, st.floats(-2.0, 2.0) | _EDGE_COORDS,
                st.floats(0.0, 2.0) | _EDGE_SIZES, st.floats(0.0, 2.0) | _EDGE_SIZES,
                st.floats(0.0, 1.0) | st.sampled_from([1e-07, 5e-324, 1e16]),
            ),
            max_size=12, unique_by=lambda r: (r[0], r[1]),
        ),
        image_size=st.none() | st.tuples(st.integers(1, 100000), st.integers(1, 100000)),
    )
    def test_equals_the_per_row_helper(self, rows, image_size):
        # numpy-float scores, as the tracker emits them
        tracklets = tracklets_from_rows([
            (identity, frame, BoundingBox(cx, cy, w, h), np.float64(score))
            for identity, frame, cx, cy, w, h, score in rows
        ])
        lines = []
        for identity, track in tracklets:
            for obs in track:
                if image_size is None:
                    b = obs.box
                    left, top, width, height = b.cx - b.w / 2, b.cy - b.h / 2, b.w, b.h
                else:
                    left, top, width, height = to_pixel(obs.box, *image_size)
                lines.append(MotLine(obs.frame, identity, left, top, width, height, obs.score))
        lines.sort(key=lambda r: (r.frame, r.id))
        # the first row whose corner the reader would reject is an error
        far = [(line, corner) for line in lines for corner in _read_corners(line)
               if not abs(corner) <= MAX_CORNER]
        if far:
            line, corner = far[0]
            message = (f"identity {line.id}, frame {line.frame}: box corner {corner!r} "
                       "outside [-1e150, 1e150]")
            with pytest.raises(ValueError) as info:
                format_mot(tracklets, image_size)
            assert str(info.value) == message
            return
        expected = "".join(format_mot_line(line) + "\n" for line in lines)
        assert format_mot(tracklets, image_size) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        boxes=st.lists(
            st.tuples(
                st.floats(-2 * MAX_CORNER, 2 * MAX_CORNER) | _EDGE_COORDS,
                st.floats(-2 * MAX_CORNER, 2 * MAX_CORNER) | _EDGE_COORDS,
                st.floats(0.0, 2 * MAX_CORNER) | _EDGE_SIZES,
                st.floats(0.0, 2 * MAX_CORNER) | _EDGE_SIZES,
            ),
            min_size=1, max_size=4,
        ),
        image_size=st.none() | st.tuples(st.integers(1, 100000), st.integers(1, 100000)),
    )
    def test_every_box_written_near_the_bound_is_read(self, tmp_path_factory, boxes, image_size):
        tracklets = tracklets_from_rows([
            (identity, 1, BoundingBox(*box), 0.5) for identity, box in enumerate(boxes, start=1)
        ])
        try:
            text = format_mot(tracklets, image_size)
        except ValueError as exc:
            assert "outside [-1e150, 1e150]" in str(exc)
            return
        path = tmp_path_factory.getbasetemp() / "near.txt"
        path.write_text(text, encoding="ascii")
        assert read_mot(str(path)).identities == tracklets.identities

    @pytest.mark.parametrize("cx,image_size,corner", [
        (1e160, None, "1e+160"),
        (1e160, (1920, 1080), "1.92e+163"),
        (1e308, (1920, 1080), "inf"),
    ])
    def test_box_beyond_the_corner_bound_is_not_written(self, cx, image_size, corner):
        b = BoundingBox(cx=cx, cy=0.5, w=0.1, h=0.1)
        tracklets = tracklets_from_rows([(2, 1, BoundingBox(0.5, 0.5, 0.1, 0.1), 0.9), (3, 7, b, 0.9)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                format_mot(tracklets, image_size)
        assert str(info.value) == f"identity 3, frame 7: box corner {corner} outside [-1e150, 1e150]"

    def test_trailing_newline(self):
        b = BoundingBox(cx=10.0, cy=10.0, w=4.0, h=4.0)
        text = format_mot(tracklets_from_rows([(1, 1, b, 1.0)]))
        assert text.endswith("\n")
        assert format_mot(Tracklets()) == ""
