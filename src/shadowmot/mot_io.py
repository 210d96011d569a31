"""MOTChallenge-format text I/O.

Each line is exactly ten comma-separated fields:
frame, id, bb_left, bb_top, bb_width, bb_height, conf, x, y, z.
Boxes on disk are pixel top-left format; in memory they become center-format
boxes in pixel units.  Reals are serialized with shortest round-trip
precision, so reading back what was written recovers the exact values.

:class:`Tracklets` reach the metrics and the writer as one row form,
:class:`MotRows` sorted by (frame, id), which the commands make without
tracklets.  Each file is read and written in one pass: the read checks
every parsed line as arrays, giving the rows; ``_format_rows`` scales the
rows as one array and formats each with one string.  Parsing is strict:
a byte other than printable ASCII, tab and a line break, wrong field
count, non-numeric fields (``1_0`` among them, which ``int`` and
``float`` take), frames below 1, duplicate (frame, id) pairs, boxes whose
center overflows and boxes with a corner beyond ``MAX_CORNER`` all raise
with the file path and the 1-based line number, which the per-line
parser ``parse_mot_line`` finds when the one-pass read fails.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator, NamedTuple, NoReturn, Optional, Sequence

import numpy as np

from . import _MODULES
from .geometry import BoundingBox, _corners, _rows

__all__ = _MODULES["mot_io"]

_FIELDS = ("frame", "id", "bb_left", "bb_top", "bb_width", "bb_height", "conf", "x", "y", "z")

# one written row: frame, id, bb_left, bb_top, bb_width, bb_height, conf,
# then x, y, z, which this package always writes as -1
_ROW = "%s,%s,%s,%s,%s,%s,%s,-1.0,-1.0,-1.0\n"

# the bytes a text input may hold: printable ASCII, tab and the line breaks
_TEXT_BYTES = b"\t\n\r" + bytes(range(0x20, 0x7f))

# the largest corner coordinate a box read may have: every area, union and
# hull that geometry._pairwise_rows forms from two such boxes is finite
MAX_CORNER = 1e150


class Observation(NamedTuple):
    frame: int
    box: BoundingBox
    score: float


class Tracklets:
    """Identity-keyed trajectories: ordered (frame, box, score) triples.

    Frames must be appended in strictly increasing order per identity.
    """

    def __init__(self) -> None:
        self._tracks: dict[int, list[Observation]] = {}

    def add(self, identity: int, frame: int, box: BoundingBox, score: float = 1.0) -> None:
        track = self._tracks.setdefault(identity, [])
        if track and frame <= track[-1].frame:
            raise ValueError(
                f"frame {frame} not after frame {track[-1].frame} for identity {identity}"
            )
        track.append(Observation(frame, box, score))

    @classmethod
    def from_entries(cls, entries: Sequence[tuple[int, int, BoundingBox, float]]) -> "Tracklets":
        """Build from (identity, frame, box, score) rows in any order."""
        out = cls()
        for identity, frame, box, score in sorted(entries, key=lambda e: (e[0], e[1])):
            out.add(identity, frame, box, score)
        return out

    @property
    def identities(self) -> tuple[int, ...]:
        return tuple(sorted(self._tracks))

    def track(self, identity: int) -> tuple[Observation, ...]:
        return tuple(self._tracks[identity])

    def __iter__(self) -> Iterator[tuple[int, tuple[Observation, ...]]]:
        for identity in self.identities:
            yield identity, tuple(self._tracks[identity])

    def __len__(self) -> int:
        return len(self._tracks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tracklets):
            return NotImplemented
        return self._tracks == other._tracks

    def n_boxes(self) -> int:
        return sum(len(t) for t in self._tracks.values())


class MotLine(NamedTuple):
    frame: int
    id: int
    bb_left: float
    bb_top: float
    bb_width: float
    bb_height: float
    conf: float
    x: float = -1.0
    y: float = -1.0
    z: float = -1.0


class MotFormatError(ValueError):
    """Malformed line in a MOT-format file; message carries the line number,
    and from ``read_mot`` the file path before it."""


def parse_mot_line(text: str, line_no: int) -> MotLine:
    parts = text.split(",")
    if len(parts) != 10:
        raise MotFormatError(f"line {line_no}: expected 10 fields, got {len(parts)}")
    values = []
    for name, raw in zip(_FIELDS, parts):
        raw = raw.strip()
        try:
            # int() and float() read "1_0" as 10
            if "_" in raw:
                raise ValueError
            if name in ("frame", "id"):
                values.append(int(raw))
            else:
                v = float(raw)
                if not math.isfinite(v):
                    raise ValueError
                values.append(v)
        except ValueError:
            kind = "integer" if name in ("frame", "id") else "number"
            raise MotFormatError(
                f"line {line_no}: field '{name}': invalid {kind} {raw!r}"
            ) from None
    line = MotLine(*values)
    if line.frame < 1:
        raise MotFormatError(f"line {line_no}: field 'frame': must be >= 1, got {line.frame}")
    if line.bb_width < 0 or line.bb_height < 0:
        raise MotFormatError(f"line {line_no}: negative box extent")
    return line


def _read_ascii(path: str) -> str:
    """The text of a file of printable ASCII, tabs and line breaks
    (``\\n``, ``\\r\\n`` or ``\\r``).  Any other byte is a ValueError that
    names the file, the line and the byte, e.g. ``bad.txt: line 1:
    non-ASCII byte 0xc3`` or ``bad.txt: line 2: control byte 0x0c``."""
    data = Path(path).read_bytes()
    # the bytes outside _TEXT_BYTES, in file order, in one scan
    bad = data.translate(None, _TEXT_BYTES)
    if not bad:
        return data.decode("ascii")
    at = data.index(bad[:1])
    # the text before the first bad byte breaks lines only at \n, \r\n and
    # \r; a stand-in character completes the bad byte's line
    line_no = len((data[:at].decode("ascii") + "?").splitlines())
    kind = "non-ASCII" if bad[0] > 0x7f else "control"
    raise ValueError(f"{path}: line {line_no}: {kind} byte 0x{bad[0]:02x}")


def _write_ascii(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as ASCII; an OSError names the file, also
    one raised on the final flush (``/dev/full``), which carries no name.
    The text is encoded once and written in binary: a text-mode write of
    a 600 kB MOT file peaked about 0.3 MB higher in resident memory."""
    data = text.encode("ascii")
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from None


class MotRows(NamedTuple):
    """The boxes of a MOT file, one row each, sorted by (frame, id)."""

    frames: Sequence[int]
    ids: Sequence[int]
    boxes: np.ndarray  # [n, 4]: (cx, cy, w, h) of each row
    scores: Sequence[float]


def _read_rows(path: str) -> MotRows:
    """Parse a results or ground-truth file into rows; a defect raises
    the per-line pass's located error."""
    try:
        text = _read_ascii(path)
    except ValueError as exc:
        raise MotFormatError(str(exc)) from None
    lines = text.splitlines()
    # int() and float() read "1_0" as 10, which the per-line pass refuses
    if "_" in text:
        _read_lines(path, lines)
    # int() and float() skip the whitespace around a field themselves
    try:
        rows = sorted(
            (int(f), int(i), float(l), float(t), float(w), float(h),
             float(c), float(x), float(y), float(z))
            for f, i, l, t, w, h, c, x, y, z in (text.split(",") for text in lines if text.strip())
        )
    except ValueError:
        _read_lines(path, lines)
    frames, ids, *columns = zip(*rows) if rows else [()] * 10
    left, top, w, h, *rest = np.array(columns)
    # an overflow or a nan fails a test below, which sends the file
    # through the per-line pass; the box checks its own fields, its
    # extent, its center and its corners
    with np.errstate(all="ignore"):
        boxes = np.column_stack((left + w / 2, top + h / 2, w, h))
        if (min(frames, default=1) < 1 or len(set(zip(frames, ids))) < len(rows)
                or not np.isfinite(rest).all() or not ((w >= 0) & (h >= 0)).all()
                or not (np.abs(_corners(boxes)) <= MAX_CORNER).all()):
            _read_lines(path, lines)
    return MotRows(frames, ids, boxes, columns[4])


def _rows_of(tracklets: Tracklets) -> MotRows:
    """The rows of ``tracklets``."""
    # (frame, id) is unique within tracklets, so the sort never compares boxes
    entries = sorted(
        (obs.frame, identity, obs.box, obs.score) for identity, track in tracklets for obs in track
    )
    frames, ids, boxes, scores = zip(*entries) if entries else [()] * 4
    return MotRows(frames, ids, _rows(boxes), scores)


def _tracklets_of(rows: MotRows) -> Tracklets:
    """The tracklets of ``rows``: what ``_rows_of`` undoes."""
    return Tracklets.from_entries([
        (identity, frame, BoundingBox(*box), score)
        for frame, identity, box, score in zip(rows.frames, rows.ids, rows.boxes.tolist(), rows.scores)
    ])


def read_mot(path: str) -> Tracklets:
    """Parse a results or ground-truth file into pixel-space tracklets.

    Whitespace-only lines are ignored.  (frame, id) pairs must be unique,
    which rules out detection files full of id -1 rows; those are not
    tracklets.
    """
    return _tracklets_of(_read_rows(path))


def _read_lines(path: str, lines: list[str]) -> NoReturn:
    """Raise the located error of the first bad line of a file that the
    one-pass read refused: its number and what is wrong with it."""
    seen: set[tuple[int, int]] = set()
    for line_no, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        try:
            line = parse_mot_line(text, line_no)
            key = (line.frame, line.id)
            if key in seen:
                raise MotFormatError(
                    f"line {line_no}: duplicate (frame, id) = ({line.frame}, {line.id})"
                )
            seen.add(key)
            # finite fields can still sum to an infinite center or corner
            box = BoundingBox(
                cx=line.bb_left + line.bb_width / 2,
                cy=line.bb_top + line.bb_height / 2,
                w=line.bb_width,
                h=line.bb_height,
            )
            with np.errstate(over="ignore"):
                corners = _corners(_rows([box]))[:, 0].tolist()
            for corner in corners:
                if abs(corner) > MAX_CORNER:
                    raise MotFormatError(
                        f"line {line_no}: box corner {corner!r} outside [-1e150, 1e150]"
                    )
        except MotFormatError as exc:
            raise MotFormatError(f"{path}: {exc}") from None
        except ValueError as exc:
            raise MotFormatError(f"{path}: line {line_no}: {exc}") from None
    raise AssertionError(f"{path}: the one-pass read refused a file with no bad line")


def format_mot(
    tracklets: Tracklets, image_size: Optional[tuple[int, int]] = None
) -> str:
    """Serialize tracklets, sorted by (frame, id), one line per box.

    With ``image_size`` the boxes are treated as normalized and scaled to
    pixels; without it they are written in whatever units they carry, which
    is the mode that makes write-after-read value-preserving.  A box with a
    corner beyond ``MAX_CORNER``, as ``read_mot`` computes it from the
    written fields, is a ValueError that names its identity and frame.
    """
    return _format_rows(_rows_of(tracklets), image_size)


def _format_rows(rows: MotRows, image_size: Optional[tuple[int, int]] = None) -> str:
    """The MOT text of ``rows``, as ``format_mot`` writes the tracklets
    whose rows they are."""
    # a scale of 1 keeps every value's bits
    img_w, img_h = image_size if image_size is not None else (1, 1)
    if img_w <= 0 or img_h <= 0:
        raise ValueError(f"image dimensions must be positive, got {img_w}x{img_h}")
    # an overflow or a nan fails the corner test below
    with np.errstate(over="ignore", invalid="ignore"):
        x1, y1, _, _ = _corners(rows.boxes)
        # pixel top-left (left, top, width, height), the MOTChallenge convention
        pixels = np.column_stack((x1, y1, rows.boxes[:, 2:])) * np.array(
            (img_w, img_h, img_w, img_h), dtype=float
        )
        # the corners that the reader computes from the written fields
        left, top, width, height = pixels.T
        corners = _corners(np.column_stack((left + width / 2, top + height / 2, width, height)))
        far = ~(np.abs(corners) <= MAX_CORNER)
    if far.any():
        n, side = np.argwhere(far.T)[0]
        raise ValueError(
            f"identity {rows.ids[n]}, frame {rows.frames[n]}: box corner "
            f"{corners[side, n].item()!r} outside [-1e150, 1e150]"
        )
    # float() because scores may be numpy floats; %s of a float is its repr
    return "".join([
        _ROW % (frame, identity, left, top, width, height, float(score))
        for frame, identity, (left, top, width, height), score
        in zip(rows.frames, rows.ids, pixels.tolist(), rows.scores)
    ])


def write_mot(
    tracklets: Tracklets,
    path: str,
    image_size: Optional[tuple[int, int]] = None,
) -> None:
    _write_ascii(path, format_mot(tracklets, image_size))
