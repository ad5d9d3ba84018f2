"""Convergence sequences, the comparison matrix and its win rule, plus
dataset CSV io.

A sequence holds the center scalar fluxes of one slab problem indexed by
increasing quadrature order.  Accelerators consume the four most recent
terms (a window, newest first).  The relative error between consecutive
values is |curr - prev| / |curr|, with a +inf sentinel when the current
value is too small to divide by; a method succeeds at a position when its
error is strictly smaller than the raw sequence's error there.
``ComparisonMatrix`` holds the windows of every comparison of a sequence
set in one matrix and scores a method's values on it; ``evaluate`` and the
search's fitness both score through it.  Values are scored as [prev, curr]
on the leading axis, so the two operands of the relative error are two
contiguous blocks: ``evaluate`` views its (2m,) vector as (2, m) and the
fitness has the kernel write its blocks as (2, P, m).
"""

import csv
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientHistoryError, InvalidArgumentError

#: Relative errors with |curr| below this are reported as UNDEFINED_ERROR.
TINY_DENOMINATOR = 1e-300

#: Sentinel for an undefined relative error or an invalid accelerator
#: output.  +inf never wins a strict comparison, which is exactly the
#: "count as a loss" behavior the benchmark needs.
UNDEFINED_ERROR = math.inf


@dataclass(frozen=True)
class Sequence:
    """A convergence sequence with its physical metadata."""

    id: str
    c: float
    width_mfp: float
    orders: tuple
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        orders = tuple(map(int, self.orders))
        object.__setattr__(self, "orders", orders)
        if len(orders) != values.shape[0] or len(orders) < 1:
            raise InvalidArgumentError(
                f"sequence {self.id!r}: orders and values must have equal "
                f"nonzero length ({len(orders)} vs {values.shape[0]})"
            )
        if not all(map(operator.lt, orders, orders[1:])):
            raise InvalidArgumentError(
                f"sequence {self.id!r}: orders must be strictly increasing"
            )
        if not np.isfinite(values).all():
            raise InvalidArgumentError(
                f"sequence {self.id!r}: all values must be finite"
            )
        if not 0.0 <= self.c <= 1.0:
            raise InvalidArgumentError(
                f"sequence {self.id!r}: c must be in [0, 1], got {self.c}"
            )


class ComparisonMatrix:
    """Every (sequence, order) comparison of a sequence set as one window matrix.

    Comparison ``j = s * len(orders) + k`` sets a method's value at
    ``orders[k]`` of sequence ``s`` against its value at the order just
    before.  ``windows`` holds the m previous-position windows first and the
    m current-position windows after them, so one call of a method on
    ``windows`` gives every value the comparisons need, laid out [prev;
    curr].  Beside it sit each comparison's raw error, its sequence's
    scattering ratio ``c`` and its ``order_index`` into ``orders``.
    ``sequences`` must be non-empty, or a success rate would be 0/0, and
    ``orders`` non-empty and strictly increasing, or each comparison would
    not be counted exactly once.
    """

    def __init__(self, sequences, orders):
        self.sequences = list(sequences)
        if not self.sequences:
            raise InvalidArgumentError("sequence set must be non-empty")
        self.orders = tuple(int(n) for n in orders)
        if not self.orders or not all(map(operator.lt, self.orders,
                                           self.orders[1:])):
            raise InvalidArgumentError(
                "evaluation orders must be non-empty and strictly increasing, "
                f"got {list(self.orders)}"
            )
        # Terms i, i-1, ..., i-4: the current window and the previous one.
        # Sequences that share an order list share their window ends and
        # one gather; the first list to fail names its first sequence.
        taps = np.arange(5)
        terms = np.empty((len(self.sequences), len(self.orders), 5))
        members = {}
        for s, seq in enumerate(self.sequences):
            members.setdefault(seq.orders, []).append(s)
        for rows in members.values():
            ends = self._window_ends(self.sequences[rows[0]])
            values = np.stack([self.sequences[s].values for s in rows])
            terms[rows] = values[:, ends[:, None] - taps]
        terms = terms.reshape(-1, 5)
        self.windows = np.concatenate((terms[:, 1:], terms[:, :4]))
        self.comparisons = terms.shape[0]
        self.raw_errors = relative_errors(
            self.windows[:, 0].reshape(2, -1).copy())
        self.c = np.repeat([seq.c for seq in self.sequences], len(self.orders))
        self.order_index = np.tile(np.arange(len(self.orders)), len(self.sequences))

    def _window_ends(self, seq):
        ends = []
        for order in self.orders:
            try:
                i = seq.orders.index(order)
            except ValueError:
                raise InsufficientHistoryError(
                    f"insufficient window history: sequence {seq.id!r} has no "
                    f"term at order {order} (orders {seq.orders[0]}.."
                    f"{seq.orders[-1]})"
                ) from None
            if i < 4:
                raise InsufficientHistoryError(
                    f"insufficient window history: evaluation order {order} "
                    f"sits at index {i} of sequence {seq.id!r}; both it and "
                    "its predecessor need 3 trailing terms"
                )
            ends.append(i)
        return np.array(ends, dtype=np.intp)

    def score(self, values, invalid=False, out=None):
        """Win mask of a method's ``values`` on ``windows``, shape (2, ..., m).

        ``values[0]`` holds the method's values on the m previous-position
        windows and ``values[1]`` those on the m current-position ones; a
        method's (2m,) values on ``windows`` reshape to that for free.  A
        comparison is a win when the method's relative error is strictly
        below the raw error, and invalid when that error is not finite (an
        INVALID value or a vanishing current value).  ``values`` is
        overwritten.  A bool ``out`` of the mask's shape, (..., m),
        receives the win mask.  With ``invalid`` the invalid mask comes
        back too.
        """
        err = relative_errors(values, out)
        wins = np.less(err, self.raw_errors, out=out)
        return (wins, ~np.isfinite(err)) if invalid else wins


def relative_errors(values, mask=None):
    """|curr - prev| / |curr| of [prev, curr] on the leading axis, in place.

    Entries with |curr| < TINY_DENOMINATOR read UNDEFINED_ERROR.  The
    errors overwrite ``values[0]``, which is returned.  A bool ``mask`` of
    the result's shape is scratch space for finding those entries.  When
    ``values`` is C-contiguous, every pass runs over two contiguous blocks
    and numpy needs no iteration buffers.
    """
    if values.shape[:1] != (2,):
        raise InvalidArgumentError(
            f"values must hold [prev, curr] on a leading axis of 2, got "
            f"shape {values.shape}")
    prev = values[0, ...]
    curr = values[1, ...]
    with np.errstate(all="ignore"):
        err = np.subtract(curr, prev, out=prev)
        np.abs(err, out=err)
        np.abs(curr, out=curr)
        np.divide(err, curr, out=err)
    tiny = np.less(curr, TINY_DENOMINATOR, out=mask)
    if tiny.any():
        np.copyto(err, UNDEFINED_ERROR, where=tiny)
    return err


# ---------------------------------------------------------------------------
# Dataset file io
#
# CSV with header sequence_id,c,width_mfp,order,center_flux, one row per
# (sequence, order), floats at 17 significant digits so values round-trip
# exactly, in csv's default dialect: "\r\n" line ends and ids quoted only
# when they hold a comma, a quote or a line break.  A sidecar key=value
# text file holds the grid definition.
# ---------------------------------------------------------------------------

DATASET_HEADER = ["sequence_id", "c", "width_mfp", "order", "center_flux"]

_LINE_END = "\r\n"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv_field(text: str) -> str:
    """``text`` as csv's minimal quoting writes it in a row of several
    fields."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def metadata_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta")


def write_dataset(csv_path, sequences, metadata=None) -> None:
    """Write sequences to CSV and, when metadata is given, the sidecar file.

    Each sequence is one ``%`` template, its id, c and width spelled once
    and one ``%.17g`` slot per order, filled with all its values at once.
    """
    csv_path = Path(csv_path)
    row_ends = {}  # orders -> the "order,%.17g" tail of each row
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(DATASET_HEADER) + _LINE_END)
        for seq in sequences:
            ends = row_ends.get(seq.orders)
            if ends is None:
                ends = row_ends[seq.orders] = [f"{order},%.17g{_LINE_END}"
                                               for order in seq.orders]
            head = (f"{_csv_field(seq.id)},{_fmt(seq.c)},"
                    f"{_fmt(seq.width_mfp)},").replace("%", "%%")
            fh.write((head + head.join(ends)) % tuple(seq.values.tolist()))
    if metadata is not None:
        write_metadata(metadata_path(csv_path), metadata)


def write_metadata(path, metadata: dict) -> None:
    with open(path, "w") as fh:
        for key, value in metadata.items():
            fh.write(f"{key}={value}\n")


def load_dataset(csv_path) -> list:
    """Read a dataset CSV back into Sequence objects, preserving file order.

    A row that does not parse, or that gives its sequence another c or
    width than the sequence's first row does, raises InvalidArgumentError
    naming the file and the line.
    """
    csv_path = Path(csv_path)
    rows_by_id = {}
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != DATASET_HEADER:
            raise InvalidArgumentError(
                f"{csv_path}: expected header {','.join(DATASET_HEADER)!r}, "
                f"got {header!r}"
            )
        for row in reader:
            if not row:
                continue
            try:
                seq_id, c, width, order, value = row
                # (c text, width text, c, width, orders, values)
                entry = rows_by_id.get(seq_id)
                if entry is None:
                    entry = rows_by_id[seq_id] = (c, width, float(c), float(width),
                                                  [], [])
                elif ((c != entry[0] or width != entry[1])
                      and (float(c), float(width)) != entry[2:4]):
                    raise ValueError(
                        f"sequence {seq_id!r} has c={c}, width_mfp={width} here "
                        f"but c={entry[0]}, width_mfp={entry[1]} in its first row"
                    )
                entry[4].append(int(order))
                entry[5].append(float(value))
            except ValueError as exc:
                detail = (f"expected {len(DATASET_HEADER)} fields, got {len(row)}"
                          if len(row) != len(DATASET_HEADER) else exc)
                raise InvalidArgumentError(
                    f"{csv_path}, line {reader.line_num}: {detail}") from None
    return [
        Sequence(id=seq_id, c=c, width_mfp=width, orders=orders,
                 values=np.array(values))
        for seq_id, (_, _, c, width, orders, values) in rows_by_id.items()
    ]
