import math
import tracemalloc

import numpy as np
import pytest

from oracles import Window
from txaccel.errors import InsufficientHistoryError, InvalidArgumentError
from txaccel.sequences import (
    ComparisonMatrix,
    Sequence,
    load_dataset,
    metadata_path,
    read_metadata,
    relative_errors,
    write_dataset,
)


def make_sequence(values, orders=None, c=0.5, width=2.0, seq_id="t"):
    values = np.asarray(values, dtype=float)
    if orders is None:
        orders = tuple(range(4, 4 * len(values) + 1, 4))
    return Sequence(id=seq_id, c=c, width_mfp=width, orders=orders, values=values)


def relative_error(curr, prev):
    return float(relative_errors(np.array([prev, curr], dtype=float)))


def wins(prev, curr, raw_prev, raw_curr):
    """(win, invalid) of a method valued (prev, curr) at order 20 of a
    sequence whose terms there are (raw_prev, raw_curr)."""
    seq = make_sequence([1.0, 1.0, 1.0, raw_prev, raw_curr])
    win, invalid = ComparisonMatrix([seq], (20,)).score(
        np.array([[prev], [curr]], dtype=float), invalid=True)
    return bool(win[0]), bool(invalid[0])


class TestRelativeError:
    def test_basic(self):
        assert relative_error(2.0, 1.0) == 0.5

    def test_identical_terms(self):
        assert relative_error(5.0, 5.0) == 0.0

    def test_zero_current_is_sentinel(self):
        assert relative_error(0.0, 1.0) == math.inf
        assert relative_error(1e-301, 1.0) == math.inf

    def test_scale_invariance_exact_for_binary_scales(self):
        # Powers of two rescale both operands exactly, so the quotient is
        # bit-identical.
        rng = np.random.default_rng(1)
        for _ in range(500):
            curr, prev = rng.normal(size=2) * 10.0 ** rng.integers(-6, 7)
            if abs(curr) < 1e-300:
                continue
            base = relative_error(curr, prev)
            for a in (2.0, -0.125, 2.0 ** 40):
                assert relative_error(a * curr, a * prev) == base

    def test_scale_invariance_general_scales(self):
        # General factors perturb the difference by ~eps * (|c|+|p|)/|c-p|,
        # so the check needs operands that actually differ.
        rng = np.random.default_rng(2)
        for _ in range(500):
            curr, prev = rng.normal(size=2) * 10.0 ** rng.integers(-6, 7)
            if abs(curr) < 1e-300 or abs(curr - prev) < 0.01 * abs(curr):
                continue
            base = relative_error(curr, prev)
            for a in (3.0, -7.77, 1e5):
                scaled = relative_error(a * curr, a * prev)
                assert scaled == pytest.approx(base, rel=1e-13)


def test_relative_errors_on_contiguous_blocks_need_no_buffers():
    # [prev, curr] on the leading axis of a C-contiguous array: each pass
    # runs over two contiguous blocks, so numpy allocates no iteration
    # buffers (a pass over strided halves of a (78, 1680) block took
    # 120-180 KiB of them).
    values = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 78, 840))
    mask = np.empty((78, 840), dtype=bool)
    relative_errors(values.copy(), mask)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        relative_errors(values, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 16 * 1024


def test_relative_errors_need_a_leading_axis_of_two():
    with pytest.raises(InvalidArgumentError, match="leading axis"):
        relative_errors(np.ones(6))


class TestSuccessAt:
    """The win rule of ComparisonMatrix.score."""

    def test_strict_win(self):
        # Errors 0.001 against 0.01.
        assert wins(0.999, 1.0, 0.99, 1.0) == (True, False)

    def test_tie_is_failure(self):
        assert wins(0.99, 1.0, 0.99, 1.0) == (False, False)

    def test_sentinel_never_wins(self):
        assert wins(0.5, math.inf, 11.0, 1.0) == (False, True)
        assert wins(math.inf, 0.5, 11.0, 1.0) == (False, True)
        # An undefined error (|curr| < 1e-300) against an undefined raw error.
        assert wins(1.0, 0.0, 1.0, 0.0) == (False, True)

    def test_irreflexive(self):
        for prev, curr in ((1.0, 1.0), (1.0, 1.0 + 1e-12), (0.5, 4.0), (1.0, 0.0)):
            assert wins(prev, curr, prev, curr)[0] is False


class TestWindowAt:
    """The window rows of a comparison matrix."""

    def test_window_terms(self):
        seq = make_sequence(np.arange(13.0), orders=tuple(range(4, 53, 4)))
        w = ComparisonMatrix([seq], (20,)).windows
        # The previous window ends at order 16, indices (3, 2, 1, 0).
        assert Window(*w[0]) == Window(3.0, 2.0, 1.0, 0.0)
        assert Window(*w[1]) == Window(4.0, 3.0, 2.0, 1.0)

    def test_newest_first_at_tail(self):
        seq = make_sequence(np.arange(13.0), orders=tuple(range(4, 53, 4)))
        w = ComparisonMatrix([seq], (28, 52)).windows
        assert Window(*w[3]) == Window(12.0, 11.0, 10.0, 9.0)
        assert Window(*w[2]) == Window(6.0, 5.0, 4.0, 3.0)

    def test_insufficient_history(self):
        seq = make_sequence(np.arange(13.0), orders=tuple(range(4, 53, 4)))
        for order in (12, 16):
            with pytest.raises(InsufficientHistoryError):
                ComparisonMatrix([seq], (order,))

    def test_unknown_order(self):
        seq = make_sequence(np.arange(13.0), orders=tuple(range(4, 53, 4)))
        with pytest.raises(InsufficientHistoryError):
            ComparisonMatrix([seq], (17,))

    @pytest.mark.parametrize("orders", [(), (20, 20), (28, 20), (20, 28, 28)])
    def test_orders_must_be_nonempty_and_increasing(self, orders):
        # Otherwise a comparison would be counted twice, or 0 of 0 scored.
        seq = make_sequence(np.arange(13.0), orders=tuple(range(4, 53, 4)))
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            ComparisonMatrix([seq], orders)


class TestSequenceValidation:
    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            Sequence(id="x", c=0.1, width_mfp=1.0, orders=(4, 8), values=np.ones(3))

    def test_orders_must_increase(self):
        with pytest.raises(InvalidArgumentError):
            make_sequence([1.0, 2.0, 3.0], orders=(4, 4, 8))

    def test_values_must_be_finite(self):
        with pytest.raises(InvalidArgumentError):
            make_sequence([1.0, np.nan, 3.0])

    @pytest.mark.parametrize("c", [-0.2, 1.5, math.nan, -math.inf])
    def test_c_must_be_in_unit_interval(self, c):
        with pytest.raises(InvalidArgumentError, match="'t': c must be in"):
            make_sequence([1.0, 2.0], c=c)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_c_bounds_allowed(self, c):
        assert make_sequence([1.0, 2.0], c=c).c == c

    def test_single_term_allowed(self):
        seq = make_sequence([2.5], orders=(4,))
        assert seq.values[0] == 2.5


class TestDatasetIo:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        seqs = [make_sequence(rng.uniform(0.1, 900, 13),
                              orders=tuple(range(4, 53, 4)),
                              c=float(rng.uniform(0.001, 0.999)),
                              width=float(rng.choice([1, 2, 5])),
                              seq_id=f"s{i:03d}")
                for i in range(5)]
        path = tmp_path / "data.csv"
        write_dataset(path, seqs, metadata={"seed": 0, "note": "test"})
        loaded = load_dataset(path)
        assert [s.id for s in loaded] == [s.id for s in seqs]
        for a, b in zip(seqs, loaded):
            assert a.orders == b.orders
            assert np.array_equal(a.values, b.values)
            assert a.c == b.c and a.width_mfp == b.width_mfp
        meta = read_metadata(metadata_path(path))
        assert meta["seed"] == "0"

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidArgumentError):
            load_dataset(path)

    def test_load_rejects_c_out_of_range(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("sequence_id,c,width_mfp,order,center_flux\n"
                        "s000,-0.2,1,4,0.5\ns000,-0.2,1,8,0.6\n")
        with pytest.raises(InvalidArgumentError, match="'s000': c must be in"):
            load_dataset(path)

    @pytest.mark.parametrize("row, message", [
        ("s000,0.5,1,12", "line 4: expected 5 fields, got 4"),
        ("s000,0.5,1,12,0.7,9", "line 4: expected 5 fields, got 6"),
        ("s000,0.5,1,x12,0.7", "line 4: invalid literal for int"),
        ("s000,0.5,1,12,zero", "line 4: could not convert"),
        ("s001,half,1,4,0.7", "line 4: could not convert"),
        ("s000,0.6,1,12,0.7", "line 4: sequence 's000' has c=0.6, width_mfp=1 here"),
        ("s000,0.5,2,12,0.7", "line 4: sequence 's000' has c=0.5, width_mfp=2 here"),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "data.csv"
        path.write_text("sequence_id,c,width_mfp,order,center_flux\n"
                        f"s000,0.5,1,4,0.5\ns000,0.5,1,8,0.6\n{row}\n")
        with pytest.raises(InvalidArgumentError) as exc:
            load_dataset(path)
        assert str(exc.value).startswith(f"{path}, {message}")

    def test_same_c_and_width_in_other_spelling_is_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("sequence_id,c,width_mfp,order,center_flux\n"
                        "s000,0.5,1,4,0.5\n\ns000,0.50,1.0,8,0.6\n")
        [seq] = load_dataset(path)
        assert (seq.c, seq.width_mfp, seq.orders) == (0.5, 1.0, (4, 8))

    def test_ids_are_quoted_when_needed(self, tmp_path):
        seqs = [make_sequence([0.5, 0.25], seq_id='a,"b"'),
                make_sequence([0.5, 0.25], seq_id="plain")]
        path = tmp_path / "data.csv"
        write_dataset(path, seqs)
        lines = path.read_text().splitlines()
        assert lines[1].startswith('"a,""b""",')
        assert lines[3].startswith("plain,")
        assert [s.id for s in load_dataset(path)] == ['a,"b"', "plain"]

    def test_write_is_deterministic(self, tmp_path):
        seqs = [make_sequence([1 / 3, 2 / 7, 0.123456789012345678], seq_id="s0")]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(p1, seqs)
        write_dataset(p2, seqs)
        assert p1.read_bytes() == p2.read_bytes()
