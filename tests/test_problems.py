import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inexact.bits import (
    ResourceLimitError,
    bits_to_index,
    index_to_bits,
    parse_bits,
    popcount,
    popcount_table,
)
from inexact.problems import (
    TruthTable,
    binary_evaluation,
    build_problem,
    comparison_problem,
    custom_problem,
    evaluate,
    or_problem,
    sorting_problem,
    table_from_csv,
    table_to_csv,
    tribes_problem,
    truth_table,
    unary_evaluation,
)

from conftest import brute_output

TABLE1 = {
    "or": [0, 1, 1, 1, 1, 1, 1, 1],
    "ue": [0, 1, 1, 2, 1, 2, 2, 3],
    "be": [0, 1, 2, 3, 4, 5, 6, 7],
}


def test_reference_three_bit_tables():
    for kind, expected in TABLE1.items():
        table = truth_table(build_problem(kind, 3))
        assert table.outputs.tolist() == expected


def test_evaluate_worked_examples():
    assert evaluate(or_problem(3), parse_bits("000")) == 0
    assert evaluate(binary_evaluation(3), parse_bits("110")) == 6
    assert evaluate(unary_evaluation(3), parse_bits("111")) == 3
    tr = tribes_problem(4, 2)
    assert evaluate(tr, parse_bits("0011")) == 1
    assert evaluate(tr, parse_bits("0101")) == 0


def test_single_bit_comparison():
    cmp1 = comparison_problem(1)
    # x occupies bit 0, y bit 1
    assert evaluate(cmp1, [1, 0]) == 1
    assert evaluate(cmp1, [0, 0]) == 0
    assert evaluate(cmp1, [0, 1]) == -1


def test_two_one_bit_numbers_sort():
    # values 1 (bit 0) and 0 (bit 1) sort to 0 in the low field, 1 above it
    assert evaluate(sorting_problem(2, 1), [1, 0]) == 0b10


def test_evaluate_rejects_wrong_length():
    with pytest.raises(ValueError):
        evaluate(or_problem(3), [0, 1])
    with pytest.raises(ValueError):
        evaluate(or_problem(3), [0, 1, 2])


def test_build_problem_validation():
    with pytest.raises(ValueError):
        build_problem("tribes", 5, tribe_count=2)
    with pytest.raises(ValueError):
        build_problem("comparison", 5)
    with pytest.raises(ValueError):
        build_problem("nonesuch", 3)
    with pytest.raises(ValueError):
        build_problem("or", 0)


def test_build_problem_refuses_what_its_kind_does_not_read():
    for kind, n, params in [("or", 3, {"width": 7}), ("be", 3, {"count": 3}),
                            ("tribes", 4, {"k": 2}), ("comparison", None, {"k": 2, "width": 2}),
                            ("sorting", None, {"count": 2, "width": 2, "tribe_count": 2}),
                            ("custom", None, {"outputs": [0, 1], "k": 1}),
                            ("custom", None, {"outputs": [0, 1], "name": "x"})]:
        with pytest.raises(ValueError, match="do not read"):
            build_problem(kind, n, **params)
    for kind, n, params in [("comparison", 6, {"k": 2}), ("sorting", 9, {"count": 2, "width": 2}),
                            ("custom", 2, {"outputs": [0, 1]})]:
        with pytest.raises(ValueError, match="has n="):
            build_problem(kind, n, **params)
    # an n that agrees is accepted, and comparison derives k from an even n
    assert build_problem("comparison", 4, k=2) == comparison_problem(2)
    assert build_problem("comparison", 12) == comparison_problem(6)
    assert build_problem("sorting", 4, count=2, width=2) == sorting_problem(2, 2)
    assert build_problem("custom", 1, outputs=[0, 1]).n == 1


@given(st.integers(2, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_or_and_ue_are_permutation_invariant(n, data):
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                    dtype=np.uint8)
    perm = data.draw(st.permutations(range(n)))
    shuffled = bits[np.array(perm)]
    for build in (or_problem, unary_evaluation):
        p = build(n)
        assert evaluate(p, bits) == evaluate(p, shuffled)


def test_tribes_has_a_symmetry_witness():
    p = tribes_problem(4, 2)
    found = any(
        evaluate(p, index_to_bits(i, 4)) != evaluate(p, index_to_bits(i, 4)[perm])
        for i in range(16)
        for perm in [np.array([0, 2, 1, 3]), np.array([1, 0, 3, 2])[::-1]]
    )
    assert found


@given(st.integers(1, 14), st.data())
@settings(max_examples=60, deadline=None)
def test_binary_evaluation_is_the_weighted_bit_sum(n, data):
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                    dtype=np.uint8)
    expected = sum(int(b) << j for j, b in enumerate(bits))
    assert evaluate(binary_evaluation(n), bits) == expected


@pytest.mark.parametrize("problem", [
    or_problem(4),
    unary_evaluation(3),
    binary_evaluation(4),
    tribes_problem(6, 3),
    comparison_problem(2),
    comparison_problem(3),
    sorting_problem(3, 2),
    custom_problem([3, -1, 0, 7, 2, 2, -5, 1]),
])
def test_table_rows_match_the_evaluator(problem):
    table = truth_table(problem)
    for i in range(1 << problem.n):
        bits = index_to_bits(i, problem.n)
        expected = brute_output(problem, bits)
        assert table.outputs[i] == expected
        assert evaluate(problem, bits) == expected


@pytest.mark.parametrize("problem", [
    or_problem(40), unary_evaluation(40), binary_evaluation(62),
    tribes_problem(40, 4), comparison_problem(20), sorting_problem(4, 10),
])
def test_evaluate_works_above_the_table_limit(problem):
    rng = np.random.default_rng(problem.n)
    rows = [np.zeros(problem.n, dtype=np.uint8), np.ones(problem.n, dtype=np.uint8)]
    rows += [rng.integers(0, 2, size=problem.n).astype(np.uint8) for _ in range(20)]
    for bits in rows:
        assert evaluate(problem, bits) == brute_output(problem, bits)


def test_comparison_against_integer_compare():
    # x is the low k bits, y the high k bits, each least-significant first
    p = comparison_problem(3)
    table = truth_table(p)
    for i in range(1 << 6):
        bits = index_to_bits(i, 6)
        x, y = i & 0b111, i >> 3
        assert table.outputs[i] == (x > y) - (x < y)
        assert evaluate(p, bits) == (x > y) - (x < y)


def test_sorting_output_is_the_sorted_value_sequence():
    # three 2-bit values; the output packs them ascending, smallest lowest
    p = sorting_problem(3, 2)
    for i in range(1 << 6):
        bits = index_to_bits(i, 6)
        values = [(i >> (2 * m)) & 0b11 for m in range(3)]
        packed = evaluate(p, bits)
        assert [(packed >> (2 * m)) & 0b11 for m in range(3)] == sorted(values)
        assert packed >> 6 == 0


def test_custom_problem_round_trip():
    outputs = [3, -1, 0, 7]
    p = custom_problem(outputs)
    assert (p.name, p.n) == ("custom", 2)
    assert [evaluate(p, index_to_bits(i, 2)) for i in range(4)] == outputs


def test_custom_rejects_bad_lengths_and_scale():
    with pytest.raises(ValueError):
        custom_problem([1, 2, 3])
    with pytest.raises(ResourceLimitError):
        custom_problem(np.zeros(1 << 15, dtype=np.int64))


def test_custom_outputs_stay_where_every_difference_fits_int64(tmp_path):
    # outputs in [-2**62, 2**62) differ by less than 2**63; sorting packs at
    # most 62 bits, so the built-in outputs stay inside too; every truth
    # table checks its bound before a cast to int64 could wrap, so a table
    # built directly, a custom problem and a CSV table are refused alike
    edge = [-(1 << 62), (1 << 62) - 1]
    assert custom_problem(edge).params["outputs"].tolist() == edge
    assert TruthTable(1, np.array(edge)).outputs.tolist() == edge
    path = tmp_path / "table.csv"
    for outputs in ([1 << 62, 0], [0, -(1 << 62) - 1], [(1 << 63) - 1, -(1 << 63)],
                    [0, 1 << 64], np.array([0, 1 << 62]),
                    np.array([0, (1 << 64) - 1], dtype=np.uint64)):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            TruthTable(1, outputs)
        with pytest.raises(ValueError, match="2\\*\\*62"):
            custom_problem(outputs)
        path.write_text("b_0,output\n" + "".join(f"{i},{v}\n" for i, v in enumerate(outputs)))
        with pytest.raises(ValueError, match="2\\*\\*62"):
            table_from_csv(path)
    path.write_text("b_0,output\n" + "".join(f"{i},{v}\n" for i, v in enumerate(edge)))
    assert table_from_csv(path).outputs.tolist() == edge
    assert evaluate(sorting_problem(2, 31), [1] * 62) == (1 << 62) - 1


def test_truth_table_scale_guard():
    with pytest.raises(ResourceLimitError):
        truth_table(binary_evaluation(21))


def test_csv_round_trip_is_bit_exact(tmp_path):
    for problem in (binary_evaluation(3), tribes_problem(4, 2), comparison_problem(2)):
        path = tmp_path / f"{problem.name}.csv"
        table = truth_table(problem)
        table_to_csv(table, path)
        back = table_from_csv(path)
        assert back.n == table.n
        assert np.array_equal(back.outputs, table.outputs)


def test_csv_header_and_row_order(tmp_path):
    path = tmp_path / "be2.csv"
    table_to_csv(truth_table(binary_evaluation(2)), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "b_1,b_0,output"
    assert lines[1] == "0,0,0"
    assert lines[2] == "0,1,1"  # row 1 sets bit 0, written MSB first


def test_csv_reader_skips_comment_lines(tmp_path):
    path = tmp_path / "annotated.csv"
    table_to_csv(truth_table(or_problem(2)), path)
    path.write_text("# generated for a test\n" + path.read_text())
    assert np.array_equal(table_from_csv(path).outputs, [0, 1, 1, 1])


def test_bits_text_round_trip():
    assert bits_to_index(parse_bits("101")) == 5
    assert parse_bits("110").tolist() == [0, 1, 1]
    with pytest.raises(ValueError):
        parse_bits("102")


def test_popcount_counts_the_low_bits():
    idx = np.array([0, 1, 6, 7, 255, (1 << 62) - 1], dtype=np.int64)
    assert popcount(idx, 62).tolist() == [bin(int(i)).count("1") for i in idx]
    assert popcount(idx, 2).tolist() == [0, 1, 1, 2, 2, 2]
    for n in (1, 4, 9):
        table = popcount_table(n)
        assert table.dtype == np.int64
        assert table.tolist() == [bin(i).count("1") for i in range(1 << n)]
        assert np.array_equal(truth_table(unary_evaluation(n)).outputs, table)


def test_popcount_matches_the_bit_by_bit_count_at_every_width():
    # full-range rows set bits above every n (the sign bit too); those are ignored
    rows = np.random.default_rng(12).integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                                              size=2_000, dtype=np.int64, endpoint=True)
    for n in range(1, 63):
        want = np.zeros(rows.shape, dtype=np.int64)
        for j in range(n):
            want += (rows >> j) & 1
        got = popcount(rows, n)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), n
        assert np.array_equal(popcount(rows & ((1 << n) - 1), n), want), n
