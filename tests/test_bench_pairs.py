"""The pure parts of tools/bench_pairs.py: the gain rule, failure shares, run keys
and the change-side label."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize


def test_median_and_quartiles_interpolate_between_order_statistics():
    s = summarize([5.0, 1.0, 4.0, 2.0, 3.0], [1.0] * 5, "higher")
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == (2.0, 3.0, 4.0)
    s = summarize([1.0, 2.0, 3.0, 4.0], [1.0] * 4, "higher")
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == (1.75, 2.5, 3.25)
    s = summarize([7.0], [8.0], "higher")
    assert s["parent"]["q1"] == s["parent"]["median"] == s["parent"]["q3"] == 7.0


def test_ties_count_for_neither_side():
    s = summarize([1.0, 2.0, 3.0], [2.0, 2.0, 1.0], "higher")
    assert s["wins"] == {"change": 1, "parent": 1, "ties": 1}
    s = summarize([1.0, 2.0, 3.0], [2.0, 2.0, 1.0], "lower")
    assert s["wins"] == {"change": 1, "parent": 1, "ties": 1}


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]


def test_gain_needs_nine_of_ten_wins():
    nine = [130.0] * 9 + [90.0]
    assert summarize(PARENT, nine, "higher")["gain"]
    eight = [130.0] * 8 + [90.0, 90.0]
    assert not summarize(PARENT, eight, "higher")["gain"]
    nine_and_a_tie = [130.0] * 9 + [PARENT[-1]]
    s = summarize(PARENT, nine_and_a_tie, "higher")
    assert s["wins"] == {"change": 9, "parent": 0, "ties": 1} and s["gain"]
    eight_and_two_ties = [130.0] * 8 + PARENT[-2:]
    assert not summarize(PARENT, eight_and_two_ties, "higher")["gain"]


def test_gain_needs_a_median_gap_beyond_the_parent_quartile_distance():
    s = summarize(PARENT, [p + 0.1 for p in PARENT], "higher")
    assert s["wins"]["change"] == 10
    parent_iqr = s["parent"]["q3"] - s["parent"]["q1"]
    assert 0.0 < s["change"]["median"] - s["parent"]["median"] < parent_iqr
    assert not s["gain"]
    assert summarize(PARENT, [p + 2.0 for p in PARENT], "higher")["gain"]


def test_lower_is_better_flips_the_direction():
    faster = [p - 20.0 for p in PARENT]
    assert summarize(PARENT, faster, "lower")["gain"]
    assert not summarize(PARENT, faster, "higher")["gain"]
    assert summarize(PARENT, faster, "lower")["wins"]["change"] == 10


@pytest.mark.parametrize("change, better, bound, worse", [
    ([111.0] * 10, "lower", 0.1, True),      # RSS +11% at a 10% bound
    ([109.0] * 10, "lower", 0.1, False),     # RSS +9%
    ([74.0] * 10, "higher", 0.25, True),     # points_per_s -26% at a 25% bound
    ([76.0] * 10, "higher", 0.25, False),    # points_per_s -24%
    ([130.0] * 10, "higher", 0.25, False),   # better by any amount
])
def test_worse_than_bound_compares_medians_relative_to_the_parent(change, better, bound, worse):
    parent = [100.0] * 10
    assert summarize(parent, change, better, bound)["worse_than_bound"] is worse


def test_a_metric_without_a_bound_is_never_judged():
    assert summarize(PARENT, [p * 2.0 for p in PARENT], "lower")["worse_than_bound"] is None


@pytest.mark.parametrize("parent, change, better", [
    ([1.0, 2.0], [1.0], "higher"),
    ([], [], "higher"),
    ([1.0], [2.0], "faster"),
])
def test_rejects_unpaired_or_empty_values_and_unknown_directions(parent, change, better):
    with pytest.raises(ValueError):
        summarize(parent, change, better)


def test_failed_share_sums_failures_over_attempts_per_side():
    s = bench_pairs.failures({"parent": [100, 300], "change": [200, 200]},
                             {"parent": [1, 3], "change": [2, 2]})
    assert s == {"failed_share": {"parent": 0.01, "change": 0.01}, "more_failures": False}


def test_a_fixed_failure_count_reads_as_more_failures_on_the_slower_side():
    """Three failed points per run: the side that attempts fewer fails a larger share."""
    s = bench_pairs.failures({"parent": [20000] * 3, "change": [19000] * 3},
                             {"parent": [3] * 3, "change": [3] * 3})
    assert s["failed_share"]["change"] > s["failed_share"]["parent"]
    assert s["more_failures"] is True
    s = bench_pairs.failures({"parent": [20000] * 3, "change": [21000] * 3},
                             {"parent": [3] * 3, "change": [3] * 3})
    assert s["more_failures"] is False


def test_no_attempts_leave_the_failed_share_undefined():
    s = bench_pairs.failures({"parent": [0], "change": [5]}, {"parent": [0], "change": [0]})
    assert s == {"failed_share": {"parent": None, "change": 0.0}, "more_failures": None}


def test_a_run_key_already_in_the_out_file_is_taken():
    doc = {"workloads": {"sweep_hot": {"seed=1": {}, "seed=1 trace=1": {}}}}
    assert bench_pairs.run_key(1, 0) == "seed=1"
    assert bench_pairs.run_key(1, 1) == "seed=1 trace=1"
    assert bench_pairs.taken(doc, "sweep_hot", bench_pairs.run_key(1, 0))
    assert bench_pairs.taken(doc, "sweep_hot", bench_pairs.run_key(1, 1))
    assert not bench_pairs.taken(doc, "sweep_hot", bench_pairs.run_key(2, 0))
    assert not bench_pairs.taken(doc, "sweep_cold", bench_pairs.run_key(1, 0))
    assert not bench_pairs.taken({}, "sweep_hot", bench_pairs.run_key(1, 0))


def test_main_refuses_a_taken_key_before_any_run(tmp_path, monkeypatch, capsys):
    out = tmp_path / "bench.json"
    out.write_text('{"workloads": {"cli_point": {"seed=3": {"pairs": 1}}}}\n')
    monkeypatch.setattr(bench_pairs, "run_side", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD", "--workload", "cli_point", "--pairs", "1", "--seed", "3",
                          "--out", str(out)])
    assert exc.value.code == 2
    assert "already holds workloads['cli_point']['seed=3']" in capsys.readouterr().err
    assert out.read_text() == '{"workloads": {"cli_point": {"seed=3": {"pairs": 1}}}}\n'


def test_the_change_side_is_its_head_plus_the_hash_of_its_diff():
    head = "3340264d6bce553a97c9b1c351318f7b48214e46"
    assert bench_pairs.change_label(head, b"") == {"head": head, "diff_sha256": None}
    diff = b"diff --git a/x b/x\n+\x00binary\n"
    label = bench_pairs.change_label(head, diff)
    assert label == {"head": head, "diff_sha256": hashlib.sha256(diff).hexdigest()}
    assert bench_pairs.change_label(head, diff + b"+1\n")["diff_sha256"] != label["diff_sha256"]
