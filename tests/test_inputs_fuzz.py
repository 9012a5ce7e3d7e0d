"""Fuzzed input files: every reader returns or raises a ValidationError that
starts with the file's path (the dataset reader also reports each bad row
there), and every command that reads a file ends in exit 0, 2, 3 or 4
without a traceback.

Examples are derandomised so the suite is repeatable.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tazcar.centrality import read_edge_list
from tazcar.cli import main
from tazcar.dataset import DATASET_COLUMNS, load_dataset
from tazcar.errors import ValidationError
from tazcar.model import ModelSpec
from tazcar.synth import default_truth
from tazcar.weights import read_topology, read_weight_matrix

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

# Header keywords, in-range, negative, huge and out-of-range ids, signed zero,
# non-finite and non-numeric values, comments.
WORDS = ("nodes", "zones", "mode", "adjacency", "lane_count", "0", "1", "2", "3", "8", "9",
         "-1", "-0", "99999999999999999999", "1e400", "0.5", "2.5", "nan", "inf", "-inf",
         "abc", "#")
# Entries use the ids of the fit's 9-zone data set, so that many files pass.
IDS = tuple("012345678")
SIZES = ("1.0", "2.5", "0.5")
LANES = ("0", "2", "4")


def entry(*pools):
    return st.tuples(*map(st.sampled_from, pools)).map(list)


def texts(headers, entries):
    """Files of one format: one of the header blocks, entry lines, and maybe
    one line of arbitrary words placed among them."""
    junk = st.lists(st.lists(st.sampled_from(WORDS), max_size=5), max_size=1)
    return st.builds(_assemble, st.sampled_from(headers), st.lists(entries, max_size=8), junk,
                     st.integers(0, 9))


def _assemble(header, entries, junk, at):
    lines = header + entries
    for words in junk:
        lines.insert(at % (len(lines) + 1), words)
    return "".join(" ".join(words) + "\n" for words in lines)


TEXT = st.one_of(
    texts(([], [["nodes", "9"]], [["#", "net"], ["nodes", "9"]]),
          st.one_of(entry(IDS, IDS), entry(IDS, IDS, SIZES))),
    texts(([["zones", "9"]], [["#"], ["zones", "9"]], []), entry(IDS, IDS, SIZES, LANES)),
    texts(([], [["zones", "9"]], [["zones", "9"], ["mode", "lane_count"]],
           [["mode", "boundary_length"]]), entry(IDS, IDS, SIZES)),
)

# Dataset rows: the fields of a good row, each maybe replaced by a value that
# is out of range, not a number, empty, quoted or carrying a comma.  Rows may
# be short or long; one line may hold bytes that are not UTF-8.
GOOD_FIELDS = ("0", "3.0", "9.9", "9.8", "3.1", "2.08", "1.74", "3.1", "Grid", "Industrial", "5")
FIELD_WORDS = ("1", "-1", "0", "-0", "2.5", "nan", "inf", "-inf", "1e400", "abc", "",
               "99999999999999999999", "Mixed", "Parkland", '"', '"a,b"', " 5 ")


def _row(changes, size):
    fields = list(GOOD_FIELDS)
    for at, word in changes:
        fields[at % len(fields)] = word
    return (fields + ["7"] * size)[:size]


ROWS = st.builds(_row, st.lists(st.tuples(st.integers(0, 10), st.sampled_from(FIELD_WORDS)),
                                max_size=2),
                 st.sampled_from((11, 11, 11, 10, 12, 1)))


def _csv(header, rows, junk, at):
    lines = [",".join(header)] + [",".join(r) for r in rows]
    data = "".join(line + "\n" for line in lines).encode()
    return data[:at] + junk + data[at:] if junk else data


CSV = st.builds(_csv, st.sampled_from((DATASET_COLUMNS, DATASET_COLUMNS[:-1],
                                       DATASET_COLUMNS + ("notes",))),
                st.lists(ROWS, max_size=6), st.sampled_from((b"", b"", b"\xff", b"\x00")),
                st.integers(0, 400))

SWITCHES = ("include_pattern", "include_land_use", "standardize", "offset_log_arterial_length",
            "include_theta", "include_phi")
VALUES = (0, -1, 2.5, float("inf"), float("nan"), "abc", None, True, [], {}, [1], ["abc"],
          {"mean": "abc"}, {"mean": 0.0, "variance": -1.0}, {"shape": 1.0, "rate": 0.0},
          {"intercept": "abc"}, {"intercept": 1.0})


def documents(base: dict):
    """JSON texts near ``base``: fields replaced, added or left out, the text
    cut short, or a top-level value that is not an object."""
    edited = st.tuples(st.dictionaries(st.sampled_from(sorted(base) + ["extra"]),
                                       st.sampled_from(VALUES), max_size=3),
                       st.sets(st.sampled_from(sorted(base)), max_size=2))
    text = edited.map(lambda e: json.dumps({k: v for k, v in {**base, **e[0]}.items()
                                            if k not in e[1]}))
    cut = text.flatmap(lambda t: st.integers(0, len(t) - 1).map(lambda k: t[:k]))
    return st.one_of(text, cut, st.sampled_from(VALUES).map(json.dumps))


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def inputs(runner, tmp_path_factory):
    """A 3 x 3 lattice data set, its topology, and one report fitted on them."""
    d = tmp_path_factory.mktemp("fuzz")
    data, topology, report = d / "zones.csv", d / "zones.topology", d / "report.json"
    exits_cleanly(runner, ["simulate", "--lattice", 3, "--out", data,
                           "--topology-out", topology])
    exits_cleanly(runner, ["fit", "--data", data, "--weights", topology,
                           "--burnin", 5, "--iters", 5, "--out", report])
    assert report.exists()
    return data, topology, report


def exits_cleanly(runner, args):
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exit_code in (0, 2, 3, 4), (result.output, result.exception)
    assert "Traceback" not in result.output
    return result


@pytest.mark.parametrize("reader", [read_edge_list, read_topology, read_weight_matrix])
@FUZZ
@given(text=TEXT)
def test_readers_return_or_reject_at_path(tmp_path, reader, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    try:
        reader(path)
    except ValidationError as exc:
        assert str(exc).startswith(f"{path}:")


@FUZZ
@given(text=TEXT)
def test_text_inputs_exit_cleanly(tmp_path, runner, inputs, text):
    data, _, _ = inputs
    path = tmp_path / "input.txt"
    path.write_text(text)
    exits_cleanly(runner, ["centrality", "--graph", path])
    exits_cleanly(runner, ["weights", "--topology", path])
    exits_cleanly(runner, ["fit", "--data", data, "--weights", path,
                           "--burnin", 5, "--iters", 5])


@FUZZ
@given(text=documents(ModelSpec().to_dict()))
@example(text=json.dumps({"include_phi": "no"}))
def test_spec_exits_cleanly(tmp_path, runner, inputs, text):
    data, topology, _ = inputs
    path = tmp_path / "spec.json"
    path.write_text(text)
    result = exits_cleanly(runner, ["fit", "--data", data, "--weights", topology,
                                    "--spec", path, "--burnin", 5, "--iters", 5])
    # a switch that is not true or false is a bad spec, whatever else is
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and any(not isinstance(doc.get(name, False), bool)
                                     for name in SWITCHES):
        assert result.exit_code == 2, result.output


@FUZZ
@given(text=documents(default_truth().to_dict()))
def test_truth_exits_cleanly(tmp_path, runner, text):
    path = tmp_path / "truth.json"
    path.write_text(text)
    exits_cleanly(runner, ["simulate", "--lattice", 3, "--truth", path,
                           "--out", tmp_path / "zones.csv"])


@FUZZ
@given(data=st.data())
def test_report_exits_cleanly(tmp_path, runner, inputs, data):
    _, _, report = inputs
    text = data.draw(documents(json.loads(report.read_text())))
    path = tmp_path / "other.json"
    path.write_text(text)
    exits_cleanly(runner, ["compare", report, path])


@FUZZ
@given(data=CSV)
def test_dataset_reader_returns_or_rejects_at_path(tmp_path, data):
    path = tmp_path / "zones.csv"
    path.write_bytes(data)
    try:
        loaded = load_dataset(path)
    except ValidationError as exc:
        assert str(exc).startswith(f"{path}:")
    else:
        assert all(err.startswith(f"{path}:") for err in loaded.errors)


@FUZZ
@given(data=CSV)
def test_dataset_exits_cleanly(tmp_path, runner, inputs, data):
    _, topology, _ = inputs
    path = tmp_path / "zones.csv"
    path.write_bytes(data)
    exits_cleanly(runner, ["summary", "--data", path])
    exits_cleanly(runner, ["fit", "--data", path, "--weights", topology,
                           "--burnin", 5, "--iters", 5])
