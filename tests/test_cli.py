"""End-to-end CLI checks against the bundled documents."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from mixoptic.cli import main

DATA = Path(__file__).resolve().parents[1] / "src" / "mixoptic" / "data"
HOME = str(DATA / "home.json")
MAIL = str(DATA / "mail.json")
IRIS = str(DATA / "iris.json")


def run(*args, stdin=None):
    return CliRunner().invoke(main, list(args), input=stdin)


def run_process(*args, stdin):
    """Run the CLI in a fresh interpreter, with the stack a shell gives it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mixoptic.cli", *args], input=stdin,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_preview_home_street():
    result = run("preview", "--optic", "address.street", "--input", HOME)
    assert result.exit_code == 0
    assert result.stdout.strip() == '"221b Baker St"'


def test_set_home_street():
    result = run("set", "--optic", "address.street", "--input", HOME,
                 "--arg", '"4 Marylebone Rd"')
    assert result.exit_code == 0
    assert result.stdout.strip() == '"4 Marylebone Rd, London, UK"'


def test_over_mail_cities():
    result = run("over", "--optic", "each.address.city", "--input", MAIL,
                 "--arg", "uppercase")
    assert result.exit_code == 0
    assert json.loads(result.stdout) == [
        "43 Adlington Rd, WILMSLOW, United Kingdom",
        "26 Westcott Rd, PRINCETON, USA",
        "St James's Square, LONDON, United Kingdom",
    ]


def test_view_single_flower():
    result = run("view", "--optic", "measure", "--input", "-",
                 stdin=_flower_json(5.0, 3.6, 1.4, 0.2, "Setosa"))
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {
        "sepalLength": 5.0, "sepalWidth": 3.6,
        "petalLength": 1.4, "petalWidth": 0.2,
    }


def test_classify_against_dataset():
    result = run("classify", "--optic", "measure", "--input", IRIS,
                 "--arg", json.dumps({"sepalLength": 4.8, "sepalWidth": 3.2,
                                      "petalLength": 3.5, "petalWidth": 2.1}))
    assert result.exit_code == 0
    assert result.stdout.strip() == \
        "Iris Versicolor; Sepal (4.8, 3.2); Petal (3.5, 2.1)"


def test_aggregate_mean_over_dataset():
    result = run("aggregate", "--optic", "measure.aggregate",
                 "--input", IRIS, "--arg", "mean")
    assert result.exit_code == 0
    assert result.stdout.strip() == \
        "Iris Versicolor; Sepal (5.843, 3.054); Petal (3.759, 1.199)"


def test_preview_miss_prints_null_and_succeeds():
    result = run("preview", "--optic", "address", "--input", "-",
                 stdin='"not an address"')
    assert result.exit_code == 0
    assert result.stdout.strip() == "null"


def test_review_builds_through_prism():
    result = run("review", "--optic", "address", "--arg", json.dumps({
        "street": "1 Elm Way", "city": "York", "country": "UK"}))
    assert result.exit_code == 0
    assert result.stdout.strip() == '"1 Elm Way, York, UK"'


def test_tolist_and_over_on_plain_documents():
    result = run("tolist", "--optic", 'field("xs").each', "--input", "-",
                 stdin='{"xs": [1, 2, 3]}')
    assert result.exit_code == 0
    assert json.loads(result.stdout) == [1, 2, 3]

    result = run("over", "--optic", "each", "--input", "-",
                 "--arg", "increment", stdin="[1, 2, 3]")
    assert result.exit_code == 0
    assert json.loads(result.stdout) == [2, 3, 4]


def test_runtime_error_exits_one():
    result = run("view", "--optic", 'field("missing")', "--input", "-",
                 stdin='{"a": 1}')
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "error" in result.stderr


def test_usage_errors_exit_two():
    # malformed expression
    result = run("view", "--optic", "a..b", "--input", "-", stdin="1")
    assert result.exit_code == 2
    assert result.stdout == ""

    # wrong kind for the action
    result = run("view", "--optic", "address.street", "--input", HOME)
    assert result.exit_code == 2

    # malformed input document
    result = run("view", "--optic", 'field("a")', "--input", "-",
                 stdin="{bad json")
    assert result.exit_code == 2

    # unknown over function
    result = run("over", "--optic", "each", "--input", "-",
                 "--arg", "fliptwice", stdin="[1]")
    assert result.exit_code == 2


def test_defs_file_extends_registry(tmp_path):
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps({
        "radius": {"kind": "field", "key": "radius"},
        "circle": {"kind": "variant", "tag": "circle"},
        "items": {"kind": "each"},
    }))
    result = run("preview", "--optic", "circle.radius",
                 "--defs", str(defs), "--input", "-",
                 stdin='{"@circle": {"radius": 2}}')
    assert result.exit_code == 0
    assert result.stdout.strip() == "2"


def _flower_json(sl, sw, pl, pw, species):
    return json.dumps({
        "measurements": {"sepalLength": sl, "sepalWidth": sw,
                         "petalLength": pl, "petalWidth": pw},
        "species": species,
    })


def test_aggregate_mean_rounds_exact_mean():
    # the exact mean sepal width is 3.5375; a naive float sum gives
    # 3.5374999999999996 and would print 3.537
    widths = [1.5, 2.0, 2.7, 3.1, 3.1, 7.8, 3.7, 4.4]
    flowers = [json.loads(_flower_json(5.0, w, 1.4, 0.2, "Setosa"))
               for w in widths]
    result = run("aggregate", "--optic", "measure.aggregate", "--input", "-",
                 "--arg", "mean", stdin=json.dumps(flowers))
    assert result.exit_code == 0
    assert result.stdout.strip() == \
        "Iris Setosa; Sepal (5.0, 3.538); Petal (1.4, 0.2)"


def test_aggregate_mean_of_values_whose_sum_overflows():
    flowers = [json.loads(_flower_json(1e308, 3.6, 1.4, 0.2, "Setosa"))
               for _ in range(2)]
    result = run("aggregate", "--optic", "measure.aggregate", "--input", "-",
                 "--arg", "mean", stdin=json.dumps(flowers))
    assert result.exit_code == 0
    assert result.stdout.strip() == \
        f"Iris Setosa; Sepal ({1e308:.1f}, 3.6); Petal (1.4, 0.2)"


def test_unknown_species_is_one_error_line():
    result = run("view", "--optic", "measure", "--input", "-",
                 stdin=_flower_json(5.0, 3.6, 1.4, 0.2, "setosa"))
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: unknown species 'setosa'; expected one of "
        "'Setosa', 'Versicolor', 'Virginica'"
    ]


def _nested_list(depth):
    return "[" * depth + "1" + "]" * depth


def _nested_record(depth):
    return '{"a": ' * depth + "1" + "}" * depth


@pytest.mark.parametrize("action,optic,deep", [
    pytest.param("tolist", "each", _nested_list(600), id="600"),
    pytest.param("tolist", "each", _nested_list(1000), id="1000"),
    pytest.param("view", 'field("a")', _nested_record(600), id="record-600"),
    pytest.param("view", 'field("a")', _nested_record(900), id="record-900"),
])
def test_deep_document_is_one_error_line(action, optic, deep):
    # lists: 600 levels overflow the value conversion, 1,000 the json
    # decoder; records parse to about 990 levels and overflow serialize.
    # In-process, the test runner's own frames would overflow the parser
    # before a record reached serialize, hence a fresh interpreter.
    result = run_process(action, "--optic", optic, "--input", "-", stdin=deep)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: document nests too deeply"]


def test_wrong_kind_error_names_the_kind_with_its_article():
    result = run("view", "--optic", "address.street", "--input", HOME)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: cannot view through an affine-traversal"
    ]


@pytest.mark.parametrize("action,optic,source,stdin,line", [
    pytest.param("view", ".".join(['field("a")'] * 5000), "-", '{"a": "x"}',
                 "error: expected a record with key 'a'", id="field-5000"),
    pytest.param("aggregate", ".".join(["aggregate"] * 1200), IRIS, None,
                 "error: measurements record needs number field "
                 "'sepalLength'", id="aggregate-1200"),
])
def test_long_chain_is_one_error_line(action, optic, source, stdin, line):
    # a chain is one flat tuple of segments, so the first segment that
    # fails reports its own error instead of the stack overflowing
    args = [action, "--optic", optic, "--input", source]
    if action == "aggregate":
        args += ["--arg", "mean"]
    result = run_process(*args, stdin=stdin)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [line]


def test_setter_fallback_is_one_warning_line():
    result = run_process("over", "--optic", 'aggregate.field("a")',
                         "--input", "-", "--arg", "uppercase",
                         stdin='{"a": "x"}')
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "warning: kaleidoscope and lens compose only as a setter",
        "error: measurements record needs number field 'sepalLength'",
    ]


@pytest.mark.parametrize("number,line", [
    pytest.param("9" * 309, "error: number out of range", id="int-309-digits"),
    pytest.param("9" * 4301, "error: number out of range",
                 id="int-4301-digits"),
    pytest.param("1e400", "error: number out of range", id="1e400"),
    pytest.param("NaN", "error: NaN is not a JSON number", id="NaN"),
    pytest.param("Infinity", "error: Infinity is not a JSON number",
                 id="Infinity"),
    pytest.param("-Infinity", "error: -Infinity is not a JSON number",
                 id="-Infinity"),
])
def test_number_a_float_cannot_hold_is_one_error_line(number, line):
    result = run_process("tolist", "--optic", "each", "--input", "-",
                         stdin=f"[1, {number}]")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [line]
