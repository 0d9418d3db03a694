"""End-to-end CLI checks against the bundled documents."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli
from mixoptic.cli import ACTIONS, OPTIONS

DATA = Path(__file__).resolve().parents[1] / "src" / "mixoptic" / "data"
HOME = str(DATA / "home.json")
MAIL = str(DATA / "mail.json")
IRIS = str(DATA / "iris.json")


def run_process(*args, stdin, **env):
    """Run the CLI in a fresh interpreter, with the stack a shell gives it
    and ``env`` added to the environment; its streams are read as UTF-8."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mixoptic.cli", *args], input=stdin,
        capture_output=True, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def test_preview_home_street():
    result = run_cli("preview", "--optic", "address.street", "--input", HOME)
    assert result.exit_code == 0
    assert result.stdout.strip() == '"221b Baker St"'


def test_set_home_street():
    result = run_cli("set", "--optic", "address.street", "--input", HOME,
                 "--arg", '"4 Marylebone Rd"')
    assert result.exit_code == 0
    assert result.stdout.strip() == '"4 Marylebone Rd, London, UK"'


def test_over_mail_cities():
    result = run_cli("over", "--optic", "each.address.city", "--input", MAIL,
                 "--arg", "uppercase")
    assert result.exit_code == 0
    assert json.loads(result.stdout) == [
        "43 Adlington Rd, WILMSLOW, United Kingdom",
        "26 Westcott Rd, PRINCETON, USA",
        "St James's Square, LONDON, United Kingdom",
    ]


def test_view_single_flower():
    result = run_cli("view", "--optic", "measure", "--input", "-",
                 stdin=_flower_json(5.0, 3.6, 1.4, 0.2, "Setosa"))
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {
        "sepalLength": 5.0, "sepalWidth": 3.6,
        "petalLength": 1.4, "petalWidth": 0.2,
    }


def test_preview_single_flower_prints_what_view_prints():
    flower = _flower_json(5.0, 3.6, 1.4, 0.2, "Setosa")
    viewed = run_cli("view", "--optic", "measure", stdin=flower)
    previewed = run_cli("preview", "--optic", "measure", stdin=flower)
    assert previewed == viewed and previewed.exit_code == 0


def test_classify_against_dataset():
    result = run_cli("classify", "--optic", "measure", "--input", IRIS,
                 "--arg", json.dumps({"sepalLength": 4.8, "sepalWidth": 3.2,
                                      "petalLength": 3.5, "petalWidth": 2.1}))
    assert result.exit_code == 0
    assert result.stdout.strip() == \
        "Iris Versicolor; Sepal (4.8, 3.2); Petal (3.5, 2.1)"


def test_aggregate_mean_over_dataset():
    result = run_cli("aggregate", "--optic", "measure.aggregate",
                 "--input", IRIS, "--arg", "mean")
    assert result.exit_code == 0
    assert result.stdout.strip() == \
        "Iris Versicolor; Sepal (5.843, 3.054); Petal (3.759, 1.199)"


def test_preview_miss_prints_null_and_succeeds():
    result = run_cli("preview", "--optic", "address", "--input", "-",
                 stdin='"not an address"')
    assert result.exit_code == 0
    assert result.stdout.strip() == "null"


def test_review_builds_through_prism():
    result = run_cli("review", "--optic", "address", "--arg", json.dumps({
        "street": "1 Elm Way", "city": "York", "country": "UK"}))
    assert result.exit_code == 0
    assert result.stdout.strip() == '"1 Elm Way, York, UK"'


def test_tolist_and_over_on_plain_documents():
    result = run_cli("tolist", "--optic", 'field("xs").each', "--input", "-",
                 stdin='{"xs": [1, 2, 3]}')
    assert result.exit_code == 0
    assert json.loads(result.stdout) == [1, 2, 3]

    result = run_cli("over", "--optic", "each", "--input", "-",
                 "--arg", "increment", stdin="[1, 2, 3]")
    assert result.exit_code == 0
    assert json.loads(result.stdout) == [2, 3, 4]


def test_runtime_error_exits_one():
    result = run_cli("view", "--optic", 'field("missing")', "--input", "-",
                 stdin='{"a": 1}')
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "error" in result.stderr


def test_usage_errors_exit_two():
    # malformed expression
    result = run_cli("view", "--optic", "a..b", "--input", "-", stdin="1")
    assert result.exit_code == 2
    assert result.stdout == ""

    # wrong kind for the action
    result = run_cli("view", "--optic", "address.street", "--input", HOME)
    assert result.exit_code == 2

    # malformed input document
    result = run_cli("view", "--optic", 'field("a")', "--input", "-",
                 stdin="{bad json")
    assert result.exit_code == 2

    # unknown over function
    result = run_cli("over", "--optic", "each", "--input", "-",
                 "--arg", "fliptwice", stdin="[1]")
    assert result.exit_code == 2


@pytest.mark.parametrize("action", ["set", "review", "classify"])
def test_a_malformed_arg_says_so(action):
    result = run_cli(action, "--optic", 'field("a")', "--input", IRIS,
                     "--arg", "{bad")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == ("error: --arg: Expecting property name enclosed "
                             "in double quotes (line 1, column 2)\n")


@pytest.mark.parametrize("document", ["{}", "[]", "not json"])
@pytest.mark.parametrize("action,arg,line", [
    ("aggregate", "mean", "cannot aggregate through a prism"),
    ("classify", "{}", "cannot classify through a prism"),
    ("view", None, "cannot view through a prism"),
])
def test_a_wrong_kind_is_usage_whatever_the_input(document, action, arg,
                                                  line):
    # admission is checked before the input is read
    args = () if arg is None else ("--arg", arg)
    result = run_cli(action, "--optic", "address", *args, stdin=document)
    assert (result.exit_code, result.stdout, result.stderr) == \
        (2, "", f"error: {line}\n")


@pytest.mark.parametrize("document", ['{"a": 1}', '"text"', "3"])
@pytest.mark.parametrize("action,optic,arg", [
    ("aggregate", "aggregate", "mean"),
    ("classify", "measure", json.dumps({
        "sepalLength": 1, "sepalWidth": 1, "petalLength": 1,
        "petalWidth": 1})),
])
def test_a_document_that_is_no_list_is_usage_where_a_list_is_read(
        document, action, optic, arg):
    result = run_cli(action, "--optic", optic, "--arg", arg, stdin=document)
    assert (result.exit_code, result.stdout, result.stderr) == \
        (2, "", f"error: {action} expects a list document\n")


@pytest.mark.parametrize("action,line", [
    ("set", "this action needs --arg"),
    ("review", "this action needs --arg"),
    ("classify", "this action needs --arg"),
    ("over", "over needs --arg with a function name"),
    ("aggregate", "aggregate needs --arg with a function name"),
])
def test_a_missing_arg_is_one_error_line(action, line):
    result = run_cli(action, "--optic", "each", "--input", IRIS)
    assert (result.exit_code, result.stdout, result.stderr) == \
        (2, "", f"error: {line}\n")


@pytest.mark.parametrize("action", ["over", "aggregate"])
def test_an_unknown_function_is_one_error_line(action):
    result = run_cli(action, "--optic", "each", "--input", IRIS,
                     "--arg", "fliptwice")
    assert (result.exit_code, result.stdout, result.stderr) == \
        (2, "", f"error: unknown function 'fliptwice' for {action}\n")


def test_defs_file_extends_registry(tmp_path):
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps({
        "radius": {"kind": "field", "key": "radius"},
        "circle": {"kind": "variant", "tag": "circle"},
        "items": {"kind": "each"},
    }))
    result = run_cli("preview", "--optic", "circle.radius",
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
    result = run_cli("aggregate", "--optic", "measure.aggregate", "--input", "-",
                 "--arg", "mean", stdin=json.dumps(flowers))
    assert result.exit_code == 0
    assert result.stdout.strip() == \
        "Iris Setosa; Sepal (5.0, 3.538); Petal (1.4, 0.2)"


def test_aggregate_mean_of_values_whose_sum_overflows():
    flowers = [json.loads(_flower_json(1e308, 3.6, 1.4, 0.2, "Setosa"))
               for _ in range(2)]
    result = run_cli("aggregate", "--optic", "measure.aggregate", "--input", "-",
                 "--arg", "mean", stdin=json.dumps(flowers))
    assert result.exit_code == 0
    assert result.stdout.strip() == \
        f"Iris Setosa; Sepal ({1e308:.1f}, 3.6); Petal (1.4, 0.2)"


def test_unknown_species_is_one_error_line():
    result = run_cli("view", "--optic", "measure", "--input", "-",
                 stdin=_flower_json(5.0, 3.6, 1.4, 0.2, "setosa"))
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: unknown species 'setosa'; expected one of "
        "'Setosa', 'Versicolor', 'Virginica'"
    ]


def test_an_overflowing_distance_is_one_error_line():
    result = run_process("classify", "--optic", "measure", "--input", IRIS,
                         "--arg", json.dumps({
                             "sepalLength": 1e200, "sepalWidth": 3.2,
                             "petalLength": 3.5, "petalWidth": 2.1}),
                         stdin=None)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: distance between measurements out of range"]


def _nested_list(depth):
    return "[" * depth + "1" + "]" * depth


def _nested_record(depth):
    return '{"a": ' * depth + "1" + "}" * depth


@pytest.mark.parametrize("action,optic,deep,out", [
    pytest.param("tolist", "each", _nested_list(600), _nested_list(600),
                 id="600"),
    pytest.param("tolist", "each", _nested_list(900), _nested_list(900),
                 id="900"),
    pytest.param("view", 'field("a")', _nested_record(600),
                 _nested_record(599), id="record-600"),
    pytest.param("view", 'field("a")', _nested_record(900),
                 _nested_record(899), id="record-900"),
])
def test_deep_document_round_trips(action, optic, deep, out):
    # the value conversions take one frame per level, as the json decoder
    # does, so a document it reads prints again. In-process, the test
    # runner's own frames would take from that depth, hence a fresh
    # interpreter.
    result = run_process(action, "--optic", optic, "--input", "-", stdin=deep)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == out + "\n"


@pytest.mark.parametrize("action,optic,deep", [
    pytest.param("tolist", "each", _nested_list(1000), id="1000"),
    pytest.param("tolist", "each", _nested_list(10_000), id="10000"),
    pytest.param("view", 'field("a")', _nested_record(10_000),
                 id="record-10000"),
])
def test_deep_document_is_one_error_line(action, optic, deep):
    # both depths are past Python's default recursion limit of 1,000, which
    # the json decoder or the conversions, one frame a level, run into;
    # 10,000 is far past it on any CPython.
    result = run_process(action, "--optic", optic, "--input", "-", stdin=deep)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: document nests too deeply"]


def test_wrong_kind_error_names_the_kind_with_its_article():
    result = run_cli("view", "--optic", "address.street", "--input", HOME)
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


@pytest.mark.parametrize("kind", [["each"], {"a": 1}],
                         ids=["list", "record"])
def test_defs_kind_of_no_name_is_a_usage_error(kind, tmp_path):
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps({"x": {"kind": kind}}))
    result = run_process("view", "--optic", "x", "--defs", str(defs),
                         "--input", "-", stdin="1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: bad definition for 'x'"]


def test_input_that_is_not_utf8_is_one_error_line(tmp_path):
    source = tmp_path / "doc.json"
    source.write_bytes(b'{"a": "\xff"}')
    result = run_cli("view", "--optic", 'field("a")', "--input", str(source))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: invalid UTF-8 at byte 7: invalid start byte"
    ]



@pytest.mark.parametrize("args,stdout", [
    pytest.param(["--arg", "-1.5e3"], '{"a": -1500}', id="negative-exponent"),
    pytest.param(["--arg=-1"], '{"a": -1}', id="equals"),
    pytest.param(["--arg", "1", "--arg", "2"], '{"a": 2}', id="last-wins"),
])
def test_an_option_takes_the_next_token_or_its_equals_value(args, stdout):
    result = run_process("set", '--optic=field("a")', *args,
                         stdin='{"a": 1}')
    assert result.returncode == 0, result.stderr
    assert result.stdout == stdout + "\n"


@pytest.mark.parametrize("args", [
    pytest.param(["view", "--opt", "each"], id="prefix"),
    pytest.param(["view", "--bogus", "x", "--optic", "each"], id="unknown"),
    pytest.param(["view"], id="missing-optic"),
    pytest.param(["show", "--optic", "each"], id="unknown-action"),
    pytest.param(["view", "extra", "--optic", "each"], id="extra"),
    pytest.param(["set", "--optic", "each", "--arg"], id="missing-value"),
])
def test_a_malformed_command_line_is_one_error_line(args):
    result = run_process(*args, stdin="[1]")
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_help_names_every_action_and_option():
    result = run_process("--help", stdin=None)
    assert result.returncode == 0
    assert result.stderr == ""
    for word in (*ACTIONS, *OPTIONS):
        assert word in result.stdout


@pytest.mark.parametrize("text,stdout", [
    pytest.param('{"a": "\u00e9"}', '"\u00e9"', id="e-acute"),
    # a lone surrogate is no UTF-8 text: it is written as its JSON escape
    pytest.param('{"a": "\\ud800"}', '"\\ud800"', id="lone-surrogate"),
])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_output_is_utf8_whatever_the_locale(text, stdout, source, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(text, encoding="utf-8")
    args = ["--input", str(doc)] if source == "file" else []
    result = run_process("view", "--optic", 'field("a")', *args,
                         stdin=None if source == "file" else text,
                         PYTHONIOENCODING="ascii")
    assert result.returncode == 0, result.stderr
    assert result.stdout == stdout + "\n"
