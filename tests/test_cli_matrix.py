"""Every action × 16 expressions × the three sample documents, against the
recorded exit code, stdout digest and stderr of each cell.

``cli_matrix.json`` maps ``"ACTION EXPRESSION DOCUMENT"`` to
``[exit code, sha256 of stdout, stderr]``. A change that means to alter
what the CLI prints rewrites the file with
``PYTHONPATH=src python3 tests/test_cli_matrix.py --record`` and names
every changed cell in its change notes.
"""

import hashlib
import json
import sys
from pathlib import Path

from conftest import run_cli

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "mixoptic" / "data"
RECORD = HERE / "cli_matrix.json"

DOCUMENTS = ("home.json", "mail.json", "iris.json")
EXPRESSIONS = (
    "address", "address.street", "street", "city", "each",
    "each.address.city", "each.measure", 'each.field("species")',
    'each.field("measurements").field("sepalLength")', "each.each",
    'field("a").variant("t").each', "measure", "aggregate",
    "measure.aggregate", 'field("species")', 'variant("t")',
)
ARGS = {
    "view": (),
    "preview": (),
    "set": ("--arg", '"X"'),
    "over": ("--arg", "uppercase"),
    "review": ("--arg", '"X"'),
    "aggregate": ("--arg", "mean"),
    "classify": ("--arg", json.dumps({
        "sepalLength": 4.8, "sepalWidth": 3.2,
        "petalLength": 3.5, "petalWidth": 2.1})),
    "tolist": (),
}


def run_matrix() -> dict:
    cells = {}
    for action, arg in ARGS.items():
        for expression in EXPRESSIONS:
            for document in DOCUMENTS:
                result = run_cli(action, "--optic", expression,
                                 "--input", str(DATA / document), *arg)
                digest = hashlib.sha256(result.stdout.encode()).hexdigest()
                cells[f"{action} {expression} {document}"] = [
                    result.exit_code, digest, result.stderr]
    return cells


def test_every_cell_matches_the_record():
    expected = json.loads(RECORD.read_text(encoding="utf-8"))
    actual = run_matrix()
    assert len(actual) == 8 * 16 * 3
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert changed == [], [(key, expected[key], actual[key])
                           for key in changed]
    assert actual.keys() == expected.keys()


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    RECORD.write_text(json.dumps(run_matrix(), indent=1, ensure_ascii=False)
                      + "\n", encoding="utf-8")
