"""The ``cli`` workload: the ``mixoptic`` command as a user runs it.

One child process per invocation, one at a time. Every action runs on the
shipped samples and on generated documents of 2,000 records; one usage
error and one runtime error check the documented exit codes. One input
nested 1,000 levels deep, the same for every seed, ends today in a raw
``RecursionError`` traceback with exit 1 instead of an ``error:`` line
with exit 2; that invocation is counted as failed. The unit of work is
one invocation.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

from mixoptic.fixtures import registry

from common import KNOWN_FAULTS, Op, dump
from documents import (
    CENTRES, KEYS, address_book, aggregate_then_classify, flowers,
    measurements, nearest, plant_tie, postal_parts, read_city, write_city,
)
from chains import word

DATA = Path(__file__).resolve().parent.parent / "src" / "mixoptic" / "data"
RECORDS = 2000
DEEP = 1000
# The writes on the samples run twice a round, so the write median lies
# among them rather than between them and the costlier generated ones.
SAMPLE_WRITES = 2
ACTIONS = ("view", "preview", "set", "over", "review", "aggregate",
           "classify", "tolist")
READS = ("view", "preview", "tolist")


class CliFault(Exception):
    """The command let a traceback escape instead of an ``error:`` line."""


def invoke(action: str, *args: str):
    proc = subprocess.run(
        [sys.executable, "-m", "mixoptic.cli", action, *args],
        capture_output=True, text=True, timeout=120,
    )
    if "Traceback (most recent call last)" in proc.stderr:
        raise CliFault(proc.stderr.strip().splitlines()[-1])
    return proc.returncode, proc.stdout, proc.stderr


def functions() -> dict:
    return {f"cli.{action}": (lambda *a, action=action: invoke(action, *a))
            for action in ACTIONS}


def setup() -> dict:
    return {"registry": registry()}


# ---------------------------------------------------------------------------
# Oracles for the command's output.


def _fmt(x: float) -> str:
    """Three decimals, trailing zeros dropped, at least one decimal."""
    s = f"{x:.3f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def render_flower(flower: dict) -> str:
    m = flower["measurements"]
    sl, sw, pl, pw = (float(m[k]) for k in KEYS)
    return (f"Iris {flower['species']}; Sepal ({_fmt(sl)}, {_fmt(sw)}); "
            f"Petal ({_fmt(pl)}, {_fmt(pw)})")


def ok(stdout: str):
    return (0, stdout + "\n")


def prepare(seed: int, work: Path) -> dict:
    """Write the generated documents into ``work`` and list the
    invocations of a round, each with the (exit code, stdout) pairs it
    may give."""
    r = random.Random(seed)
    people = address_book(r, RECORDS)
    owner = f"{word(r).title()} {word(r).title()}"
    postal = f"{r.randrange(1, 999)} {word(r).title()} St, London, UK"
    book = {"meta": {"owner": owner, "postal": postal, "count": RECORDS},
            "people": people}
    training = flowers(r, RECORDS)
    q_gen = plant_tie(r, training)
    deep = "[" * DEEP + "1" + "]" * DEEP
    files = {"book": work / "book.json", "flowers": work / "flowers.json",
             "deep": work / "deep.json"}
    files["book"].write_text(json.dumps(book))
    files["flowers"].write_text(json.dumps(training))
    files["deep"].write_text(deep)

    home = json.loads((DATA / "home.json").read_text())
    mail = json.loads((DATA / "mail.json").read_text())
    iris = json.loads((DATA / "iris.json").read_text())
    street = f"{r.randrange(1, 999)} {word(r).title()} Rd"
    new_owner = f"{word(r).title()} {word(r).title()}"
    review_arg = {"street": street, "city": word(r).title(), "country": "UK"}
    q_iris = measurements(r, r.choice(sorted(CENTRES)))
    h_street, h_city, h_country = postal_parts(home)
    people_city = 'field("people").each.field("address").city'
    owner_optic = 'field("meta").field("owner")'
    home_file = str(DATA / "home.json")
    mail_file = str(DATA / "mail.json")
    iris_file = str(DATA / "iris.json")
    book_file, flower_file = str(files["book"]), str(files["flowers"])

    sample_reads = [
        ("preview", ["--optic", "address.street", "--input", home_file],
         ok(dump(h_street))),
        ("tolist", ["--optic", "each.address.city", "--input", mail_file],
         ok(dump([postal_parts(m)[1] for m in mail]))),
    ]
    review_call = ("review", ["--optic", "address",
                              "--arg", json.dumps(review_arg)],
                   ok(dump(", ".join(review_arg.values()))))
    sample_writes = [
        ("over", ["--optic", "each.address.city", "--input", mail_file,
                  "--arg", "uppercase"],
         ok(dump([", ".join((s, c.upper(), k))
                  for s, c, k in map(postal_parts, mail)]))),
        ("set", ["--optic", "address.street", "--input", home_file,
                 "--arg", json.dumps(street)],
         ok(dump(f"{street}, {h_city}, {h_country}"))),
        review_call,
        ("classify", ["--optic", "measure", "--input", iris_file,
                      "--arg", json.dumps(q_iris)],
         ok(render_flower(nearest(iris, q_iris)))),
        ("aggregate", ["--optic", "measure.aggregate", "--input", iris_file,
                       "--arg", "mean"],
         ok(render_flower(aggregate_then_classify(iris, statistics.fmean)))),
    ]
    generated = [
        ("view", ["--optic", owner_optic, "--input", book_file], ok(dump(owner))),
        ("preview", ["--optic", 'field("meta").field("postal").address.street',
                     "--input", book_file], ok(dump(postal_parts(postal)[0]))),
        ("tolist", ["--optic", people_city, "--input", book_file],
         ok(dump(read_city(people)))),
        ("over", ["--optic", people_city, "--input", book_file,
                  "--arg", "uppercase"],
         ok(dump({**book, "people": write_city(people)}))),
        ("set", ["--optic", owner_optic, "--input", book_file,
                 "--arg", json.dumps(new_owner)],
         ok(dump({**book, "meta": {**book["meta"], "owner": new_owner}}))),
        ("classify", ["--optic", "measure", "--input", flower_file,
                      "--arg", json.dumps(q_gen)],
         ok(render_flower(nearest(training, q_gen)))),
        # ``mean`` is left out here: its naive sum can print a third
        # decimal one below the exact mean's (see CHANGES.md)
        ("aggregate", ["--optic", "measure.aggregate", "--input", flower_file,
                       "--arg", "maximum"],
         ok(render_flower(aggregate_then_classify(training, max)))),
    ]
    documented_errors = [  # a usage error exits 2, a runtime error 1
        ("view", ["--optic", 'field("people").each', "--input", book_file],
         (2, "")),
        ("over", ["--optic", people_city, "--input", book_file,
                  "--arg", "increment"], (1, "")),
    ]
    # 1,000 levels deep: the list itself, or a clean usage error
    deep_call = {"name": "deep.tolist", "action": "tolist",
                 "args": ["--optic", "each", "--input", str(files["deep"])],
                 "accepted": [ok(deep), (2, "")]}
    calls = (sample_reads + sample_writes * SAMPLE_WRITES + generated
             + documented_errors)
    listed = [{"name": f"{i}.{action}", "action": action, "args": args,
               "accepted": [expected]}
              for i, (action, args, expected) in enumerate(calls)]
    # one call per action for the traced run: review needs no document
    return {"calls": listed + [deep_call],
            "per_action": [c[:2] for c in generated + [review_call]]}


def _matches(result, expected) -> bool:
    code, stdout, stderr = result
    want_code, want_out = expected
    if code != want_code or stdout != want_out:
        return False
    if code == 0:
        return True
    lines = stderr.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


def ops(context: dict, inputs: dict, L) -> list:
    out = []
    for call in inputs["calls"]:
        action = call["action"]
        out.append(Op(
            call["name"], "read" if action in READS else "write", 1,
            lambda fn=getattr(L, action), args=call["args"]: fn(*args),
            lambda res, accepted=call["accepted"]:
                any(_matches(res, e) for e in accepted),
            known_fault=call["name"] in KNOWN_FAULTS["cli"]))
    return out
