"""Malformed inputs through ``main()``: a randomly mutated pool,
capabilities file, ``--confirmed`` file, bug log, report, truth file or
command line, run against a one-contract campaign. Whatever the mutation,
no exception escapes, the exit code is 0, 1 or 2, and a usage or
configuration error (exit 1) is one line on stderr."""

import contextlib
import io
import json
import os
import shutil
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solbugsmith.cli import main
from solbugsmith.model import BugType

TYPES = [bug_type.value for bug_type in BugType]
WORDS = TYPES + ["Slither", "Oyente", "Miscellaneous", "guardedSendRevert",
                 "commentOutStatement", "SimpleStatement", "FunctionDefinition",
                 "uint a{N} = 1;", "{N}", "x.send(1)", "", " ", "\ud800",
                 "a/b", "\n", "PiggyBank.Reentrancy.sol"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**12, 10**12)
    | st.floats() | st.sampled_from(WORDS) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=4), inner,
                      max_size=3),
    max_leaves=6)

# flag values that stay relative to the working directory
ARG_VALUES = ["-1", "0", "1", "2", "0.5", "1.5", "-0.5", "nan", "inf", "1e9",
              "9" * 30, "x", "", "TOD", "TOD,", ",", "Reentrancy,TxOrigin",
              "--seed", "--out", "--help", "--pool", "--bug-types"]


@pytest.fixture(scope="module")
def campaign(tmp_path_factory, corpus_dir):
    """The inputs of every command: one contract, its Reentrancy and
    TxOrigin injections, oracle reports with and without truth files, the
    bundled pool and capabilities, and a ``--confirmed`` file."""
    root = tmp_path_factory.mktemp("campaign")
    (root / "corpus").mkdir()
    shutil.copy(corpus_dir / "PiggyBank.sol", root / "corpus")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["inject", "--corpus", str(root / "corpus"),
                     "--out", str(root / "buggy"),
                     "--bug-types", "Reentrancy,TxOrigin"]) == 0
        assert main(["oracle", "--buglogs", str(root / "buggy"),
                     "--out", str(root / "reports"), "--miss-rate", "0.3",
                     "--mistype-rate", "0.2", "--extra-per-file", "3",
                     "--seed", "5"]) == 0
    (root / "untruthed").mkdir()
    for path in (root / "reports").glob("*.report.json"):
        shutil.copy(path, root / "untruthed")
    data = resources.files("solbugsmith") / "data"
    for name in ("default_pool.json", "capabilities.json"):
        (root / name).write_text((data / name).read_text(encoding="utf-8"),
                                 encoding="utf-8")
    (root / "confirmed.json").write_text(
        '{"Slither": {"Reentrancy": 0}, "Oyente": {"TxOrigin": 1}}',
        encoding="utf-8")
    return root


EVALUATE = ["evaluate", "--buglogs", "buggy", "--reports", "reports",
            "--out", "scored", "--seed", "3"]
ORACLE = ["oracle", "--buglogs", "buggy", "--out", "out",
          "--extra-per-file", "2", "--seed", "4"]

# what to mutate -> the files it may pick, and the commands that read them
TARGETS = {
    "pool": (["default_pool.json"], [
        ["inject", "--corpus", "corpus", "--out", "out",
         "--pool", "default_pool.json", "--bug-types", "{type}"],
        ["locate", "--corpus", "corpus", "--pool", "default_pool.json"]]),
    "capabilities": (["capabilities.json"], [
        ORACLE + ["--capabilities", "capabilities.json"],
        EVALUATE + ["--capabilities", "capabilities.json"]]),
    "confirmed": (["confirmed.json"], [
        ["evaluate", "--buglogs", "buggy", "--reports", "untruthed",
         "--confirmed", "confirmed.json"],
        EVALUATE + ["--confirmed", "confirmed.json"]]),
    "buglog": (["buggy/PiggyBank.Reentrancy.buglog.json",
                "buggy/PiggyBank.TxOrigin.buglog.json"], [ORACLE, EVALUATE]),
    "report": (["reports/Slither.report.json", "reports/Oyente.report.json"],
               [EVALUATE]),
    "truth": (["reports/Slither.truth.json", "reports/Oyente.truth.json"],
              [EVALUATE]),
}


def _paths(doc, here=()):
    yield here
    children = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, here + (key,))


def _mutate_json(data, text: str) -> str:
    box = [json.loads(text)]  # so that the document itself has a holder
    path = data.draw(st.sampled_from(list(_paths(box))[1:]))
    *parents, last = path
    holder = box
    for key in parents:
        holder = holder[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "delete" and holder is not box:
        del holder[last]
    elif action == "add" and isinstance(holder[last], dict):
        holder[last][data.draw(st.sampled_from(WORDS))] = \
            data.draw(json_values)
    else:
        holder[last] = data.draw(json_values)
    return json.dumps(box[0])


def _mutate_bytes(data, raw: bytes) -> bytes:
    cut = data.draw(st.integers(0, len(raw)))
    if data.draw(st.booleans()):
        return raw[:cut]  # truncated
    return raw[:cut] + data.draw(st.sampled_from(
        [b"\xff", b"\x00", b"}", b"]", b",", b'"', b"\\u"])) + raw[cut:]


def _mutate_argv(data, argv: list[str]) -> list[str]:
    argv = list(argv)
    at = data.draw(st.integers(1, len(argv)))
    action = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    value = data.draw(st.sampled_from(ARG_VALUES) | st.text(
        alphabet="abcTOD019,.-_ ", max_size=6))
    if action == "replace" and at < len(argv):
        argv[at] = value
    elif action == "delete" and at < len(argv):
        del argv[at]
    else:
        argv.insert(at, value)
    return argv


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse: a bad flag, or --help
            code = exit_.code
    return code, err.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_no_input_escapes_the_exit_codes(campaign, data):
    target = data.draw(st.sampled_from(sorted(TARGETS) + ["flags"]))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(campaign, work, dirs_exist_ok=True)
        if target == "flags":
            commands = [cmd for _, cmds in TARGETS.values() for cmd in cmds]
            argv = _mutate_argv(data, data.draw(st.sampled_from(commands)))
        else:
            names, commands = TARGETS[target]
            path = work / data.draw(st.sampled_from(names))
            if data.draw(st.integers(0, 4)):
                path.write_text(
                    _mutate_json(data, path.read_text(encoding="utf-8")),
                    encoding="utf-8")
            else:
                path.write_bytes(_mutate_bytes(data, path.read_bytes()))
            argv = data.draw(st.sampled_from(commands))
        argv = [arg.format(type=data.draw(st.sampled_from(TYPES)))
                for arg in argv]
        cwd = os.getcwd()
        os.chdir(work)
        try:
            code, err = _run(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert len(err.strip().splitlines()) == 1, (argv, err)
