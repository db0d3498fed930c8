import ast
import json
from importlib import resources
from pathlib import Path

import pytest

from solbugsmith.evaluator import load_capabilities
from solbugsmith.pool import default_pool

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return Path(str(resources.files("solbugsmith") / "data" / "corpus"))


@pytest.fixture(scope="session")
def corpus_sources(corpus_dir) -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(corpus_dir.glob("*.sol"))}


@pytest.fixture(scope="session")
def tracer_targets() -> dict[str, tuple[str, str, tuple[str, ...]]]:
    """``_TARGETS`` of the benchmark's tracer: per span, the module that
    defines the function it times, the function's name, and the modules
    that import it, in each of which the tracer rebinds that name."""
    tracing = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["_TARGETS"])


@pytest.fixture(scope="session")
def egame() -> str:
    return (FIXTURES / "EGame.sol").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def throw_guards() -> str:
    return (FIXTURES / "ThrowGuards.sol").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def pool():
    return default_pool()


@pytest.fixture(scope="session")
def unbalancing_pool_text() -> str:
    """The bundled pool with its ``uint256 -> uint8`` rewrite replaced by
    one that leaves an unclosed ``(``. A replacement, not an addition: for
    equal spans the first pattern in pool order wins."""
    doc = json.loads((resources.files("solbugsmith") / "data"
                      / "default_pool.json").read_text(encoding="utf-8"))
    (rule,) = [t for t in doc["transforms"] if t["replace"] == "uint8"]
    rule["replace"] = "uint256 ("
    return json.dumps(doc)


@pytest.fixture(scope="session")
def capabilities():
    text = (resources.files("solbugsmith") / "data"
            / "capabilities.json").read_text(encoding="utf-8")
    return load_capabilities(text)
