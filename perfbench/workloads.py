"""Deterministic workload inputs derived from the bundled corpus.

Every workload is one directory of generated ``.sol`` files plus, for each
generated file, the bundled originals it was made from. The seed only
renames and reorders; it never changes how much work a file holds, so
run-to-run spread reflects the program and the host rather than the inputs.

* ``bundled``: the 12 bundled contracts as shipped.
* ``merged``: the same contracts flattened into one file, in seeded order,
  each contract renamed with a seeded suffix.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("bundled", "merged")

_CONTRACT = re.compile(r"\bcontract\s+([A-Za-z_$][A-Za-z0-9_$]*)")
_PRAGMA = re.compile(r"^pragma [^\n]*;\n", re.MULTILINE)


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload and where each file came from."""

    name: str
    corpus: Path
    # generated file name -> bundled originals whose content it holds
    origins: dict[str, tuple[str, ...]]


def bundled_sources(corpus: Path) -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(corpus.glob("*.sol"))}


def rename_contracts(source: str, rng: random.Random) -> str:
    """Give every contract declared in ``source`` a seeded suffix."""
    names = _CONTRACT.findall(source)
    for name in names:
        suffix = f"{rng.getrandbits(24):06x}"
        source = re.sub(rf"\b{re.escape(name)}\b", f"{name}_{suffix}", source)
    return source


def merge_sources(sources: dict[str, str], rng: random.Random) -> str:
    """Flatten several files into one: a single pragma, then each body."""
    pragmas = {m.group(0) for text in sources.values()
               for m in _PRAGMA.finditer(text)}
    if len(pragmas) != 1:
        raise ValueError(f"expected one shared pragma, found {sorted(pragmas)}")
    order = sorted(sources)
    rng.shuffle(order)
    bodies = [rename_contracts(_PRAGMA.sub("", sources[name]), rng).strip("\n")
              for name in order]
    return pragmas.pop() + "\n" + "\n\n".join(bodies) + "\n"


def build(name: str, seed: int, corpus: Path, work: Path,
          only: tuple[str, ...] | None = None) -> Workload:
    """Write the inputs of workload ``name`` to ``work``.

    ``only`` restricts the bundled corpus to the named files (the harness
    self-test uses a two-contract slice).
    """
    sources = bundled_sources(corpus)
    if only is not None:
        sources = {n: sources[n] for n in only}
    if name == "bundled":
        files = sources
        origins = {n: (n,) for n in sources}
    elif name == "merged":
        rng = random.Random(f"{name}|{seed}")
        files = {"Merged.sol": merge_sources(sources, rng)}
        origins = {"Merged.sol": tuple(sources)}
    else:
        raise ValueError(f"unknown workload: {name!r}")
    work.mkdir(parents=True)
    for file_name, text in files.items():
        (work / file_name).write_text(text, encoding="utf-8")
    return Workload(name, work, origins)
