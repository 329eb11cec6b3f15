import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from harness import compose_model, corpus_texts
from perfbench.factory import factory as factory_texts

from suploc.localization import localize_all
from suploc.omegasynth import (
    assemble_fomega,
    build_rabin_buchi,
    controllability_subset,
    existence_check,
    inf_closure,
    restrict_sup,
)
from suploc.safety import controlled_plant, sup_con_star


def _pipeline(plant, spec, maxspec, minimal) -> dict:
    """Synthesis up to SUPw; the existence check must pass."""
    sup = sup_con_star(plant, spec)
    closed = controlled_plant(plant, sup)
    prod = build_rabin_buchi(closed, maxspec)
    ctr = controllability_subset(prod, plant.alphabet)
    asup = restrict_sup(prod, ctr)
    infa = inf_closure(minimal, closed)
    ok, witness = existence_check(infa, asup)
    assert ok, witness
    supw = assemble_fomega(asup, ctr, minimal, existence_verified=True)
    return {
        "plant": plant,
        "spec": spec,
        "sup": sup,
        "closed": closed,
        "maxspec": maxspec,
        "minimal": minimal,
        "prod": prod,
        "ctr": ctr,
        "asup": asup,
        "infa": infa,
        "supw": supw,
    }


@pytest.fixture(scope="session")
def sf():
    """The full pipeline on the Small Factory corpus, computed once."""
    out = _pipeline(*compose_model(corpus_texts()))
    out["controllers"] = localize_all(out["plant"], out["sup"], out["closed"], out["supw"])
    return out


@pytest.fixture(scope="session")
def factory():
    """`factory(n)`: the pipeline up to SUPw on the benchmark's n-machine
    factory (`perfbench/factory.py`), built once per n.  At n=2 it is the
    corpus with a round-robin legal specification in place of the
    alternation tracker."""
    return lru_cache(maxsize=None)(lambda n: _pipeline(*compose_model(factory_texts(n))))


@pytest.fixture(scope="session")
def data_case():
    """`data_case(name)`: the pipeline on the admitted instance
    ``tests/data/<name>``, controllers included, built once per name."""
    def build(name):
        data = Path(__file__).parent / "data" / name
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(data.iterdir())
                 if p.suffix == ".aut" or p.name == "pipeline.cfg"}
        out = _pipeline(*compose_model(files))
        out["controllers"] = localize_all(out["plant"], out["sup"], out["closed"], out["supw"])
        return out
    return lru_cache(maxsize=None)(build)
