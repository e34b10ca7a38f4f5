import pytest

from i2e_litmus import load_corpus
from i2e_litmus.models import build_model
from oracle import explore_complete


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_by_name(corpus):
    return {entry.name: entry for entry in corpus}


@pytest.fixture(scope="session")
def explored():
    """Session-wide cache of explorations, keyed by (test, model, order,
    seed), each under a 100,000-state budget that it must not run out of."""
    cache = {}

    def get(entry, model_id, order="bfs", seed=None):
        key = (entry.name, model_id, order, seed)
        if key not in cache:
            model = build_model(model_id, entry.test)
            cache[key] = explore_complete(model, order=order, seed=seed)
        return cache[key]

    return get
