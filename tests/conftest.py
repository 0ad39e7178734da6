"""Shared fixtures: small corpora and a fully built subjective database.

The expensive fixtures are session-scoped so the construction pipeline runs
once per test session; tests must treat them as read-only.  Domain-setup
construction is shared with the benchmark harness through
:mod:`repro.testing`.
"""

from __future__ import annotations

import importlib.util
import signal
import threading

import pytest

from repro.datasets.hotels import generate_hotel_corpus, hotel_seed_sets
from repro.datasets.restaurants import generate_restaurant_corpus, restaurant_seed_sets
from repro.datasets.semeval import generate_absa_dataset
from repro.experiments.common import DomainSetup
from repro.extraction.tagger import PerceptronOpinionTagger
from repro.testing import build_domain_setup
from repro.text.embeddings import PhraseEmbedder, PpmiSvdEmbeddings
from repro.text.idf import DocumentFrequencies
from repro.text.tokenize import tokenize

# The 60 s hang guard of pyproject.toml is pytest-timeout's ``timeout`` ini
# key.  Where the plugin is missing (it is a dev extra) the key used to be
# ignored with a warning, i.e. the guard was off exactly in the suites that
# talk over sockets; this stand-in honours the key and the ``timeout`` marker.
if importlib.util.find_spec("pytest_timeout") is None:

    def pytest_addoption(parser) -> None:
        parser.addini("timeout", "per-test hang guard in seconds (0 disables it)", default="0")

    @pytest.fixture(autouse=True)
    def _hang_guard(request):
        marker = request.node.get_closest_marker("timeout")
        override = marker.args[0] if marker and marker.args else None
        seconds = float(request.config.getini("timeout") if override is None else override)
        if (
            seconds <= 0
            or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()
        ):
            yield
            return

        def on_alarm(signum, frame):
            pytest.fail(f"test exceeded the {seconds:g} s hang guard (tests/conftest.py)")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# A tiny hand-written corpus used by the text-substrate tests.
SMALL_CORPUS = [
    "the room was very clean and the staff was friendly",
    "the room was dirty and the carpet was stained",
    "spotless room with a great location near the station",
    "the bathroom was luxurious and modern with marble floors",
    "old bathroom with a broken faucet and a bad smell",
    "breakfast was delicious with fresh fruit and good coffee",
    "the breakfast was stale and the coffee was cold",
    "very quiet room with a comfortable bed",
    "noisy room facing the street with constant traffic noise",
    "friendly staff helped us with our luggage",
] * 4


@pytest.fixture(scope="session")
def small_embedder() -> PhraseEmbedder:
    embeddings = PpmiSvdEmbeddings(dimension=24, min_count=1).fit(SMALL_CORPUS)
    frequencies = DocumentFrequencies()
    frequencies.add_corpus([tokenize(text) for text in SMALL_CORPUS])
    return PhraseEmbedder(embeddings, frequencies)


@pytest.fixture(scope="session")
def hotel_corpus():
    return generate_hotel_corpus(num_entities=12, reviews_per_entity=8, seed=7)


@pytest.fixture(scope="session")
def restaurant_corpus():
    return generate_restaurant_corpus(num_entities=10, reviews_per_entity=6, seed=8)


@pytest.fixture(scope="session")
def hotel_seeds():
    return hotel_seed_sets()


@pytest.fixture(scope="session")
def restaurant_seeds():
    return restaurant_seed_sets()


@pytest.fixture(scope="session")
def small_tagger():
    dataset = generate_absa_dataset("hotel", 200, 40, seed=5)
    return PerceptronOpinionTagger(epochs=3, seed=5).fit(dataset.train)


@pytest.fixture(scope="session")
def hotel_setup(small_tagger) -> DomainSetup:
    """A small but fully built hotel domain (database + bank + baselines data)."""
    return build_domain_setup(
        "hotels", num_entities=16, reviews_per_entity=10, seed=3, tagger=small_tagger
    )


@pytest.fixture(scope="session")
def hotel_database(hotel_setup):
    return hotel_setup.database


@pytest.fixture(scope="session")
def restaurant_setup() -> DomainSetup:
    """A small but fully built restaurant domain (trains its own tagger)."""
    return build_domain_setup("restaurants", num_entities=12, reviews_per_entity=8, seed=4)


@pytest.fixture(scope="session")
def restaurant_database(restaurant_setup):
    return restaurant_setup.database
