"""Shared fixture helpers for the test suite and the benchmark harness.

``tests/conftest.py`` and ``benchmarks/conftest.py`` both need fully built
domain setups (synthetic corpus + subjective database) at different scales;
this module holds the one implementation of the scale knobs and the setup
construction so the two conftests stay thin wrappers.  It also hosts the
cluster **fault-injection harness** (:class:`ClusterFaultInjector`) that
the fault suites drive kill-node / drop-connection / delay scenarios with,
and the differential suites' one result oracle
(:func:`assert_identical_results`, driven per engine by
:func:`assert_engines_agree`).

Scale knobs (benchmark defaults) can be overridden through environment
variables:

* ``REPRO_BENCH_ENTITIES`` (default 60) — entities per domain;
* ``REPRO_BENCH_REVIEWS``  (default 18) — mean reviews per entity;
* ``REPRO_BENCH_QUERIES``  (default 10) — queries per workload cell.
"""

from __future__ import annotations

import os
import signal
import socket
import time

import numpy as np

from repro.core.attributes import ObjectiveAttribute, SubjectiveAttribute, SubjectiveSchema
from repro.core.database import ReviewRecord, SubjectiveDatabase
from repro.core.markers import Marker, MarkerSummary
from repro.engine.types import ColumnType
from repro.experiments.common import DomainSetup, prepare_domain
from repro.extraction.tagger import OpinionTagger
from repro.serving import SubjectiveQueryEngine


def env_int(name: str, default: int) -> int:
    """An integer environment knob with a default."""
    return int(os.environ.get(name, str(default)))


def bench_scale() -> tuple[int, int, int]:
    """(entities, reviews per entity, queries per cell) for benchmark runs."""
    return (
        env_int("REPRO_BENCH_ENTITIES", 60),
        env_int("REPRO_BENCH_REVIEWS", 18),
        env_int("REPRO_BENCH_QUERIES", 10),
    )


def build_domain_setup(
    domain: str,
    num_entities: int,
    reviews_per_entity: int,
    seed: int,
    num_markers: int = 4,
    tagger: OpinionTagger | None = None,
) -> DomainSetup:
    """One fully built domain setup (corpus, database, banks, oracle)."""
    return prepare_domain(
        domain,
        num_entities=num_entities,
        reviews_per_entity=reviews_per_entity,
        seed=seed,
        num_markers=num_markers,
        tagger=tagger,
    )


def print_result(text: str) -> None:
    """Print a formatted experiment table under pytest/benchmark output."""
    print("\n" + text + "\n")


def assert_identical_results(expected, actual, context: str = "") -> None:
    """Exact equality of two query results: ids, scores, degrees, rows.

    The one result oracle of the differential suites: every engine must
    return what the serial processor returns, bit for bit.
    """
    assert actual.entity_ids == expected.entity_ids, context
    for exp, act in zip(expected.entities, actual.entities):
        assert act.entity_id == exp.entity_id, context
        assert act.score == exp.score, context
        assert act.predicate_degrees == exp.predicate_degrees, context
        assert act.row == exp.row, context


def assert_engines_agree(database, make_engine, sqls) -> None:
    """``make_engine(database)`` answers every SQL as the serial engine does.

    Each query runs cold and then warm (fully cached) on the engine under
    test, and both answers must equal the serial
    :class:`~repro.serving.SubjectiveQueryEngine`'s under
    :func:`assert_identical_results`.  The engine is closed afterwards.
    """
    baseline = SubjectiveQueryEngine(database=database)
    engine = make_engine(database)
    try:
        for sql in sqls:
            expected = baseline.execute(sql)
            assert_identical_results(expected, engine.execute(sql), context=repr(sql))
            assert_identical_results(expected, engine.execute(sql), context=f"warm {sql!r}")
    finally:
        engine.close()


def corrupt_frame(payload: bytes, position: int, flip: int = 0x01) -> bytes:
    """``payload`` with one byte XOR-flipped — the canonical corruption probe.

    ``flip`` must be non-zero (a zero XOR is a no-op, which would silently
    turn a corruption test into a pass-through) and ``position`` indexes
    into the payload, negative indices included.
    """
    if not payload:
        raise ValueError("cannot corrupt an empty payload")
    if not 0 < flip < 256:
        raise ValueError(f"flip must be a non-zero byte value, got {flip}")
    mutated = bytearray(payload)
    mutated[position] ^= flip
    return bytes(mutated)


class ClusterFaultInjector:
    """Deterministic fault injection against one managed cluster fleet.

    Wraps a :class:`~repro.serving.cluster.ClusterShardStore` (or any
    object exposing its ``processes`` / ``channels`` lists) and turns the
    faults the recovery machinery must survive into one-line test calls:

    * :meth:`kill_node` — SIGKILL the node process (a crashed machine);
    * :meth:`drop_connection` — close the coordinator's socket to one
      node without touching the process (a network partition the node
      survives);
    * :meth:`pause_node` / :meth:`resume_node` — SIGSTOP / SIGCONT the
      process (a stalled node: accepts connections, answers nothing);
    * :func:`corrupt_frame` (module-level) — flip one byte of a payload.

    Only managed fleets can receive process-level faults; the injector
    raises rather than signal a process it cannot see.  Every injector is
    synchronous and deterministic — no background threads, no sleeps
    hidden inside — so tests control exactly when the fault lands
    relative to the request flow.
    """

    def __init__(self, store: object) -> None:
        self.store = store
        self._paused: set[int] = set()

    def _process(self, index: int):
        processes = getattr(self.store, "processes", None)
        if not processes or processes[index] is None:
            raise ValueError(
                f"node {index} has no managed process (external fleet?); "
                "process-level faults need a managed cluster"
            )
        return processes[index]

    def kill_node(self, index: int, wait: bool = True, timeout: float = 10.0) -> int:
        """SIGKILL node ``index``; returns the dead pid.

        With ``wait`` (the default) the call blocks until the process is
        reaped, so the node is provably gone — not merely signalled —
        when the test proceeds to the next request.
        """
        process = self._process(index)
        os.kill(process.pid, signal.SIGKILL)
        if wait:
            process.join(timeout=timeout)
            if process.is_alive():
                raise TimeoutError(f"node {index} (pid {process.pid}) survived SIGKILL")
        return process.pid

    def drop_connection(self, index: int) -> bool:
        """Sever the coordinator's TCP connection to node ``index``.

        The node process stays alive and listening; only the established
        socket dies, exactly like a mid-flight network failure.  Returns
        whether there was a live connection to sever.  The socket is shut
        down, not closed — its descriptor stays valid for the
        coordinator's select pump, which observes EOF and handles the loss
        through its ordinary crash path.
        """
        channel = self.store.channels[index]
        if channel is None or channel.sock is None:
            return False
        try:
            channel.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        return True

    def pause_node(self, index: int) -> None:
        """SIGSTOP node ``index``: alive and connected, but answering nothing."""
        process = self._process(index)
        os.kill(process.pid, signal.SIGSTOP)
        self._paused.add(index)

    def resume_node(self, index: int) -> None:
        """SIGCONT a paused node; it drains its backlog and answers again."""
        process = self._process(index)
        os.kill(process.pid, signal.SIGCONT)
        self._paused.discard(index)

    def delay_node(self, index: int, seconds: float) -> None:
        """Stall node ``index`` for ``seconds`` (SIGSTOP, sleep, SIGCONT).

        A synchronous convenience over :meth:`pause_node` /
        :meth:`resume_node` for tests that only need "the node was slow",
        not precise control of what happens while it is stopped.
        """
        self.pause_node(index)
        try:
            time.sleep(seconds)
        finally:
            self.resume_node(index)

    def restore(self) -> None:
        """Resume every still-paused node (teardown safety net)."""
        for index in list(self._paused):
            try:
                self.resume_node(index)
            except (ValueError, OSError):
                self._paused.discard(index)


def build_synthetic_columnar_database(
    num_entities: int = 800,
    markers_per_attribute: int = 16,
    dimension: int = 48,
    seed: int = 0,
) -> SubjectiveDatabase:
    """A large synthetic database with directly constructed marker summaries.

    The full extraction pipeline is too slow to build the ≥800-entity
    domains the scale-out benchmarks need, and those benchmarks only
    exercise serving-time scoring: what matters is a database with fitted
    text models and one marker summary per (entity, attribute).  Summaries
    are drawn from a seeded RNG; marker names double as interpretable query
    predicates (each is registered as its own linguistic variation, so the
    word2vec method resolves it with similarity 1.0).
    """
    rng = np.random.default_rng(seed)
    vocab = [f"word{index:03d}" for index in range(max(120, 3 * markers_per_attribute))]
    attributes = []
    marker_names: dict[str, list[str]] = {}
    for position, name in enumerate(("quality", "service")):
        names = vocab[position * markers_per_attribute : (position + 1) * markers_per_attribute]
        marker_names[name] = names
        attribute = SubjectiveAttribute(
            name=name,
            markers=[
                Marker(marker, index, 1.0 - 2.0 * index / (markers_per_attribute - 1))
                for index, marker in enumerate(names)
            ],
        )
        attribute.domain.add_many(names)
        attributes.append(attribute)
    schema = SubjectiveSchema(
        name="synthetic",
        entity_key="eid",
        objective_attributes=[
            ObjectiveAttribute("city", ColumnType.TEXT),
            ObjectiveAttribute("price", ColumnType.FLOAT),
        ],
        subjective_attributes=attributes,
    )
    database = SubjectiveDatabase(schema, embedding_dimension=dimension)
    review_id = 0
    cities = ("london", "paris", "rome")
    for position in range(num_entities):
        entity_id = f"e{position:05d}"
        database.add_entity(
            entity_id,
            {"city": cities[position % 3], "price": float(50 + position % 200)},
        )
        for _ in range(2):
            words = rng.choice(vocab, size=12)
            database.add_review(ReviewRecord(review_id, entity_id, " ".join(words)))
            review_id += 1
        for attribute in attributes:
            summary = MarkerSummary(attribute.name, list(attribute.markers))
            for _ in range(int(rng.integers(3, 7))):
                summary.add_phrase(
                    str(rng.choice(marker_names[attribute.name])),
                    sentiment=float(rng.uniform(-1.0, 1.0)),
                )
            summary.add_unmatched(float(rng.integers(0, 3)))
            database.store_summary(entity_id, summary)
    for attribute in attributes:
        for name in marker_names[attribute.name]:
            database.set_variation_marker(attribute.name, name, name)
    database.fit_text_models()
    return database
