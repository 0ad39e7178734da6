"""Table 5 — query-result quality of OpineDB vs the baselines (Section 5.3).

For every (domain, objective option, difficulty) cell, a workload of random
conjunctive subjective queries is generated and executed with six methods:

* GZ12 (IR-based) — BM25 over concatenated entity reviews;
* ByPrice / ByRating — rank by price / aggregate rating;
* 1-Attribute / 2-Attribute — the best scraped sub-rating (or pair of
  sub-ratings) for the workload;
* OpineDB — the subjective query processor.

Quality is the paper's sat(Q, E) / sat-max(Q) NDCG-style metric over the
top-10 results, where sat(q, e) comes from the synthetic corpus's latent
ground truth.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.baselines.attribute_baseline import AttributeBaseline
from repro.baselines.ir_baseline import IrEntityRanker
from repro.core.processor import SubjectiveQueryProcessor
from repro.datasets.queries import SubjectiveQuery, generate_workload
from repro.experiments.common import (
    DomainSetup,
    ExperimentTable,
    mean_and_interval,
    prepare_domain,
    result_quality,
    train_learned_membership,
)

METHODS = ("GZ12 (IR-based)", "ByPrice", "ByRating", "1-Attribute", "2-Attribute", "OpineDB")
DIFFICULTIES = ("easy", "medium", "hard")


@dataclass
class QualityCell:
    """Quality of one method on one (option, difficulty) workload."""

    method: str
    option: str
    difficulty: str
    quality: float
    interval: float


@dataclass
class QualityExperimentResult:
    """All cells of the Table 5 experiment for one or both domains."""

    domain: str
    cells: list[QualityCell] = field(default_factory=list)

    def quality(self, method: str, option: str, difficulty: str) -> float:
        for cell in self.cells:
            if (cell.method, cell.option, cell.difficulty) == (method, option, difficulty):
                return cell.quality
        raise KeyError((method, option, difficulty))

    def as_table(self) -> ExperimentTable:
        options = sorted({cell.option for cell in self.cells})
        columns = ["Method"] + [
            f"{option}/{difficulty}" for option in options for difficulty in DIFFICULTIES
        ]
        table = ExperimentTable(
            title=f"Table 5 ({self.domain}): quality (NDCG@10) of the top-10 results",
            columns=columns,
        )
        for method in METHODS:
            row: list[object] = [method]
            for option in options:
                for difficulty in DIFFICULTIES:
                    row.append(round(self.quality(method, option, difficulty), 3))
            table.add_row(*row)
        return table


def _run_single_query(
    setup: DomainSetup,
    query: SubjectiveQuery,
    option: str,
    processor: SubjectiveQueryProcessor,
    ir: IrEntityRanker,
    ab: AttributeBaseline,
    top_k: int,
) -> dict[str, float]:
    candidates = setup.candidate_entities(option)
    predicates = list(query.predicates)

    def sat(predicate, entity) -> int:
        return setup.oracle(predicate, entity)

    def gain(ranking) -> float:
        return result_quality(ranking, predicates, candidates, sat, k=top_k)

    qualities: dict[str, float] = {}
    # OpineDB
    result = processor.execute(query.sql, top_k=top_k)
    qualities["OpineDB"] = gain(result.entity_ids)
    # IR baseline
    ir_ranking = [entity for entity, _score in ir.rank(
        [predicate.text for predicate in predicates], candidates=candidates, top_k=top_k
    )]
    qualities["GZ12 (IR-based)"] = gain(ir_ranking)
    # Attribute baselines
    qualities["ByPrice"] = gain(ab.by_price(candidates, setup.price_attribute, top_k))
    qualities["ByRating"] = gain(ab.by_rating(candidates, setup.rating_attribute, top_k))
    single_ranking, _attribute = ab.best_single_attribute(candidates, gain, top_k)
    qualities["1-Attribute"] = gain(single_ranking)
    pair_ranking, _pair = ab.best_attribute_pair(candidates, gain, top_k)
    qualities["2-Attribute"] = gain(pair_ranking)
    return qualities


def run_quality_experiment(
    domain: str = "hotels",
    setup: DomainSetup | None = None,
    queries_per_cell: int = 15,
    top_k: int = 10,
    num_entities: int = 40,
    reviews_per_entity: int = 20,
    seed: int = 0,
) -> QualityExperimentResult:
    """Run the Table 5 experiment for one domain.

    ``queries_per_cell`` is scaled down from the paper's 100 (×10 repeats) to
    keep laptop runtimes reasonable; pass a larger value for tighter
    confidence intervals.
    """
    setup = setup or prepare_domain(
        domain, num_entities=num_entities, reviews_per_entity=reviews_per_entity, seed=seed
    )
    # OpineDB's membership functions are logistic-regression models trained on
    # 1,000 labelled tuples (Sections 3.3 / 5.4.2).
    membership, _accuracy = train_learned_membership(setup, seed=seed)
    processor = SubjectiveQueryProcessor(setup.database, membership=membership)
    ir = IrEntityRanker(
        setup.database,
        embeddings=(setup.database.phrase_embedder.embeddings
                    if setup.database.phrase_embedder else None),
    )
    ab = AttributeBaseline(
        scraped=setup.scraped,
        objective={entity.entity_id: entity.objective for entity in setup.corpus.entities},
    )
    result = QualityExperimentResult(domain=domain)
    for option, conditions in setup.options.items():
        for difficulty in DIFFICULTIES:
            workload = generate_workload(
                setup.predicate_bank, option, conditions, difficulty,
                num_queries=queries_per_cell, domain=domain,
                # A digest, not hash(): str hashes vary with PYTHONHASHSEED.
                seed=seed + zlib.crc32(f"{option}|{difficulty}".encode()) % 10_000,
            )
            per_method: dict[str, list[float]] = {method: [] for method in METHODS}
            for query in workload:
                qualities = _run_single_query(
                    setup, query, option, processor, ir, ab, top_k
                )
                for method, value in qualities.items():
                    per_method[method].append(value)
            for method in METHODS:
                mean, interval = mean_and_interval(per_method[method])
                result.cells.append(
                    QualityCell(
                        method=method, option=option, difficulty=difficulty,
                        quality=mean, interval=interval,
                    )
                )
    return result


def format_quality_experiment(result: QualityExperimentResult) -> str:
    return result.as_table().format()


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    for domain_name in ("hotels", "restaurants"):
        print(format_quality_experiment(
            run_quality_experiment(domain_name, queries_per_cell=10)
        ))
        print()
