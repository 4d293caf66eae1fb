"""Cross-engine correctness for the application benchmarks (K-means, NB)."""

import math

import pytest

from repro.bigdatabench import generate_kmeans_vectors
from repro.common import WorkloadError
from repro.workloads import (
    RunParams,
    generate_labeled_documents,
    initial_centroids,
    kmeans_agree,
    kmeans_reference,
    run_workload,
    train_reference,
)


def run_kmeans(engine, vectors, k, max_iterations=10, seed=0):
    return run_workload(
        "kmeans", engine, vectors,
        RunParams(k=k, max_iterations=max_iterations, seed=seed),
    ).output


def run_naive_bayes(engine, documents):
    return run_workload("naive_bayes", engine, documents).output


@pytest.fixture(scope="module")
def vectors_and_labels():
    return generate_kmeans_vectors(60, seed=21)


class TestKMeansReference:
    def test_converges(self, vectors_and_labels):
        vectors, _ = vectors_and_labels
        result = kmeans_reference(vectors, k=5, max_iterations=20, seed=3)
        assert result.converged
        assert len(result.centroids) == 5

    def test_clusters_align_with_categories(self, vectors_and_labels):
        """With separable seed models, clustering should mostly match labels."""
        vectors, labels = vectors_and_labels
        result = kmeans_reference(vectors, k=5, max_iterations=20, seed=3)
        assignments = [result.assign(v) for v in vectors]
        # Majority label purity per cluster should be high.
        purity_total = 0
        for cluster in range(5):
            members = [labels[i] for i, a in enumerate(assignments) if a == cluster]
            if members:
                purity_total += max(members.count(lbl) for lbl in set(members))
        assert purity_total / len(vectors) > 0.7

    def test_initial_centroids_validation(self, vectors_and_labels):
        vectors, _ = vectors_and_labels
        with pytest.raises(WorkloadError):
            initial_centroids(vectors, 0)
        with pytest.raises(WorkloadError):
            initial_centroids(vectors[:3], 5)


class TestKMeansEngines:
    @pytest.mark.parametrize("engine", ["hadoop", "spark", "datampi"])
    def test_matches_reference(self, engine, vectors_and_labels):
        vectors, _ = vectors_and_labels
        reference = kmeans_reference(vectors, k=4, max_iterations=6, seed=5)
        result = run_kmeans(engine, vectors, k=4, max_iterations=6, seed=5)
        assert result.converged == reference.converged
        assert kmeans_agree(result, reference)

    def test_engines_agree(self, vectors_and_labels):
        vectors, _ = vectors_and_labels
        results = [
            run_kmeans(engine, vectors, k=3, max_iterations=4, seed=7)
            for engine in ("hadoop", "spark", "datampi")
        ]
        for a, b in zip(results, results[1:]):
            for ca, cb in zip(a.centroids, b.centroids):
                assert math.sqrt(ca.squared_distance(cb)) < 1e-9

    def test_validation(self, vectors_and_labels):
        vectors, _ = vectors_and_labels
        with pytest.raises(WorkloadError):
            run_kmeans("hadoop", vectors, k=3, max_iterations=0)
        with pytest.raises(WorkloadError):
            run_kmeans("nope", vectors, k=3)


class TestNaiveBayes:
    @pytest.fixture(scope="class")
    def documents(self):
        return generate_labeled_documents(100, words_per_doc=25, seed=31)

    def test_reference_model_accurate(self, documents):
        train, test = documents[:80], documents[80:]
        model = train_reference(train)
        assert model.accuracy(test) > 0.9

    @pytest.mark.parametrize("engine", ["hadoop", "datampi"])
    def test_engine_matches_reference(self, engine, documents):
        reference = train_reference(documents)
        model = run_naive_bayes(engine, documents)
        assert model.class_doc_counts == reference.class_doc_counts
        assert model.vocabulary == reference.vocabulary
        assert model.class_term_counts == reference.class_term_counts

    def test_engines_agree_on_classification(self, documents):
        train, test = documents[:80], documents[80:]
        hadoop_model = run_naive_bayes("hadoop", train)
        datampi_model = run_naive_bayes("datampi", train)
        for doc in test:
            assert hadoop_model.classify(doc.tokens) == datampi_model.classify(doc.tokens)

    def test_spark_not_supported(self, documents):
        """Matches the paper: BigDataBench lacks Spark Naive Bayes."""
        with pytest.raises(WorkloadError):
            run_naive_bayes("spark", documents)

    def test_priors_balanced(self, documents):
        model = train_reference(documents)
        counts = set(model.class_doc_counts.values())
        assert counts == {20}  # 100 docs over 5 balanced classes

    def test_document_generation_validation(self):
        with pytest.raises(WorkloadError):
            generate_labeled_documents(0)
