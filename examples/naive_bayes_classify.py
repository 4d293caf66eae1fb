#!/usr/bin/env python
"""Naive Bayes: the social-network application benchmark (Section 4.6).

Trains the Mahout-style multi-job Naive Bayes pipeline on Hadoop and
DataMPI (the paper's BigDataBench release has no Spark implementation),
verifies the two engines build bit-identical models, classifies held-out
documents, and reproduces the Figure 6(b) comparison on the simulated
testbed.

Run:  python examples/naive_bayes_classify.py
"""

from repro.common.units import GB
from repro.experiments import render_table
from repro.perfmodels import simulate
from repro.workloads import generate_labeled_documents, run_workload


def main() -> None:
    print("=== functional Naive Bayes on amazon1-amazon5 documents ===")
    documents = generate_labeled_documents(300, words_per_doc=30, seed=17)
    train, test = documents[:240], documents[240:]
    print(f"{len(train)} training documents over 5 categories, {len(test)} held out")

    hadoop_model = run_workload("naive_bayes", "hadoop", train).output
    datampi_model = run_workload("naive_bayes", "datampi", train).output
    identical = (
        hadoop_model.class_term_counts == datampi_model.class_term_counts
        and hadoop_model.class_doc_counts == datampi_model.class_doc_counts
    )
    print(f"hadoop and datampi pipelines build identical models: {identical}")
    print(f"vocabulary size: {len(datampi_model.vocabulary)}")
    print(f"held-out accuracy: {datampi_model.accuracy(test):.0%}")

    sample = test[0]
    predicted = datampi_model.classify(sample.tokens)
    print(f"sample doc (true class {sample.label}): predicted {predicted}")

    print("\n=== simulated training times, Figure 6(b) "
          "(paper: DataMPI ~33% faster than Hadoop on average) ===")
    rows = []
    improvements = []
    for size_gb in (8, 16, 32, 64):
        hadoop = simulate("hadoop", "naive_bayes", size_gb * GB, executions=3)
        datampi = simulate("datampi", "naive_bayes", size_gb * GB, executions=3)
        improvement = 1 - datampi.elapsed_sec / hadoop.elapsed_sec
        improvements.append(improvement)
        rows.append([f"{size_gb}GB", f"{hadoop.elapsed_sec:.0f}s",
                     f"{datampi.elapsed_sec:.0f}s", f"{improvement:.0%}"])
    print(render_table(["size", "hadoop", "datampi", "improvement"], rows))
    print(f"average improvement: {sum(improvements) / len(improvements):.0%}")


if __name__ == "__main__":
    main()
