"""Table 1: the five representative workloads chosen from BigDataBench."""

from repro.experiments import render_table, table1


def test_table1_workloads():
    rows = table1()
    print("\nTable 1. Representative Workloads")
    print(render_table(["No.", "Workload", "Type"], rows))
    assert [row[1] for row in rows] == [
        "Sort", "WordCount", "Grep", "Naive Bayes", "K-means",
    ]
    types = {row[1]: row[2] for row in rows}
    assert types["Sort"] == types["WordCount"] == types["Grep"] == "Micro-benchmark"
    assert types["Naive Bayes"] == "Social Network"
    assert types["K-means"] == "E-commerce"
