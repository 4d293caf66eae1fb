"""repro — reproduction of "Performance Benefits of DataMPI: A Case Study
with BigDataBench" (Liang, Feng, Lu, Xu; 2014).

The package rebuilds, in pure Python, every system the paper touches:

* :mod:`repro.datampi` — the DataMPI key-value communication library
  (bipartite O/A communicators) that is the paper's subject;
* :mod:`repro.hadoop` / :mod:`repro.spark` — functional mini-engines for
  the two baselines;
* :mod:`repro.bigdatabench` — the workload data generators;
* :mod:`repro.workloads` — Sort, WordCount, Grep, K-means, Naive Bayes on
  all three engines;
* :mod:`repro.simulate` / :mod:`repro.cluster` / :mod:`repro.hdfs` /
  :mod:`repro.perfmodels` — the discrete-event performance model of the
  paper's 8-node testbed;
* :mod:`repro.experiments` — runners that regenerate every table and
  figure of the evaluation.

See ``docs/architecture.md`` for the system inventory; ``EXPERIMENTS.md``
(paper-vs-measured results) is written by
``python scripts/make_experiments_md.py`` and is not committed.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
