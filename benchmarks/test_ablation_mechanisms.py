"""Ablation: contribution of each DataMPI mechanism (DESIGN.md extension).

Not a paper figure — this quantifies the design argument of Sections
2.3/4.4 by re-running the DataMPI timeline model with one mechanism
disabled at a time.  Measured shape:

* pipelining dominates the shuffle-heavy sorts;
* low startup dominates the short scan (grep);
* in-memory buffering barely shows up in *time* — pipelining hides the
  extra spill I/O under compute — but quadruples the *disk traffic*,
  which is exactly the disk-lifetime/contention argument of Section 2.3
  (the mechanisms interact rather than add).
"""

from repro.common.units import GB
from repro.experiments import render_table
from repro.perfmodels import DataMPIModel, MECHANISMS, ablated_datampi
from repro.perfmodels.ablation import AblatedDataMPIModel


def test_ablation_mechanisms():
    def run_all():
        return {
            ("text_sort", 8): ablated_datampi("text_sort", 8 * GB),
            ("normal_sort", 32): ablated_datampi("normal_sort", 32 * GB),
            ("grep", 8): ablated_datampi("grep", 8 * GB),
        }

    results = run_all()
    print("\nAblation: slowdown from removing each DataMPI mechanism")
    rows = []
    for (workload, size), result in results.items():
        rows.append(
            [f"{workload} {size}GB", f"{result.full_sec:.0f}s"]
            + [f"+{result.slowdown(m) * 100:.0f}%" for m in MECHANISMS]
        )
    print(render_table(
        ["case", "full design"] + [f"-{m}" for m in MECHANISMS], rows
    ))

    text_sort = results[("text_sort", 8)]
    normal_sort = results[("normal_sort", 32)]
    grep = results[("grep", 8)]

    # Removing any mechanism never helps.
    for result in results.values():
        for mechanism in MECHANISMS:
            assert result.slowdown(mechanism) >= -0.02, (result.workload, mechanism)

    # Pipelining and startup both matter for the shuffle-heavy sort.
    assert text_sort.slowdown("pipelining") > 0.04
    assert text_sort.slowdown("low_startup") > 0.04

    # Pipelining is the top mechanism for the heavyweight sort at scale.
    assert normal_sort.ranked()[0][0] == "pipelining"
    assert normal_sort.slowdown("pipelining") > 0.10

    # For scan-dominated grep, startup is the dominant mechanism.
    assert grep.ranked()[0][0] == "low_startup"
    assert grep.slowdown("low_startup") > 0.15

    # Buffering's cost hides under pipelining in *time*, but shows up as
    # disk traffic: without it the job writes ~4x the bytes (spill + 3
    # output replicas instead of replicas alone).
    full_writes = sum(
        n.disk_write.total_served
        for n in DataMPIModel().run("text_sort", 8 * GB).cluster.nodes
    )
    spill_writes = sum(
        n.disk_write.total_served
        for n in AblatedDataMPIModel("memory_buffering")
        .run("text_sort", 8 * GB).cluster.nodes
    )
    print(f"\ndisk writes: full design {full_writes / GB:.1f}GB, "
          f"without buffering {spill_writes / GB:.1f}GB")
    assert spill_writes > 1.25 * full_writes
    assert abs(text_sort.slowdown("memory_buffering")) < 0.06
