"""Sec. 7 / Theorem 2: membership liveness and clique detection.

Reruns the paper's clique-detection experiment class (disturbance node
between Node 1 and the rest of the cluster) across every disturbed
sender slot, and reports the view-change latency in protocol rounds —
verifying Theorem 2's "new view after two complete executions of the
modified diagnostic protocol".
"""

from conftest import emit

from repro.analysis.reporting import render_table
from repro.experiments.validation import run_clique_experiment


def run_clique_sweep():
    results = []
    for sender in (2, 3, 4):
        for seed in range(3):
            results.append((sender, seed,
                            run_clique_experiment(disturbed_sender=sender,
                                                  seed=seed)))
    return results


def test_membership_clique_detection(benchmark):
    results = benchmark.pedantic(run_clique_sweep, rounds=1, iterations=1)
    rows = []
    for sender, seed, result in results:
        rows.append((
            f"slot {sender}", seed,
            "{1}",
            "yes" if result["detected"] else "NO",
            result["view_latency_rounds"],
            "{" + ",".join(map(str, result["final_view"] or ())) + "}",
        ))
    text = render_table(
        ["disturbed slot", "seed", "minority clique", "detected",
         "view latency (rounds)", "new view"],
        rows,
        title="Sec. 7 — minority-clique detection (disturbance between "
              "Node 1 and the cluster)")
    emit("membership_cliques", text)

    assert all(r["passed"] for _s, _seed, r in results)
    # Theorem 2: two executions of the modified protocol = two pipeline
    # depths (3 rounds each) after the fault.
    assert all(r["view_latency_rounds"] <= 6 for _s, _seed, r in results)
