"""Run files, qrels, and the ranking metrics.

Parses a small in-memory run and qrels, computes nDCG@10 and reciprocal
rank by hand-checkable steps, and shows the relative-improvement and
paired-significance arithmetic used in reports.
"""

from hardrank.corpus_io import parse_qrels, parse_run, write_run
from hardrank.evaluation import ndcg_at_k, paired_test, reciprocal_rank, relative_improvement

run_lines = [
    "q1 Q0 docB 1 9.0 demo",
    "q1 Q0 docA 2 3.0 demo",
    "q1 Q0 docC 3 1.5 demo",
]
qrels_lines = [
    "q1 0 docA 3",
    "q1 0 docB 1",
]

run = parse_run(run_lines)
qrels = parse_qrels(qrels_lines)
print("parsed ranking:", run.entries["q1"])
print("round-trip is exact:", parse_run(write_run(run)) == run)

judgments = qrels.for_query("q1")
print()
print("ranking [docB, docA, docC] against grades", judgments)
print("  nDCG@10 =", round(ndcg_at_k(run.entries["q1"], judgments), 5))
print("  RR      =", round(reciprocal_rank(run.entries["q1"], judgments), 5))

print()
print("relative improvement 0.444 -> 0.659:",
      f"{relative_improvement(0.659, 0.444):+.1f}%")

result = paired_test([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
print(f"paired t-test on diffs [0.1, 0.2, 0.3]: t={result.t:.4f}, "
      f"df={result.df}, p={result.p_two_tailed:.4f}, level={result.level}")
