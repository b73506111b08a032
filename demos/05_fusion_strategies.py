"""The three ways to combine base and specialized rankers.

Balanced score fusion adds the two (normalized) scores; routing hands each
query wholesale to one ranker; weighted interpolation mixes scores by the
hardness estimate. The endpoint identities (psi in {0, 0.5, 1}) are shown
explicitly.
"""

from hardrank.corpus_io import Query, RunList, rank_records
from hardrank.fusion import FusionConfig, bsf, route_qpp, w_qpps
from hardrank.pointwise_ranker import ScoreFileRanker
from hardrank.qpp import FileQppProvider

br = RunList(entries={"q1": rank_records([("a", 0.9), ("b", 0.5), ("c", 0.1)])}, tag="br")
sr = RunList(entries={"q1": rank_records([("c", 0.8), ("b", 0.6), ("a", 0.2)])}, tag="sr")

print("BR order:", [r.doc_id for r in br.entries["q1"]])
print("SR order:", [r.doc_id for r in sr.entries["q1"]])

combsum = bsf(br, sr, FusionConfig(method="bsf"))
print("\nBSF (CombSUM):", [(r.doc_id, round(r.score, 3)) for r in combsum.entries["q1"]])

for psi in (0.0, 0.5, 1.0):
    fused = w_qpps(br, sr, {"q1": psi})
    print(f"W-QPPS psi={psi}:", [r.doc_id for r in fused.entries["q1"]])

candidates = {"q1": br.entries["q1"], "q2": rank_records([("a", 1.0), ("b", 0.5)])}
br_ranker = ScoreFileRanker({"q1": {"a": 0.9, "b": 0.5, "c": 0.1}, "q2": {"a": 0.9, "b": 0.1}})
sr_ranker = ScoreFileRanker({"q1": {"a": 0.2, "b": 0.6, "c": 0.8}, "q2": {"a": 0.1, "b": 0.9}})
provider = FileQppProvider({"q1": 0.85, "q2": 0.10})
routed, decisions = route_qpp(
    br_ranker, sr_ranker, provider,
    [Query("q1", "hard one"), Query("q2", "easy one")],
    candidates, tau=0.5,
)
print("\nrouting decisions:")
for d in decisions:
    print(f"  {d.query_id}: psi={d.psi:.2f} -> {d.route}")
print("routed q1 order:", [r.doc_id for r in routed.entries["q1"]])
print("routed q2 order:", [r.doc_id for r in routed.entries["q2"]])
