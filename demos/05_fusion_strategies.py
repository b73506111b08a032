"""The three ways to combine base and specialized rankers.

Balanced score fusion adds the two (normalized) scores; routing hands each
query wholesale to one ranker; weighted interpolation mixes scores by the
hardness estimate. The endpoint identities (psi in {0, 0.5, 1}) are shown
explicitly.
"""

from hardrank.corpus_io import RunList, rank_records
from hardrank.fusion import FusionConfig, bsf, r_qpp, w_qpps

br = RunList(entries={
    "q1": rank_records([("a", 0.9), ("b", 0.5), ("c", 0.1)]),
    "q2": rank_records([("a", 0.9), ("b", 0.1)]),
}, tag="br")
sr = RunList(entries={
    "q1": rank_records([("c", 0.8), ("b", 0.6), ("a", 0.2)]),
    "q2": rank_records([("b", 0.9), ("a", 0.1)]),
}, tag="sr")

print("BR order:", [r.doc_id for r in br.entries["q1"]])
print("SR order:", [r.doc_id for r in sr.entries["q1"]])

combsum = bsf(br, sr, FusionConfig(method="bsf"))
print("\nBSF (CombSUM):", [(r.doc_id, round(r.score, 3)) for r in combsum.entries["q1"]])

for psi in (0.0, 0.5, 1.0):
    fused = w_qpps(br, sr, {"q1": psi, "q2": psi})
    print(f"W-QPPS psi={psi}:", [r.doc_id for r in fused.entries["q1"]])

# hardness per query, e.g. from a QPP model or read from a file
psi = {"q1": 0.85, "q2": 0.10}
routed, decisions = r_qpp(br, sr, psi, tau=0.5)
print("\nrouting decisions:")
for d in decisions:
    print(f"  {d.query_id}: psi={d.psi:.2f} -> {d.route}")
print("routed q1 order:", [r.doc_id for r in routed.entries["q1"]])
print("routed q2 order:", [r.doc_id for r in routed.entries["q2"]])
