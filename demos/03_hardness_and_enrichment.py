"""Hard-query detection and context-grounded rewriting with the stub generator."""

from hardrank.corpus_io import Document, Query, corpus_by_id
from hardrank.enrichment import (
    HardnessRule,
    StubGenerator,
    build_prompt,
    classify_hardness,
    enrich,
)
from hardrank.lexical_retrieval import build_index

rule = HardnessRule(max_token_count=5, acronym_pattern=True, min_context_terms=2)
for text in (
    "what is lbm",
    "define NASA budget",
    "how should a beginner choose a canoe paddle for river trips",
):
    print(f"{classify_hardness(Query('q', text), rule):>4}  {text!r}")

corpus = [
    Document("d1", "Lean body mass lbm is total body weight minus all fat weight"),
    Document("d2", "Solar irradiance measures sunlight power per unit area"),
    Document("d3", "Canoe paddles come in bent and straight shaft designs"),
]
index = build_index(corpus)

print()
print("prompt the HTTP generator sends:")
print(build_prompt(Query("q1", "what is lbm"), corpus[0].text))

out = enrich(Query("q1", "what is lbm"), index, corpus_by_id(corpus), StubGenerator())
print()
print("enriched:", out.enriched_text)
print("context doc:", out.context_doc_id, "| generator:", out.generator_id)
