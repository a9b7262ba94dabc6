#ifndef MEDRELAX_BENCH_BENCH_COMMON_H_
#define MEDRELAX_BENCH_BENCH_COMMON_H_

// Shared setup for the reproduction benches: the "standard world" every
// table is generated against — a SNOMED-like external source, a MED-shaped
// KB, the monograph corpus, and both ingestion variants. Parameters follow
// the paper's scale cues (100-query workloads, k = 10, τ = 2, w_gen = 0.9).

#include <cstdio>
#include <memory>

#include "medrelax/datasets/corpus_generator.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/datasets/query_generator.h"
#include "medrelax/eval/gold_standard.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"

namespace medrelax::bench {

struct StandardWorld {
  GeneratedWorld world;
  Corpus corpus;           // in-domain monographs (the "MED corpus")
  Corpus general_corpus;   // out-of-domain corpus for Embedding-pre-trained
  std::unique_ptr<NameIndex> index;
  std::unique_ptr<ExactMatcher> exact;
  std::unique_ptr<EditDistanceMatcher> edit;
  IngestionResult with_corpus;
  IngestionResult without_corpus;
};

inline std::unique_ptr<StandardWorld> BuildStandardWorld(
    size_t eks_concepts = 4000, size_t drugs = 120, size_t findings = 800,
    uint64_t seed = 2026) {
  auto s = std::make_unique<StandardWorld>();
  SnomedGeneratorOptions eks;
  eks.num_concepts = eks_concepts;
  eks.seed = seed;
  KbGeneratorOptions kb;
  kb.num_drugs = drugs;
  kb.num_findings = findings;
  kb.seed = seed + 1;
  Result<GeneratedWorld> world = GenerateWorld(eks, kb);
  if (!world.ok()) {
    std::fprintf(stderr, "world generation failed: %s\n",
                 world.status().ToString().c_str());
    return nullptr;
  }
  s->world = std::move(*world);

  CorpusGeneratorOptions corpus_opts;
  corpus_opts.seed = seed + 2;
  s->corpus = GenerateMonographCorpus(s->world, corpus_opts);
  GeneralCorpusOptions general_opts;
  general_opts.seed = seed + 3;
  s->general_corpus = GenerateGeneralCorpus(s->world.eks, general_opts);

  s->index = std::make_unique<NameIndex>(&s->world.eks.dag);
  s->exact = std::make_unique<ExactMatcher>(s->index.get());
  s->edit = std::make_unique<EditDistanceMatcher>(s->index.get(),
                                                  EditMatcherOptions{});
  Result<IngestionResult> with = RunIngestion(
      s->world.kb, s->world.eks.dag, *s->edit, &s->corpus,
      IngestionOptions{});
  if (!with.ok()) {
    std::fprintf(stderr, "ingestion failed: %s\n",
                 with.status().ToString().c_str());
    return nullptr;
  }
  s->with_corpus = std::move(*with);
  Result<IngestionResult> without = RunIngestion(
      s->world.kb, s->world.eks.dag, *s->edit, nullptr, IngestionOptions{});
  if (!without.ok()) return nullptr;
  s->without_corpus = std::move(*without);
  return s;
}

inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace medrelax::bench

#endif  // MEDRELAX_BENCH_BENCH_COMMON_H_
