// medrelax_tool: a small command-line front end for the library.
//
//   medrelax_tool generate <dir> [--concepts N] [--findings N] [--seed S]
//       Generates a synthetic world and writes eks.tsv + kb.tsv into <dir>.
//
//   medrelax_tool relax <dir> <term> [--context LABEL] [--k N] [--radius R]
//       Loads <dir>/eks.tsv + <dir>/kb.tsv, runs the offline ingestion
//       (Algorithm 1) in-process, then relaxes <term> and prints the
//       expanded answers. To serve a world instead, freeze it with
//       medrelax_ingest and boot medrelax_server from the image.
//
//   medrelax_tool contexts <dir>
//       Lists the context labels available for --context.
//
// The files are the plain text formats of medrelax/io, so a downstream
// user can swap in their own external source and KB. A malformed or
// out-of-range number (--k abc, --concepts -1) exits 2 with the reason
// on stderr.

#include <cstdio>
#include <cstring>
#include <string>

#include "medrelax/datasets/kb_generator.h"
#include "medrelax/io/dag_io.h"
#include "medrelax/io/kb_io.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/relax/ingestion.h"
#include "medrelax/relax/query_relaxer.h"
#include "../tools/flags.h"

using namespace medrelax;  // NOLINT — example brevity

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  medrelax_tool generate <dir> [--concepts N] [--findings N]"
               " [--seed S]\n"
               "  medrelax_tool relax <dir> <term> [--context LABEL]"
               " [--k N] [--radius R]\n"
               "  medrelax_tool contexts <dir>\n");
  return 2;
}

using tools::CountFlags;
using tools::FlagValue;

/// Reports a bad numeric flag and returns the usage exit code; 0 when
/// every flag parsed.
int RejectBadFlags(const CountFlags& flags) {
  if (flags.status().ok()) return 0;
  std::fprintf(stderr, "medrelax_tool: %s\n",
               flags.status().ToString().c_str());
  return 2;
}

int Generate(int argc, char** argv) {
  std::string dir = argv[2];
  SnomedGeneratorOptions eks;
  KbGeneratorOptions kb;
  CountFlags flags(argc, argv);
  eks.num_concepts = flags.Get("--concepts", eks.num_concepts, 1u << 24);
  kb.num_findings = flags.Get("--findings", kb.num_findings, 1u << 24);
  eks.seed = flags.Get("--seed", eks.seed);
  if (FlagValue(argc, argv, "--seed") != nullptr) kb.seed = eks.seed + 1;
  if (const int rc = RejectBadFlags(flags); rc != 0) return rc;
  Result<GeneratedWorld> world = GenerateWorld(eks, kb);
  if (!world.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  Status s1 = SaveDagToFile(world->eks.dag, dir + "/eks.tsv");
  Status s2 = SaveKbToFile(world->kb, dir + "/kb.tsv");
  if (!s1.ok() || !s2.ok()) {
    std::fprintf(stderr, "save failed: %s %s\n", s1.ToString().c_str(),
                 s2.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s/eks.tsv (%zu concepts) and %s/kb.tsv "
              "(%zu instances)\n",
              dir.c_str(), world->eks.dag.num_concepts(), dir.c_str(),
              world->kb.instances.num_instances());
  return 0;
}

int Contexts(const std::string& dir) {
  Result<KnowledgeBase> kb = LoadKbFromFile(dir + "/kb.tsv");
  if (!kb.ok()) {
    std::fprintf(stderr, "%s\n", kb.status().ToString().c_str());
    return 1;
  }
  for (const Context& c : GenerateContexts(kb->ontology)) {
    std::printf("%s\n", c.Label().c_str());
  }
  return 0;
}

int Relax(int argc, char** argv) {
  std::string dir = argv[2];
  std::string term = argv[3];
  RelaxationOptions ropts;
  CountFlags flags(argc, argv);
  ropts.top_k = flags.Get("--k", ropts.top_k, 1u << 20);
  ropts.radius =
      static_cast<uint32_t>(flags.Get("--radius", ropts.radius, 1u << 16));
  if (const int rc = RejectBadFlags(flags); rc != 0) return rc;
  if (ropts.top_k == 0) {
    std::fprintf(stderr, "medrelax_tool: --k must be positive\n");
    return 2;
  }
  Result<ConceptDag> dag = LoadDagFromFile(dir + "/eks.tsv");
  Result<KnowledgeBase> kb = LoadKbFromFile(dir + "/kb.tsv");
  if (!dag.ok() || !kb.ok()) {
    std::fprintf(stderr, "load failed: %s %s\n",
                 dag.status().ToString().c_str(),
                 kb.status().ToString().c_str());
    return 1;
  }

  NameIndex index(&*dag);
  EditDistanceMatcher matcher(&index, EditMatcherOptions{});
  Result<IngestionResult> ingestion =
      RunIngestion(*kb, *dag, matcher, nullptr, IngestionOptions{});
  if (!ingestion.ok()) {
    std::fprintf(stderr, "ingestion failed: %s\n",
                 ingestion.status().ToString().c_str());
    return 1;
  }

  ContextId context = kNoContext;
  if (const char* v = FlagValue(argc, argv, "--context")) {
    context = ingestion->contexts.FindByLabel(v);
    if (context == kNoContext) {
      std::fprintf(stderr, "unknown context '%s' (see `contexts`)\n", v);
      return 1;
    }
  }

  QueryRelaxer relaxer(&*dag, &*ingestion, &matcher, SimilarityOptions{},
                       ropts);
  Result<RelaxationOutcome> outcome = relaxer.Relax(term, context);
  if (!outcome.ok()) {
    std::fprintf(stderr, "relaxation failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("query concept: %s (radius %u)\n",
              dag->name(outcome->query_concept).c_str(),
              outcome->effective_radius);
  for (const ScoredConcept& sc : outcome->concepts) {
    std::printf("  %-55s sim=%.4f\n", dag->name(sc.concept_id).c_str(),
                sc.similarity);
    for (InstanceId i : sc.instances) {
      std::printf("      -> %s\n", kb->instances.instance(i).name.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  if (std::strcmp(argv[1], "generate") == 0) return Generate(argc, argv);
  if (std::strcmp(argv[1], "contexts") == 0) return Contexts(argv[2]);
  if (std::strcmp(argv[1], "relax") == 0 && argc >= 4) {
    return Relax(argc, argv);
  }
  return Usage();
}
