// libFuzzer harness for the line-oriented text loaders and the name
// pipeline: the input is parsed as both a medrelax-dag and a
// medrelax-kb document (io/dag_io.h, io/kb_io.h — what medrelax_ingest
// and the server's directory RELOAD read from disk), and when a DAG
// parses, its names are pushed through NormalizeTerm and a NameIndex
// exact lookup — the same path every query term takes. Typed errors are
// the expected outcome for almost every input; crashes and UB are the
// only failures.

#include <cstdint>
#include <sstream>
#include <string>

#include "medrelax/io/dag_io.h"
#include "medrelax/io/kb_io.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/text/normalize.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // The loaders are line-oriented with per-line work; a cap keeps one
  // giant input from turning into a timeout instead of a finding.
  if (size > (1u << 20)) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);

  {
    std::istringstream in(text);
    medrelax::Result<medrelax::ConceptDag> dag = medrelax::LoadDag(in);
    if (dag.ok() && dag->num_concepts() > 0) {
      medrelax::NameIndex index(&*dag);
      const std::string probe =
          medrelax::NormalizeTerm(text.substr(0, 64));
      (void)index.FindExact(probe);
      (void)index.CandidatesByTrigram(probe, 8);
      // τ = 1, 2, 3: the prefix filter scans a different number of
      // postings lists for each once the probe is long enough.
      for (size_t tau : {size_t{1}, size_t{2}, size_t{3}}) {
        (void)index.CandidatesWithin(probe, tau);
      }
    }
  }
  {
    std::istringstream in(text);
    medrelax::Result<medrelax::KnowledgeBase> kb = medrelax::LoadKb(in);
    (void)kb;
  }
  (void)medrelax::NormalizeTerm(text);
  return 0;
}
