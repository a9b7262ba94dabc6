#include "medrelax/serve/relax_reply.h"

#include "medrelax/common/string_util.h"

namespace medrelax {

std::string FormatRelaxReply(const std::string& term,
                             const Result<RelaxResponse>& response) {
  if (!response.ok()) {
    return StrFormat("err %s\n", response.status().ToString().c_str());
  }
  const Snapshot& snap = *response->snapshot;
  const RelaxationOutcome& outcome = *response->outcome;
  std::string out = StrFormat(
      "ok relax term='%s' gen=%llu hit=%d radius=%u concepts=%zu"
      " instances=%zu\n",
      term.c_str(), static_cast<unsigned long long>(snap.generation()),
      response->cache_hit ? 1 : 0, outcome.effective_radius,
      outcome.concepts.size(), outcome.instances.size());
  for (const ScoredConcept& sc : outcome.concepts) {
    out += StrFormat("concept %s sim=%.3f\n",
                     snap.dag().name(sc.concept_id).c_str(), sc.similarity);
    for (InstanceId i : sc.instances) {
      out += StrFormat("  instance %s\n",
                       snap.kb().instances.instance(i).name.c_str());
    }
  }
  out += "end\n";
  return out;
}

}  // namespace medrelax
