#include "medrelax/serve/relax_reply.h"

#include <charconv>

#include "medrelax/common/string_util.h"

namespace medrelax {

namespace {

// Appends `"%s"` of `text`: up to its first NUL, as printf would.
void AppendText(std::string* out, std::string_view text) {
  out->append(text.substr(0, text.find('\0')));
}

}  // namespace

// Built by appending rather than one StrFormat per line: a reply of ten
// concepts is ~20 lines, and two vsnprintf passes per line cost more than
// answering the request from the cache.
std::string FormatRelaxReply(const std::string& term,
                             const Result<RelaxResponse>& response) {
  if (!response.ok()) {
    return StrFormat("err %s\n", response.status().ToString().c_str());
  }
  const Snapshot& snap = *response->snapshot;
  const RelaxationOutcome& outcome = *response->outcome;
  std::string out = "ok relax term='";
  AppendText(&out, term);
  out += "' gen=" + std::to_string(snap.generation());
  out += response->cache_hit ? " hit=1" : " hit=0";
  out += " radius=" + std::to_string(outcome.effective_radius);
  out += " concepts=" + std::to_string(outcome.concepts.size());
  out += " instances=" + std::to_string(outcome.instances.size()) + "\n";
  for (const ScoredConcept& sc : outcome.concepts) {
    out += "concept ";
    AppendText(&out, snap.dag().name(sc.concept_id));
    // to_chars with a precision prints exactly what printf's %.3f does.
    char similarity[32];
    const std::to_chars_result sim =
        std::to_chars(similarity, similarity + sizeof(similarity),
                      sc.similarity, std::chars_format::fixed, 3);
    out += " sim=";
    out.append(similarity, sim.ptr);
    out += '\n';
    for (InstanceId i : sc.instances) {
      out += "  instance ";
      AppendText(&out, snap.kb().instances.instance(i).name);
      out += '\n';
    }
  }
  out += "end\n";
  return out;
}

}  // namespace medrelax
