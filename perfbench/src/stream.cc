#include "stream.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <optional>
#include <set>

#include "medrelax/common/status.h"
#include "medrelax/common/string_util.h"
#include "medrelax/serve/protocol.h"

namespace perfbench {

using medrelax::ConceptId;
using medrelax::ContextId;
using medrelax::InstanceId;
using medrelax::StrFormat;

namespace {

/// SplitMix64 finalizer: decorrelates (seed, stream id) pairs.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform index below n from a 64-bit generator (n > 0). Implemented
/// here rather than with <random> distributions, whose output is not
/// pinned by the standard.
size_t BelowWith(std::mt19937_64& rng, size_t n) {
  return static_cast<size_t>(rng() % n);
}

/// A term the protocol carries verbatim: non-empty, not a comment line,
/// one line, and with no option-looking first token (`k=`, `ctx=`...).
bool Addressable(std::string_view term) {
  std::string_view stripped = medrelax::StripAscii(term);
  if (stripped.empty() || stripped.front() == '#') return false;
  if (stripped.find_first_of("\r\n") != std::string_view::npos) return false;
  const size_t first_space = stripped.find_first_of(" \t");
  return stripped.substr(0, first_space).find('=') == std::string_view::npos;
}

/// One seeded edit of `name`: a deletion, a substitution or a
/// transposition of letters. Returns `name` unchanged only when no edit
/// keeps the term addressable.
std::string Typo(const std::string& name, std::mt19937_64& rng) {
  std::vector<size_t> letters;
  for (size_t i = 0; i < name.size(); ++i) {
    if (std::isalpha(static_cast<unsigned char>(name[i]))) letters.push_back(i);
  }
  for (int attempt = 0; attempt < 16 && !letters.empty(); ++attempt) {
    const size_t pos = letters[BelowWith(rng, letters.size())];
    std::string edited = name;
    switch (BelowWith(rng, 3)) {
      case 0:
        edited.erase(pos, 1);
        break;
      case 1: {
        const char replacement = static_cast<char>('a' + BelowWith(rng, 26));
        if (std::tolower(static_cast<unsigned char>(name[pos])) ==
            replacement) {
          continue;
        }
        edited[pos] = replacement;
        break;
      }
      default:
        if (pos + 1 >= name.size() || name[pos] == name[pos + 1] ||
            !std::isalpha(static_cast<unsigned char>(name[pos + 1]))) {
          continue;
        }
        std::swap(edited[pos], edited[pos + 1]);
        break;
    }
    if (Addressable(edited)) return edited;
  }
  return name;
}

}  // namespace

bool FindWorkload(std::string_view name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = std::string(name);
  if (name == "fuzzy_terms_16k") {
    s.zipf_theta = 0.9;
    s.typo_share = 0.25;
    s.ctx_share = 0.5;
  } else if (name == "exact_concepts_64k") {
    s.far_share = 1.0 / 16;
    s.ctx_share = 0.5;
  } else if (name == "hot_reload_16k") {
    s.zipf_theta = 0.9;
    s.hot_names = 256;
    s.reload_every_ms = 250;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

Vocabulary::Vocabulary(const medrelax::Snapshot& snap,
                       const WorkloadSpec& spec) {
  // Names of KB instances the offline phase mapped to a concept, i.e.
  // the names the serving mapper resolves.
  std::set<std::string> mapped;
  for (const auto& [instance, concept_id] : snap.ingestion().mappings) {
    (void)concept_id;
    const std::string& name = snap.kb().instances.instance(instance).name;
    if (Addressable(name)) mapped.insert(name);
  }
  terms_.assign(mapped.begin(), mapped.end());
  std::mt19937_64 rng(Mix(0x6e616d6573ull));
  for (size_t i = terms_.size(); i > 1; --i) {
    std::swap(terms_[i - 1], terms_[BelowWith(rng, i)]);
  }
  if (spec.hot_names != 0 && terms_.size() > spec.hot_names) {
    terms_.resize(spec.hot_names);
  }
  num_names_ = terms_.size();

  typo_.resize(num_names_);
  if (spec.typo_share > 0) {
    std::mt19937_64 typo_rng(Mix(0x7479706full));
    for (size_t i = 0; i < num_names_; ++i) {
      typo_[i] = static_cast<uint32_t>(terms_.size());
      terms_.push_back(Typo(terms_[i], typo_rng));
    }
  } else {
    for (size_t i = 0; i < num_names_; ++i) typo_[i] = static_cast<uint32_t>(i);
  }

  far_begin_ = static_cast<uint32_t>(terms_.size());
  if (spec.far_share > 0) {
    const medrelax::ConceptDag& dag = snap.dag();
    for (ConceptId id = 0; id < dag.num_concepts(); ++id) {
      if (Addressable(dag.name(id))) terms_.push_back(dag.name(id));
    }
  }

  for (const medrelax::Context& c : snap.ingestion().contexts.contexts()) {
    const std::string label = c.Label();
    if (label.find_first_of(" \t") == std::string::npos) {
      contexts_.push_back(label);
    }
  }
}

std::string Vocabulary::Args(const Request& request) const {
  if (request.context == 0) return terms_[request.term];
  return "ctx=" + contexts_[request.context - 1] + " " + terms_[request.term];
}

std::string Vocabulary::Line(const Request& request) const {
  return "RELAX " + Args(request);
}

RequestStream::RequestStream(const Vocabulary* vocab, const WorkloadSpec& spec,
                             uint64_t seed, unsigned connection)
    : vocab_(vocab),
      spec_(spec),
      rng_(Mix(Mix(seed) + connection + 1)),
      names_(vocab->num_names()) {
  if (spec.zipf_theta > 0) {
    zipf_cdf_.resize(names_);
    double total = 0;
    for (size_t i = 0; i < names_; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), spec.zipf_theta);
      zipf_cdf_[i] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

double RequestStream::Uniform() {
  return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
}

size_t RequestStream::Below(size_t n) { return BelowWith(rng_, n); }

Request RequestStream::Next() {
  Request request;
  const size_t num_far = vocab_->terms().size() - vocab_->far_begin();
  if (num_far > 0 && Uniform() < spec_.far_share) {
    request.term = vocab_->far_begin() + static_cast<uint32_t>(Below(num_far));
  } else {
    size_t name = 0;
    if (zipf_cdf_.empty()) {
      name = Below(names_);
    } else {
      name = static_cast<size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), Uniform()) -
          zipf_cdf_.begin());
      name = std::min(name, names_ - 1);
    }
    request.term = static_cast<uint32_t>(name);
    if (spec_.typo_share > 0 && Uniform() < spec_.typo_share) {
      request.term = vocab_->typo_of(name);
    }
  }
  if (!vocab_->contexts().empty() && spec_.ctx_share > 0 &&
      Uniform() < spec_.ctx_share) {
    request.context =
        1 + static_cast<uint32_t>(Below(vocab_->contexts().size()));
  }
  return request;
}

std::string ReferenceReply(const medrelax::Snapshot& snap,
                           std::string_view args) {
  medrelax::Result<medrelax::serve::RelaxLine> parsed =
      medrelax::serve::ParseRelaxArgs(args);
  if (!parsed.ok()) return "err " + parsed.status().ToString() + "\n";
  ContextId context = medrelax::kNoContext;
  if (parsed->has_context) {
    context = snap.ingestion().contexts.FindByLabel(parsed->context_label);
    if (context == medrelax::kNoContext) {
      return StrFormat("err InvalidArgument: unknown context '%s'\n",
                       parsed->context_label.c_str());
    }
  }
  std::optional<medrelax::ConceptMatch> match =
      snap.mapper().Map(parsed->term);
  if (!match.has_value()) {
    return "err " +
           medrelax::Status::NotFound(
               StrFormat("query term '%s' has no corresponding external "
                         "concept",
                         parsed->term.c_str()))
               .ToString() +
           "\n";
  }
  const size_t k = parsed->top_k != 0 ? static_cast<size_t>(parsed->top_k)
                                      : snap.relaxer().options().top_k;
  const medrelax::RelaxationOutcome outcome =
      snap.relaxer().RelaxConceptWithK(match->id, context, k);
  std::string out = StrFormat(
      "ok relax term='%s' radius=%u concepts=%zu instances=%zu\n",
      parsed->term.c_str(), outcome.effective_radius, outcome.concepts.size(),
      outcome.instances.size());
  for (const medrelax::ScoredConcept& sc : outcome.concepts) {
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

std::string MaskReply(std::string_view reply) {
  if (!medrelax::StartsWith(reply, "ok relax ")) return std::string(reply);
  const size_t eol = reply.find('\n');
  std::string_view first = reply.substr(0, eol);
  // The term may itself contain " gen=": the real field is the last one.
  const size_t gen = first.rfind(" gen=");
  if (gen == std::string_view::npos) return std::string(reply);
  const size_t hit = first.find(" hit=", gen);
  if (hit == std::string_view::npos) return std::string(reply);
  const size_t hit_end = first.find(' ', hit + 1);
  std::string out(first.substr(0, gen));
  if (hit_end != std::string_view::npos) out += first.substr(hit_end);
  if (eol != std::string_view::npos) out += reply.substr(eol);
  return out;
}

std::string ReplyClass(std::string_view reply) {
  if (medrelax::StartsWith(reply, "ok")) return "ok";
  if (!medrelax::StartsWith(reply, "err ")) return "malformed";
  const size_t colon = reply.find(':');
  const size_t eol = reply.find('\n');
  return "err " + std::string(reply.substr(4, std::min(colon, eol) - 4));
}

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace perfbench
