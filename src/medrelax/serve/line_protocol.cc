#include "medrelax/serve/line_protocol.h"

#include <cstdlib>
#include <thread>
#include <utility>

#include "medrelax/common/string_util.h"
#include "medrelax/serve/protocol.h"
#include "medrelax/serve/relax_reply.h"

namespace medrelax::serve {

LineProtocol::LineProtocol(RelaxationService& service, std::string image_path)
    : service_(service), image_path_(std::move(image_path)) {}

std::string LineProtocol::Answer(
    std::string_view line, std::chrono::steady_clock::time_point received_at) {
  const VerbLine split = SplitVerb(line);
  switch (ParseVerb(split.verb)) {
    case Verb::kRelax:
      return AnswerRelax(split.args, received_at);
    case Verb::kContexts: {
      std::shared_ptr<const Snapshot> snap = service_.snapshot();
      const ContextRegistry& contexts = snap->ingestion().contexts;
      std::string out = StrFormat("ok contexts n=%zu\n", contexts.size());
      for (const Context& c : contexts.contexts()) {
        out += StrFormat("context %s\n", c.Label().c_str());
      }
      out += "end\n";
      return out;
    }
    case Verb::kGen:
      return StrFormat("ok gen=%llu\n",
                       static_cast<unsigned long long>(
                           service_.snapshot()->generation()));
    case Verb::kStats:
      return StrFormat(
          "ok stats\n%send\n",
          service_.Stats().ToString().c_str());
    default:
      return StrFormat("err InvalidArgument: unknown verb '%s'\n",
                       std::string(split.verb).c_str());
  }
}

std::string LineProtocol::AnswerRelax(
    std::string_view args, std::chrono::steady_clock::time_point received_at) {
  Result<RelaxLine> parsed = ParseRelaxArgs(args);
  if (!parsed.ok()) {
    return StrFormat("err %s\n", parsed.status().ToString().c_str());
  }
  RelaxRequest request;
  // One pin for the context label and the answer: a RELOAD between the
  // two must not hand a context id resolved on one image to another.
  request.snapshot = service_.snapshot();
  if (parsed->has_context) {
    Result<ContextId> context =
        ResolveContextLabel(request.snapshot->ingestion().contexts, &*parsed);
    if (!context.ok()) {
      return StrFormat("err %s\n", context.status().ToString().c_str());
    }
    request.context = *context;
  }
  request.top_k = static_cast<size_t>(parsed->top_k);
  if (parsed->timeout_ms != 0) {
    request.timeout = std::chrono::milliseconds(parsed->timeout_ms);
  }
  request.received_at = received_at;
  request.term = parsed->term;
  return FormatRelaxReply(parsed->term, service_.Relax(std::move(request)));
}

std::string LineProtocol::Reload(std::string_view path) {
  // Test hook: scripts/server_smoke.sh stretches the reload window to
  // prove other sessions keep answering while a RELOAD is in flight.
  if (const char* delay_ms = std::getenv("MEDRELAX_RELOAD_TEST_DELAY_MS")) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::strtoul(delay_ms, nullptr, 10)));
  }
  const std::string image = path.empty() ? image_path_ : std::string(path);
  Result<std::shared_ptr<Snapshot>> reloaded = Snapshot::LoadFromImage(image);
  if (!reloaded.ok()) {
    return StrFormat("err %s\n", reloaded.status().ToString().c_str());
  }
  // A successful explicit-path reload makes that image the one later
  // plain RELOADs map (sticky, like booting with --image).
  image_path_ = image;
  const uint64_t generation = service_.PublishSnapshot(std::move(*reloaded));
  return StrFormat("ok reload gen=%llu\n",
                   static_cast<unsigned long long>(generation));
}

std::string LineProtocol::Banner(unsigned workers,
                                 size_t cache_capacity) const {
  return StrFormat("ok serving gen=%llu workers=%u cache=%zu\n",
                   static_cast<unsigned long long>(
                       service_.snapshot()->generation()),
                   workers, cache_capacity);
}

}  // namespace medrelax::serve
