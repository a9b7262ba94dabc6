// libFuzzer harness for the serving line protocol: the input is treated
// as a client's inbound byte stream, framed into newline-delimited
// lines and pushed through the same pure-parse layer both transports
// use (serve/protocol.h) — verb classification, RELAX option/term
// parsing, ctx= label resolution (against a fixed registry whose labels
// hold spaces), and the overflow-checked numeric option parser. The parsers
// allocate nothing per byte and touch no service state, so this runs at
// full fuzzer speed; any outcome but a crash or UB is a pass.

#include <cstdint>
#include <string_view>

#include "medrelax/serve/protocol.h"

namespace {

/// Labels "Indication-hasFinding-Finding", "Monitoring-uses-Lab Test"
/// and "Monitoring-uses-Lab Test Panel": one plain, two that extend
/// each other across spaces.
const medrelax::ContextRegistry& Contexts() {
  static const medrelax::ContextRegistry contexts = [] {
    medrelax::ContextRegistry registry;
    registry.Intern({"Indication", "hasFinding", "Finding"});
    registry.Intern({"Monitoring", "uses", "Lab Test"});
    registry.Intern({"Monitoring", "uses", "Lab Test Panel"});
    return registry;
  }();
  return contexts;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  while (!input.empty()) {
    const size_t nl = input.find('\n');
    const std::string_view line =
        input.substr(0, nl == std::string_view::npos ? input.size() : nl);
    input.remove_prefix(
        nl == std::string_view::npos ? input.size() : nl + 1);

    // Split verb from arguments the way the transports do (first
    // whitespace-delimited word).
    const size_t sp = line.find_first_of(" \t");
    const std::string_view verb_token =
        line.substr(0, sp == std::string_view::npos ? line.size() : sp);
    const std::string_view args =
        sp == std::string_view::npos ? std::string_view()
                                     : line.substr(sp + 1);

    const medrelax::serve::Verb verb =
        medrelax::serve::ParseVerb(verb_token);
    (void)verb;

    // Every line's arguments go through the RELAX parser — the other
    // verbs take no arguments, so this is where all the parsing depth
    // lives. The raw numeric parser gets the verb token too: it must
    // reject any non-decimal junk without wrapping.
    medrelax::Result<medrelax::serve::RelaxLine> parsed =
        medrelax::serve::ParseRelaxArgs(args);
    if (parsed.ok() && parsed->has_context) {
      medrelax::Result<medrelax::ContextId> context =
          medrelax::serve::ResolveContextLabel(Contexts(), &*parsed);
      (void)context;
    }
    medrelax::Result<uint64_t> count =
        medrelax::serve::ParseProtocolCount(verb_token, "k");
    (void)count;
  }
  return 0;
}
