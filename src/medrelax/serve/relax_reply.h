#ifndef MEDRELAX_SERVE_RELAX_REPLY_H_
#define MEDRELAX_SERVE_RELAX_REPLY_H_

#include <string>

#include "medrelax/common/result.h"
#include "medrelax/serve/relaxation_service.h"

namespace medrelax {

/// Renders a RELAX answer (or typed error) as the protocol reply both
/// server transports send (docs/SERVING.md): an `ok relax ...` header,
/// one `concept` line per ranked concept with its `instance` lines, then
/// `end`; an error becomes one `err <status>` line.
///
/// Concept and instance names come from `response->snapshot`, the
/// snapshot that computed the answer, so a RELOAD published between
/// compute and format can neither garble nor reject a correct answer.
/// Safe to call on any thread.
[[nodiscard]] std::string FormatRelaxReply(
    const std::string& term, const Result<RelaxResponse>& response);

}  // namespace medrelax

#endif  // MEDRELAX_SERVE_RELAX_REPLY_H_
