#ifndef MEDRELAX_IO_DAG_IO_H_
#define MEDRELAX_IO_DAG_IO_H_

#include <iosfwd>
#include <string>

#include "medrelax/common/result.h"
#include "medrelax/common/thread_annotations.h"
#include "medrelax/graph/concept_dag.h"

namespace medrelax {

/// Serializes a ConceptDag to a line-oriented, tab-separated text format:
///
///   # medrelax-dag v1
///   C<TAB><name>                         (concept; id = line order)
///   S<TAB><id><TAB><synonym>
///   E<TAB><child><TAB><parent><TAB>1<TAB>0
///
/// Names may contain spaces but not tabs or newlines (normalization strips
/// both). An edge line keeps the distance and shortcut columns of the
/// version that stored shortcut edges; a DAG holds native edges only, so
/// they always read 1 and 0.
[[nodiscard]] Status SaveDag(const ConceptDag& dag, std::ostream& out)
    MEDRELAX_BLOCKING;

/// Convenience: SaveDag to a file path.
[[nodiscard]]
Status SaveDagToFile(const ConceptDag& dag, const std::string& path)
    MEDRELAX_BLOCKING;

/// Parses the format written by SaveDag. Fails with InvalidArgument on
/// malformed input (wrong header, bad ids, tab-embedded names) and on an
/// edge line that is a shortcut (shortcut column 1, or a distance other
/// than 1).
[[nodiscard]] Result<ConceptDag> LoadDag(std::istream& in) MEDRELAX_BLOCKING;

/// Convenience: LoadDag from a file path.
[[nodiscard]] Result<ConceptDag> LoadDagFromFile(const std::string& path)
    MEDRELAX_BLOCKING;

}  // namespace medrelax

#endif  // MEDRELAX_IO_DAG_IO_H_
