#include "medrelax/io/dag_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "medrelax/common/string_util.h"

namespace medrelax {

namespace {
constexpr const char kHeader[] = "# medrelax-dag v1";

Status CheckName(std::string_view name) {
  if (name.find('\t') != std::string_view::npos ||
      name.find('\n') != std::string_view::npos) {
    return Status::InvalidArgument(StrFormat(
        "name contains tab/newline: '%s'", std::string(name).c_str()));
  }
  return Status::OK();
}
}  // namespace

Status SaveDag(const ConceptDag& dag, std::ostream& out) {
  out << kHeader << "\n";
  for (ConceptId id = 0; id < dag.num_concepts(); ++id) {
    MEDRELAX_RETURN_NOT_OK(CheckName(dag.name(id)));
    out << "C\t" << dag.name(id) << "\n";
  }
  for (ConceptId id = 0; id < dag.num_concepts(); ++id) {
    for (std::string_view syn : dag.synonyms(id)) {
      MEDRELAX_RETURN_NOT_OK(CheckName(syn));
      out << "S\t" << id << "\t" << syn << "\n";
    }
  }
  for (ConceptId id = 0; id < dag.num_concepts(); ++id) {
    for (ConceptId parent : dag.parents(id)) {
      out << "E\t" << id << "\t" << parent << "\t1\t0\n";
    }
  }
  if (!out.good()) return Status::Internal("SaveDag: stream write failed");
  return Status::OK();
}

Status SaveDagToFile(const ConceptDag& dag, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  return SaveDag(dag, out);
}

Result<ConceptDag> LoadDag(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::InvalidArgument("LoadDag: missing/unknown header");
  }
  ConceptDagBuilder dag;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = Split(line, '\t');
    auto parse_id = [&](const std::string& s, ConceptId* out_id) -> Status {
      char* end = nullptr;
      unsigned long v = std::strtoul(s.c_str(), &end, 10);
      if (end == s.c_str() || *end != '\0' || v >= dag.num_concepts()) {
        return Status::InvalidArgument(
            StrFormat("LoadDag line %zu: bad concept id '%s'", line_number,
                      s.c_str()));
      }
      *out_id = static_cast<ConceptId>(v);
      return Status::OK();
    };
    if (fields[0] == "C" && fields.size() == 2) {
      MEDRELAX_RETURN_NOT_OK(dag.AddConcept(fields[1]).status());
    } else if (fields[0] == "S" && fields.size() == 3) {
      ConceptId id;
      MEDRELAX_RETURN_NOT_OK(parse_id(fields[1], &id));
      MEDRELAX_RETURN_NOT_OK(dag.AddSynonym(id, fields[2]));
    } else if (fields[0] == "E" && fields.size() == 5) {
      ConceptId child, parent;
      MEDRELAX_RETURN_NOT_OK(parse_id(fields[1], &child));
      MEDRELAX_RETURN_NOT_OK(parse_id(fields[2], &parent));
      if (fields[3] != "1" || fields[4] != "0") {
        return Status::InvalidArgument(StrFormat(
            "LoadDag line %zu: edge with distance '%s' and shortcut flag"
            " '%s'; only native edges (1, 0) are stored",
            line_number, fields[3].c_str(), fields[4].c_str()));
      }
      MEDRELAX_RETURN_NOT_OK(dag.AddSubsumption(child, parent));
    } else {
      return Status::InvalidArgument(StrFormat(
          "LoadDag line %zu: unrecognized record '%s'", line_number,
          fields[0].c_str()));
    }
  }
  return std::move(dag).Build();
}

Result<ConceptDag> LoadDagFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound(
        StrFormat("cannot open '%s' for reading", path.c_str()));
  }
  return LoadDag(in);
}

}  // namespace medrelax
