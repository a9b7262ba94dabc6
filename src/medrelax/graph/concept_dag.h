#ifndef MEDRELAX_GRAPH_CONCEPT_DAG_H_
#define MEDRELAX_GRAPH_CONCEPT_DAG_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "medrelax/common/result.h"
#include "medrelax/common/status.h"
#include "medrelax/common/string_table.h"

namespace medrelax {

/// Identifier of an external concept inside a ConceptDag.
using ConceptId = uint32_t;

/// Sentinel for "no concept".
inline constexpr ConceptId kInvalidConcept = UINT32_MAX;

/// One side of the adjacency in CSR form: the neighbors of concept c are
/// edges[offsets[c] .. offsets[c + 1]). An edge is a bare ConceptId: the
/// DAG holds native subsumption edges only, each one hop, so the target
/// is all there is to store. The layout is also the flat image's edge
/// sections, so a DAG can borrow its edges from a mapping.
struct DagCsr {
  std::span<const uint64_t> offsets;
  std::span<const ConceptId> edges;
};

/// Everything a ConceptDag reads, as views. The DAG either owns the
/// storage behind them (ConceptDagBuilder::Build) or borrows it
/// (ConceptDag::Borrow, over a mapped image's sections).
struct DagViews {
  StringTableView names;
  /// Synonyms of concept c are synonyms[synonym_groups[c] ..
  /// synonym_groups[c + 1]).
  std::span<const uint64_t> synonym_groups;
  StringTableView synonyms;
  DagCsr parents;
  DagCsr children;
};

/// In-memory external knowledge source: a DAG of named concepts under
/// subsumption (A ⊑ B), as assumed in Section 2.2 of the paper.
///
/// Immutable: a ConceptDagBuilder adds the concepts and edges, then
/// freezes them once into this compressed form — per side an offsets
/// array plus an edge array, and the names and synonyms as NUL-terminated
/// string tables. The same form is what a flat image stores, so a served
/// DAG borrows it from the mapping instead of decoding a copy. Every edge
/// is a native subsumption edge (child ⊑ parent, one hop); the shortcut
/// edges of Algorithm 1 lines 19-23 are never stored, since each spans
/// exactly its native distance and so changes no distance (ShortcutEdges
/// in traversal.h computes them). The two sides mirror each other: every
/// parent edge c -> p appears as a child edge p -> c. Acyclicity is checked by
/// ValidateAcyclic() (topology.h); ingestion refuses cyclic inputs.
class ConceptDag {
 public:
  ConceptDag() = default;

  // Movable but not copyable: the DAG is a large shared substrate. Views
  // stay valid across a move (they point at heap or mapped storage); the
  // moved-from DAG is left empty.
  ConceptDag(ConceptDag&& other) noexcept
      : storage_(std::move(other.storage_)),
        views_(std::exchange(other.views_, {})) {}
  ConceptDag& operator=(ConceptDag&& other) noexcept {
    storage_ = std::move(other.storage_);
    views_ = std::exchange(other.views_, {});
    return *this;
  }
  ConceptDag(const ConceptDag&) = delete;
  ConceptDag& operator=(const ConceptDag&) = delete;

  /// A DAG reading `views`, whose storage must outlive it. The caller
  /// vouches for their consistency (the image reader validates every
  /// bound and the mirroring before it borrows).
  [[nodiscard]] static ConceptDag Borrow(const DagViews& views);

  /// Number of concepts.
  [[nodiscard]] size_t num_concepts() const { return views_.names.size(); }

  /// Total number of (native subsumption) edges.
  [[nodiscard]] size_t num_edges() const {
    return views_.parents.edges.size();
  }

  /// Canonical name of a concept. Precondition: id is valid.
  [[nodiscard]] CStringView name(ConceptId id) const {
    return views_.names[id];
  }

  /// Synonyms of a concept (canonical name not included).
  [[nodiscard]] StringTableView synonyms(ConceptId id) const {
    const uint64_t first = views_.synonym_groups[id];
    return views_.synonyms.Slice(first,
                                 views_.synonym_groups[id + 1] - first);
  }

  /// Direct generalizations: everything `id` is a direct child of, in
  /// insertion order.
  [[nodiscard]] std::span<const ConceptId> parents(ConceptId id) const {
    return Side(views_.parents, id);
  }

  /// Direct specializations: everything that directly specializes `id`,
  /// in insertion order.
  [[nodiscard]] std::span<const ConceptId> children(ConceptId id) const {
    return Side(views_.children, id);
  }

  /// Looks up a concept by exact canonical name; kInvalidConcept if absent.
  /// A linear scan: serving maps terms through the NameIndex instead.
  [[nodiscard]] ConceptId FindByName(std::string_view name) const;

  /// True iff the id addresses an existing concept.
  [[nodiscard]] bool IsValid(ConceptId id) const {
    return id < num_concepts();
  }

  /// Concepts with no parents. A well-formed external knowledge source has
  /// exactly one root (owl:Thing, Section 2.2).
  [[nodiscard]] std::vector<ConceptId> Roots() const;

  /// The views this DAG reads (what the image writer serializes).
  [[nodiscard]] const DagViews& views() const { return views_; }

 private:
  friend class ConceptDagBuilder;
  struct Storage;

  static std::span<const ConceptId> Side(const DagCsr& csr, ConceptId id) {
    return csr.edges.subspan(csr.offsets[id],
                             csr.offsets[id + 1] - csr.offsets[id]);
  }

  /// Null when the views borrow someone else's storage.
  std::shared_ptr<const Storage> storage_;
  DagViews views_;
};

/// Accumulates the concepts, synonyms and edges of a ConceptDag, then
/// freezes them once (Build). Names and synonyms are normalized by the
/// caller (see matching/name_index.h).
class ConceptDagBuilder {
 public:
  ConceptDagBuilder() = default;
  /// Starts from a copy of `dag`, to extend it.
  explicit ConceptDagBuilder(const ConceptDag& dag);

  /// Adds a concept with a unique canonical name. Fails with AlreadyExists
  /// if the name is taken.
  [[nodiscard]] Result<ConceptId> AddConcept(std::string name);

  /// Adds an alternative surface form for a concept (SNOMED CT descriptions
  /// / synonyms). Synonyms need not be globally unique.
  [[nodiscard]] Status AddSynonym(ConceptId id, std::string_view synonym);

  /// Adds a native subsumption edge child ⊑ parent (distance 1).
  /// Fails on out-of-range ids, self-edges, and duplicate native edges.
  [[nodiscard]] Status AddSubsumption(ConceptId child, ConceptId parent);

  [[nodiscard]] size_t num_concepts() const { return names_.size(); }
  [[nodiscard]] const std::string& name(ConceptId id) const {
    return names_[id];
  }
  [[nodiscard]] const std::vector<std::string>& synonyms(ConceptId id) const {
    return synonyms_[id];
  }

  /// Freezes the DAG; edge order within a concept is insertion order.
  [[nodiscard]] ConceptDag Build() &&;

 private:
  [[nodiscard]] bool IsValid(ConceptId id) const { return id < names_.size(); }

  std::vector<std::string> names_;
  std::vector<std::vector<std::string>> synonyms_;
  std::vector<std::vector<ConceptId>> parents_;
  std::vector<std::vector<ConceptId>> children_;
  std::unordered_map<std::string, ConceptId> name_to_id_;
};

}  // namespace medrelax

#endif  // MEDRELAX_GRAPH_CONCEPT_DAG_H_
