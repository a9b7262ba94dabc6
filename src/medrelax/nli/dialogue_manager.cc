#include "medrelax/nli/dialogue_manager.h"

#include <algorithm>
#include <span>

#include "medrelax/common/string_util.h"
#include "medrelax/kb/kb_query.h"
#include "medrelax/text/normalize.h"
#include "medrelax/text/tokenize.h"

namespace medrelax {

DialogueManager::DialogueManager(const KnowledgeBase* kb,
                                 const IngestionResult* ingestion,
                                 const IntentClassifier* intents,
                                 const EntityExtractor* entities,
                                 const QueryRelaxer* relaxer,
                                 const DialogueOptions& options)
    : kb_(kb),
      ingestion_(ingestion),
      intents_(intents),
      entities_(entities),
      relaxer_(relaxer),
      options_(options) {
  for (const auto& [instance, concept_id] : ingestion_->mappings) {
    instance_concept_.emplace(instance, concept_id);
  }
}

void DialogueManager::AcceptSuggestion(ConceptId concept_id) {
  if (feedback_ != nullptr && previous_context_ != kNoContext) {
    feedback_->Accept(concept_id, previous_context_);
  }
}

void DialogueManager::RejectSuggestion(ConceptId concept_id) {
  if (feedback_ != nullptr && previous_context_ != kNoContext) {
    feedback_->Reject(concept_id, previous_context_);
  }
}

DialogueResponse DialogueManager::Handle(const std::string& utterance) {
  // Intent: classify, with conversational carry-over for weak short turns.
  IntentPrediction intent = intents_->Classify(utterance);
  ContextId context = intent.context;
  size_t token_count = Tokenize(NormalizeTerm(utterance)).size();
  if (previous_context_ != kNoContext &&
      (intent.confidence < options_.context_carryover_confidence ||
       token_count <= 3)) {
    context = previous_context_;
  }

  // Entity: prefer a known Finding instance, else the longest unknown span.
  std::vector<EntityMention> mentions = entities_->Extract(utterance);
  const EntityMention* known = nullptr;
  const EntityMention* unknown = nullptr;
  for (const EntityMention& m : mentions) {
    if (m.instance != kInvalidInstance) {
      if (known == nullptr) known = &m;
    } else if (unknown == nullptr ||
               m.surface.size() > unknown->surface.size()) {
      unknown = &m;
    }
  }

  DialogueResponse response;
  if (known != nullptr) {
    response = AnswerKnown(known->instance, context);
  } else if (unknown != nullptr) {
    response = AnswerUnknown(unknown->surface, context);
  } else {
    response.text = "Could you tell me which condition you mean?";
    response.context = context;
  }
  previous_context_ = response.context;
  return response;
}

DialogueResponse DialogueManager::AnswerKnown(InstanceId instance,
                                              ContextId context) {
  DialogueResponse response;
  response.context = context;
  const Instance& record = kb_->instances.instance(instance);

  // Scenario 2 (Figure 8): expand around the known term first.
  auto mapped = instance_concept_.find(instance);
  if (mapped != instance_concept_.end()) {
    response.surfaced_concepts.push_back(mapped->second);
    if (relaxer_ != nullptr) {
      RelaxationOutcome expansion =
          feedback_ != nullptr
              ? feedback_->RelaxConcept(mapped->second, context)
              : relaxer_->RelaxConcept(mapped->second, context);
      for (const ScoredConcept& sc : expansion.concepts) {
        if (sc.concept_id == mapped->second) continue;
        if (response.surfaced_concepts.size() > options_.max_suggestions) {
          break;
        }
        response.surfaced_concepts.push_back(sc.concept_id);
        response.used_relaxation = true;
      }
    }
  }

  // Direct answer under the context: walk back to the drugs.
  KbQuery query(kb_);
  const Context& ctx = ingestion_->contexts.context(context);
  std::vector<InstanceId> mids = query.SubjectsFor(ctx, instance);
  for (InstanceId mid : mids) {
    OntologyConceptId mid_concept = kb_->instances.instance(mid).concept_id;
    for (RelationshipId rel :
         kb_->ontology.RelationshipsWithRange(mid_concept)) {
      for (InstanceId drug : kb_->triples.Subjects(rel, mid)) {
        if (std::find(response.answers.begin(), response.answers.end(),
                      drug) == response.answers.end()) {
          response.answers.push_back(drug);
        }
      }
    }
  }

  std::vector<std::string> names;
  for (InstanceId d : response.answers) {
    names.push_back(kb_->instances.instance(d).name);
    if (names.size() >= 5) break;
  }
  if (response.used_relaxation) {
    response.text = StrFormat(
        "Here is what I know about %s (%zu related conditions are also "
        "available). Matching drugs: %s",
        record.name.c_str(), response.surfaced_concepts.size() - 1,
        Join(names, ", ").c_str());
  } else if (!names.empty()) {
    response.text = StrFormat("Matching drugs for %s: %s",
                              record.name.c_str(), Join(names, ", ").c_str());
  } else {
    response.text =
        StrFormat("I found %s but no drug information for this context.",
                  record.name.c_str());
  }
  return response;
}

DialogueResponse DialogueManager::AnswerUnknown(const std::string& term,
                                                ContextId context) {
  DialogueResponse response;
  response.context = context;
  if (relaxer_ == nullptr) {
    // The paper's no-QR behavior (Figure 7's counterfactual).
    response.text = StrFormat("I don't understand \"%s\".", term.c_str());
    return response;
  }

  // Scenario 1 (Figure 7): repair the conversation via relaxation,
  // re-ranked by session feedback when a feedback layer is attached.
  Result<RelaxationOutcome> relaxed = relaxer_->Relax(term, context);
  if (relaxed.ok() && feedback_ != nullptr) {
    *relaxed = feedback_->RelaxConcept(relaxed->query_concept, context);
  }
  if (!relaxed.ok() || relaxed->concepts.empty()) {
    response.text = StrFormat(
        "I couldn't find anything related to \"%s\".", term.c_str());
    return response;
  }
  response.used_relaxation = true;
  for (const ScoredConcept& sc : relaxed->concepts) {
    if (response.surfaced_concepts.size() >= options_.max_suggestions) break;
    response.surfaced_concepts.push_back(sc.concept_id);
  }
  // Render suggestion names from the ingestion's concept->instances index.
  std::vector<std::string> suggestions;
  for (ConceptId c : response.surfaced_concepts) {
    const std::span<const InstanceId> instances =
        ingestion_->concept_instances[c];
    if (!instances.empty()) {
      suggestions.push_back(kb_->instances.instance(instances[0]).name);
      response.answers.insert(response.answers.end(), instances.begin(),
                              instances.end());
    }
  }
  response.text = StrFormat(
      "\"%s\" is not in the knowledge base. Semantically related conditions "
      "I do know about: %s",
      term.c_str(), Join(suggestions, ", ").c_str());
  return response;
}

}  // namespace medrelax
