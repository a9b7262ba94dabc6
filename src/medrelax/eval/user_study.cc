#include "medrelax/eval/user_study.h"

#include <algorithm>

#include "medrelax/common/random.h"

namespace medrelax {

namespace {

// One participant-question interaction following the Table 3 protocol.
int GradeOneQuestion(const GeneratedWorld& world, const GoldStandard& gold,
                     const ConversationalAnswerFn& system,
                     const NlQuestion& question,
                     const UserStudyOptions& options, Rng* rng) {
  // Orthogonal incidents first: they cap the grade regardless of QR.
  if (rng->Bernoulli(options.missing_answer_rate)) {
    return 1 + static_cast<int>(rng->UniformU64(2));  // 1 or 2
  }
  if (rng->Bernoulli(options.unexplained_low_rate)) {
    return rng->Bernoulli(0.5) ? 1 : 3;
  }

  const StringTableView synonyms = world.eks.dag.synonyms(question.concept_id);
  std::string surface = question.term_surface;
  int failures = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::vector<ConceptId> answer = system(question, surface);
    bool ok = false;
    for (ConceptId c : answer) {
      if (gold.IsRelevant(question.concept_id, question.context, c)) {
        ok = true;
        break;
      }
    }
    if (ok) break;
    ++failures;
    // Rephrase: a participant who knows another surface form switches to
    // it (canonical name first, then synonyms); otherwise they reword the
    // sentence but keep the same term and will keep failing.
    if (rng->Bernoulli(options.knows_alternative_surface)) {
      if (surface != world.eks.dag.name(question.concept_id)) {
        surface = world.eks.dag.name(question.concept_id);
      } else if (!synonyms.empty()) {
        surface = synonyms[rng->UniformU64(synonyms.size())];
      }
    }
  }
  int grade = std::max(1, 5 - failures);
  // Post-hoc annoyance incidents shave the grade of successful answers.
  if (grade >= 4 && rng->Bernoulli(options.flow_complaint_rate)) {
    grade -= 1 + static_cast<int>(rng->UniformU64(2));
  }
  if (grade == 5 && rng->Bernoulli(options.overwhelm_rate)) {
    grade = 3;
  }
  // Grader pickiness: a correct answer is rarely a full 5.
  if (rng->Bernoulli(options.picky_deduction_rate)) --grade;
  if (rng->Bernoulli(options.very_picky_deduction_rate)) --grade;
  return std::clamp(grade, 1, 5);
}

GradeDistribution Summarize(const std::vector<int>& grades) {
  GradeDistribution out;
  out.graded = grades.size();
  if (grades.empty()) return out;
  double total = 0.0;
  std::array<size_t, 5> counts = {0, 0, 0, 0, 0};
  for (int g : grades) {
    ++counts[static_cast<size_t>(g - 1)];
    total += g;
  }
  for (size_t i = 0; i < 5; ++i) {
    out.pct[i] = 100.0 * static_cast<double>(counts[i]) /
                 static_cast<double>(grades.size());
  }
  out.average = total / static_cast<double>(grades.size());
  return out;
}

}  // namespace

UserStudyResult RunUserStudy(const GeneratedWorld& world,
                             const GoldStandard& gold,
                             const ConversationalAnswerFn& system,
                             const UserStudyOptions& options) {
  Rng rng(options.seed);
  std::vector<int> t1_grades;
  std::vector<int> t2_grades;

  for (size_t p = 0; p < options.participants; ++p) {
    NlWorkloadOptions t1_opts;
    t1_opts.num_questions = options.t1_questions_per_participant;
    t1_opts.free_form = false;
    t1_opts.seed = options.seed * 1000 + p * 2;
    for (const NlQuestion& q : GenerateNlQuestions(world, t1_opts)) {
      t1_grades.push_back(
          GradeOneQuestion(world, gold, system, q, options, &rng));
    }

    NlWorkloadOptions t2_opts;
    t2_opts.num_questions = options.t2_questions_per_participant;
    t2_opts.free_form = true;
    // Free-form questions are phrased more colloquially than the
    // concept-anchored T1 ones.
    t2_opts.colloquial_synonym = 0.45;
    t2_opts.colloquial_typo = 0.30;
    t2_opts.seed = options.seed * 1000 + p * 2 + 1;
    for (const NlQuestion& q : GenerateNlQuestions(world, t2_opts)) {
      t2_grades.push_back(
          GradeOneQuestion(world, gold, system, q, options, &rng));
    }
  }

  UserStudyResult result;
  result.t1 = Summarize(t1_grades);
  result.t2 = Summarize(t2_grades);
  return result;
}

}  // namespace medrelax
