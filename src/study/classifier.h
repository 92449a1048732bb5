// Keyword classifier and distribution tables for the hardening-commit study
// (§2.5, Figures 3 and 4).
//
// The paper classified each merged hardening commit by hand into seven
// categories. This module reproduces the *pipeline*: a keyword classifier
// over changelog subjects (validated against the ground-truth labels in the
// dataset), distribution computation, and the bar-chart-as-table printers
// used by bench/paper_claims for Figures 3 and 4.

#ifndef SRC_STUDY_CLASSIFIER_H_
#define SRC_STUDY_CLASSIFIER_H_

#include <array>
#include <string>

#include "src/study/dataset.h"

namespace ciostudy {

// Classifies one changelog subject. Precedence matters (a "Revert" of a
// check-adding commit is an amendment, not a check).
HardeningCategory ClassifySubject(std::string_view subject);

struct Distribution {
  std::array<int, kHardeningCategoryCount> counts{};
  int total = 0;

  double Percent(HardeningCategory category) const {
    return total == 0 ? 0.0
                      : 100.0 * counts[static_cast<int>(category)] / total;
  }
};

// Distribution by manual ground-truth label.
Distribution DistributionByLabel(const std::vector<HardeningCommit>& commits);
// Distribution by the automatic classifier.
Distribution DistributionByClassifier(
    const std::vector<HardeningCommit>& commits);

// Fraction of commits where the classifier agrees with the label.
double ClassifierAccuracy(const std::vector<HardeningCommit>& commits);

// ASCII rendering of a distribution as a horizontal bar chart with
// percentages, in the style of Figures 3/4.
std::string DistributionTable(const std::string& title,
                              const Distribution& distribution);

// ASCII rendering of the Figure 2 CVE series.
std::string CveTable();

// The "+20% LoC per major version" growth table.
std::string GrowthTable();

}  // namespace ciostudy

#endif  // SRC_STUDY_CLASSIFIER_H_
