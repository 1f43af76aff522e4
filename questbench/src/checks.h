// Correctness checks of the QUEST benchmark. None of them compares with a
// stored copy of today's output: each compares two independent paths of
// the program (indexed vs brute force, wire vs in-process, confirmed vs
// retrained, recovered vs live) or checks an invariant.
#ifndef QUESTBENCH_CHECKS_H_
#define QUESTBENCH_CHECKS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "core/classifier.h"
#include "quest/recommendation_service.h"
#include "wire.h"

namespace questbench {

using Service = qatk::quest::RecommendationService;

/// At most kTopN codes, no code twice, scores non-increasing.
bool RankingInvariantsHold(const std::vector<qatk::core::ScoredCode>& top);

/// Parses a Recommend response payload: code OK, well-formed result, and
/// the ranking invariants. Fills `top` when non-null.
bool RecommendPayloadValid(std::string_view payload,
                           std::vector<qatk::core::ScoredCode>* top);

/// The exact response payload a server sends for `recommendation` under
/// request id `id` (error responses carry the status, no result).
std::string ExpectedRecommendPayload(
    int64_t id, const qatk::Result<Service::Recommendation>& recommendation);

/// Number of probes whose recorded wire response differs from the bytes
/// the in-process `reference.Recommend` yields (unseen probes skipped;
/// `covered` receives the number compared).
size_t LedgerMismatches(const ResponseLedger& ledger, const Service& reference,
                        const std::vector<qatk::kb::DataBundle>& probes,
                        size_t* covered);

/// Number of probes whose in-process Recommend is not bit-identical to
/// the brute-force RankedKnnClassifier::Classify(KnowledgeBase, ...) path
/// on the same snapshot, or breaks the ranking invariants.
size_t BruteForceMismatches(const Service& service,
                            const qatk::tax::Taxonomy& taxonomy,
                            const std::vector<qatk::kb::DataBundle>& probes);

/// Accuracy@1 and @10 on the held-out bundles.
struct Accuracy {
  double at1 = 0;
  double at10 = 0;
};
Accuracy ServiceAccuracy(const Service& service,
                         const std::vector<qatk::kb::DataBundle>& heldout);
/// The code-frequency baseline of the service's own training statistics.
Accuracy BaselineAccuracy(const Service& service,
                          const std::vector<qatk::kb::DataBundle>& heldout);
/// The paper's ordering: both models beat the baseline at @1 and @10, and
/// bag-of-words beats bag-of-concepts at @1. Empty when it holds.
std::string PaperOrderingViolation(const Accuracy& boc, const Accuracy& bow,
                                   const Accuracy& baseline);

/// Empty when the two snapshots hold the same model: knowledge nodes in
/// order, vocabulary, frequency statistics and merge ordinals; otherwise
/// the first difference.
std::string StateDifference(const Service::TrainedState& got,
                            const Service::TrainedState& want);

/// Runs the checks above on deliberately broken inputs and returns the
/// names of the checks that failed to trip (empty = every check trips).
/// `service` must be trained; it is only read.
std::vector<std::string> SelfTest(const Service& service,
                                  const qatk::tax::Taxonomy& taxonomy,
                                  const std::vector<qatk::kb::DataBundle>& probes);

}  // namespace questbench

#endif  // QUESTBENCH_CHECKS_H_
