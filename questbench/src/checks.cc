#include "checks.h"

#include <cmath>
#include <set>

#include "kb/features.h"
#include "server/json.h"
#include "server/protocol.h"

namespace questbench {

namespace {

using qatk::core::ScoredCode;

bool SameRecommendation(const Service::Recommendation& a,
                        const Service::Recommendation& b) {
  return a.truncated == b.truncated && a.top == b.top;
}

/// The brute-force reference answer for one probe on `state`.
Service::Recommendation BruteForce(const Service::TrainedState& state,
                                   const Service::Options& options,
                                   qatk::kb::FeatureExtractor* extractor,
                                   const qatk::kb::DataBundle& probe) {
  const qatk::core::RankedKnnClassifier brute(
      {options.similarity, options.max_nodes, /*prune=*/false});
  const std::string document = qatk::kb::ComposeDocument(
      probe, qatk::kb::kTestSources, state.compose_context);
  auto features = extractor->Extract(document);
  Service::Recommendation out;
  if (!features.ok()) return out;
  out.top = brute.Classify(state.knowledge, probe.part_id, *features);
  out.truncated = out.top.size() > options.top_n;
  if (out.truncated) out.top.resize(options.top_n);
  return out;
}

}  // namespace

bool RankingInvariantsHold(const std::vector<ScoredCode>& top) {
  if (top.size() > kTopN) return false;
  std::set<std::string> codes;
  for (size_t i = 0; i < top.size(); ++i) {
    if (!codes.insert(top[i].error_code).second) return false;
    if (std::isnan(top[i].score)) return false;
    if (i > 0 && top[i].score > top[i - 1].score) return false;
  }
  return true;
}

bool RecommendPayloadValid(std::string_view payload,
                           std::vector<ScoredCode>* top) {
  auto response = qatk::server::ParseResponse(payload);
  if (!response.ok() || !response->ok()) return false;
  const qatk::server::Json* list = response->result.Find("top");
  if (list == nullptr || !list->is_array()) return false;
  std::vector<ScoredCode> parsed;
  for (const qatk::server::Json& entry : list->items()) {
    const qatk::server::Json* code = entry.Find("code");
    const qatk::server::Json* score = entry.Find("score");
    if (code == nullptr || !code->is_string() || score == nullptr ||
        !score->is_number()) {
      return false;
    }
    parsed.push_back({code->string_value(), score->number_value()});
  }
  if (!RankingInvariantsHold(parsed)) return false;
  if (top != nullptr) *top = std::move(parsed);
  return true;
}

std::string ExpectedRecommendPayload(
    int64_t id, const qatk::Result<Service::Recommendation>& recommendation) {
  if (!recommendation.ok()) {
    return qatk::server::EncodeResponse(id, recommendation.status(),
                                        qatk::server::Json());
  }
  return qatk::server::EncodeResponse(
      id, qatk::Status::OK(),
      qatk::server::RecommendationToJson(*recommendation));
}

size_t LedgerMismatches(const ResponseLedger& ledger, const Service& reference,
                        const std::vector<qatk::kb::DataBundle>& probes,
                        size_t* covered) {
  size_t mismatches = 0;
  *covered = 0;
  for (size_t i = 0; i < probes.size() && i < ledger.size(); ++i) {
    if (!ledger.seen(i)) continue;
    ++*covered;
    const std::string want = ExpectedRecommendPayload(
        static_cast<int64_t>(i), reference.Recommend(probes[i]));
    if (Fnv1a(want) != ledger.hash(i)) ++mismatches;
  }
  return mismatches;
}

size_t BruteForceMismatches(const Service& service,
                            const qatk::tax::Taxonomy& taxonomy,
                            const std::vector<qatk::kb::DataBundle>& probes) {
  const std::shared_ptr<const Service::TrainedState> state = service.Snapshot();
  qatk::kb::FeatureExtractor extractor(service.options().model, &taxonomy,
                                       &state->vocabulary);
  size_t mismatches = 0;
  for (const qatk::kb::DataBundle& probe : probes) {
    auto indexed = service.Recommend(probe);
    if (!indexed.ok() || !RankingInvariantsHold(indexed->top) ||
        !SameRecommendation(
            *indexed, BruteForce(*state, service.options(), &extractor, probe))) {
      ++mismatches;
    }
  }
  return mismatches;
}

Accuracy ServiceAccuracy(const Service& service,
                         const std::vector<qatk::kb::DataBundle>& heldout) {
  size_t at1 = 0;
  size_t at10 = 0;
  for (const qatk::kb::DataBundle& bundle : heldout) {
    auto recommendation = service.Recommend(bundle);
    if (!recommendation.ok()) continue;
    const size_t rank =
        qatk::core::RankOf(recommendation->top, bundle.error_code);
    at1 += rank == 1;
    at10 += rank >= 1 && rank <= 10;
  }
  const double n = static_cast<double>(heldout.size());
  return {static_cast<double>(at1) / n, static_cast<double>(at10) / n};
}

Accuracy BaselineAccuracy(const Service& service,
                          const std::vector<qatk::kb::DataBundle>& heldout) {
  const std::shared_ptr<const Service::TrainedState> state = service.Snapshot();
  size_t at1 = 0;
  size_t at10 = 0;
  for (const qatk::kb::DataBundle& bundle : heldout) {
    const size_t rank = qatk::core::RankOf(
        state->frequency.Rank(bundle.part_id), bundle.error_code);
    at1 += rank == 1;
    at10 += rank >= 1 && rank <= 10;
  }
  const double n = static_cast<double>(heldout.size());
  return {static_cast<double>(at1) / n, static_cast<double>(at10) / n};
}

std::string PaperOrderingViolation(const Accuracy& boc, const Accuracy& bow,
                                   const Accuracy& baseline) {
  if (boc.at1 <= baseline.at1) return "BoC @1 does not beat the baseline";
  if (boc.at10 <= baseline.at10) return "BoC @10 does not beat the baseline";
  if (bow.at1 <= baseline.at1) return "BoW @1 does not beat the baseline";
  if (bow.at10 <= baseline.at10) return "BoW @10 does not beat the baseline";
  if (bow.at1 <= boc.at1) return "BoW does not beat BoC @1";
  return std::string();
}

std::string StateDifference(const Service::TrainedState& got,
                            const Service::TrainedState& want) {
  const auto& a = got.knowledge.nodes();
  const auto& b = want.knowledge.nodes();
  if (a.size() != b.size()) {
    return "node count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].part_id != b[i].part_id || a[i].error_code != b[i].error_code ||
        a[i].features != b[i].features ||
        a[i].instance_count != b[i].instance_count) {
      return "knowledge node " + std::to_string(i) + " differs";
    }
  }
  if (got.vocabulary.Entries() != want.vocabulary.Entries()) {
    return "vocabulary differs";
  }
  if (got.frequency.counts() != want.frequency.counts()) {
    return "code frequencies differ";
  }
  if (got.node_ordinals != want.node_ordinals ||
      got.ordinal_high != want.ordinal_high) {
    return "merge ordinals differ";
  }
  if (got.index.num_nodes() != want.index.num_nodes() ||
      got.index.num_postings() != want.index.num_postings()) {
    return "frozen index shape differs";
  }
  return std::string();
}

std::vector<std::string> SelfTest(
    const Service& service, const qatk::tax::Taxonomy& taxonomy,
    const std::vector<qatk::kb::DataBundle>& probes) {
  std::vector<std::string> missed;

  // 1. One corrupted wire response must show as a ledger mismatch.
  ResponseLedger ledger(probes.size());
  std::string payload = ExpectedRecommendPayload(0, service.Recommend(probes[0]));
  const size_t digit = payload.find_last_of("0123456789");
  payload[digit] = payload[digit] == '9' ? '8' : static_cast<char>(payload[digit] + 1);
  ledger.Record(0, payload);
  size_t covered = 0;
  if (LedgerMismatches(ledger, service, probes, &covered) != 1) {
    missed.push_back("wire-vs-in-process");
  }

  // 2. Broken rankings must fail the invariants; a sound one must pass.
  const std::vector<ScoredCode> sound = {{"A", 0.9}, {"B", 0.5}};
  const std::vector<ScoredCode> duplicate = {{"A", 0.9}, {"A", 0.5}};
  const std::vector<ScoredCode> ascending = {{"A", 0.5}, {"B", 0.9}};
  std::vector<ScoredCode> too_long;
  for (size_t i = 0; i <= kTopN; ++i) {
    too_long.push_back({std::to_string(i), -static_cast<double>(i)});
  }
  if (!RankingInvariantsHold(sound) || RankingInvariantsHold(duplicate) ||
      RankingInvariantsHold(ascending) || RankingInvariantsHold(too_long)) {
    missed.push_back("ranking-invariants");
  }

  // 3. A one-ulp score change must fail the brute-force comparison, on the
  // first probe that ranks any code.
  const std::shared_ptr<const Service::TrainedState> state = service.Snapshot();
  qatk::kb::FeatureExtractor extractor(service.options().model, &taxonomy,
                                       &state->vocabulary);
  bool tripped = false;
  for (const qatk::kb::DataBundle& probe : probes) {
    auto indexed = service.Recommend(probe);
    if (!indexed.ok() || indexed->top.empty()) continue;
    Service::Recommendation brute =
        BruteForce(*state, service.options(), &extractor, probe);
    if (brute.top.empty()) break;
    brute.top[0].score = std::nextafter(brute.top[0].score, 2.0);
    tripped = !SameRecommendation(*indexed, brute);
    break;
  }
  if (!tripped) missed.push_back("brute-force");

  // 4. Swapped model figures must fail the paper's ordering.
  const Accuracy boc{0.48, 0.85};
  const Accuracy bow{0.67, 0.85};
  const Accuracy base{0.32, 0.74};
  if (!PaperOrderingViolation(boc, bow, base).empty() ||
      PaperOrderingViolation(bow, boc, base).empty()) {
    missed.push_back("paper-ordering");
  }

  // 5. One changed node must fail the state comparison.
  Service::TrainedState changed = *state;
  std::vector<qatk::kb::KnowledgeNode> nodes = state->knowledge.nodes();
  if (!nodes.empty()) ++nodes.back().instance_count;
  changed.knowledge = qatk::kb::KnowledgeBase();
  for (qatk::kb::KnowledgeNode& node : nodes) {
    changed.knowledge.RestoreNode(std::move(node));
  }
  if (StateDifference(changed, *state).empty()) {
    missed.push_back("state-equality");
  }
  return missed;
}

}  // namespace questbench
