// End-to-end runs of the two workloads (tracing off): serve-boc and
// serve-bow, one single-loop server each.
//
// A run is kRounds rounds. Each round takes one slice of every measured
// phase, so every metric samples the whole run rather than one stretch of
// it: on a shared host the speed of the machine drifts over seconds, and a
// metric measured in one block inherits whatever stretch it landed on.
#include "checks.h"
#include "server/protocol.h"
#include "server/server.h"
#include "wire.h"

namespace questbench {

namespace {

using qatk::kb::DataBundle;
using qatk::server::Json;
using qatk::server::Server;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
constexpr int kRounds = 6;

/// One coder session: Recommend, FullListForPart when the true code is not
/// in the top 10, then ConfirmAssignment with the true code, each step
/// acknowledged before the next (a closed loop on one connection).
struct CoderResult {
  size_t cycles = 0;
  size_t hits = 0;  ///< Cycles whose true code was in the top 10.
  size_t full_lists = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t invalid = 0;  ///< Rankings that broke the invariants.
  std::vector<double> confirm_ms;
  /// Held-out indices in confirm order.
  std::vector<size_t> confirmed;
  double seconds = 0;
  /// Cycles per second of each slice.
  std::vector<double> slice_rates;
};

/// Codes held-out bundles in arrival order for `seconds`, continuing the
/// session in `result` (the next bundle is heldout[result->cycles]).
void RunCoder(uint16_t port, const std::vector<DataBundle>& heldout,
              double seconds, CoderResult* result) {
  Channel channel;
  if (!channel.Connect(port)) {
    ++result->attempted;
    ++result->failed;
    return;
  }
  const Clock::time_point start = Clock::now();
  const size_t cycles_before = result->cycles;
  int64_t id = 1;
  while (result->cycles < heldout.size() && SecondsSince(start) < seconds) {
    const size_t index = result->cycles;
    const DataBundle& bundle = heldout[index];
    const Json params = qatk::server::BundleToParams(bundle);
    // 1. Recommend.
    ++result->attempted;
    const std::string recommended =
        channel.Call(qatk::server::EncodeRequest(id++, "Recommend", params));
    std::vector<qatk::core::ScoredCode> top;
    if (!ResponseOk(recommended)) {
      ++result->failed;
      break;
    }
    if (!RecommendPayloadValid(recommended, &top)) ++result->invalid;
    const size_t rank = qatk::core::RankOf(top, bundle.error_code);
    const bool hit = rank >= 1 && rank <= kTopN;
    // 2. The full list when the true code is not among the top 10.
    if (!hit) {
      ++result->attempted;
      ++result->full_lists;
      Json list_params = Json::Object();
      list_params.Set("part_id", Json(bundle.part_id));
      if (!ResponseOk(channel.Call(qatk::server::EncodeRequest(
              id++, "FullListForPart", list_params)))) {
        ++result->failed;
        break;
      }
    }
    // 3. Confirm the true code.
    Json confirm_params = params;
    confirm_params.Set("error_code", Json(bundle.error_code));
    ++result->attempted;
    const Clock::time_point confirm_start = Clock::now();
    const std::string confirmed = channel.Call(
        qatk::server::EncodeRequest(id++, "ConfirmAssignment", confirm_params));
    const double confirm_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - confirm_start)
            .count();
    if (!ResponseOk(confirmed)) {
      ++result->failed;
      break;
    }
    result->confirm_ms.push_back(confirm_ms);
    result->confirmed.push_back(index);
    result->hits += hit;
    ++result->cycles;
  }
  const double elapsed = SecondsSince(start);
  result->seconds += elapsed;
  result->slice_rates.push_back(
      static_cast<double>(result->cycles - cycles_before) / elapsed);
}

/// Sends probe 0 as the first request on a fresh connection: set-up ends
/// when the first request has been served.
bool FirstRequest(uint16_t port, const std::vector<std::string>& frames) {
  Channel channel;
  std::string payload;
  return channel.Connect(port) && channel.SendAll(frames[0]) &&
         channel.ReadFrame(&payload) && ResponseOk(payload);
}

void Require(bool ok, const std::string& what, RunReport* report) {
  if (!ok) report->Fail(what);
}

struct SingleNode {
  std::unique_ptr<Service> service;
  std::unique_ptr<Server> server;
  ~SingleNode() {
    if (server) server->Drain().Abort();
  }
};

/// Runs set-up kSetups times, keeping the last node; reports the median.
std::unique_ptr<SingleNode> RepeatSetup(qatk::kb::FeatureModel model,
                                        const Inputs& inputs,
                                        const std::vector<std::string>& frames,
                                        RunReport* report) {
  std::vector<double> seconds;
  std::unique_ptr<SingleNode> node;
  for (int i = 0; i < kSetups; ++i) {
    node.reset();  // Tear the previous one down outside the timed region.
    const Clock::time_point start = Clock::now();
    node = std::make_unique<SingleNode>();
    node->service = std::make_unique<Service>(&inputs.world->taxonomy(),
                                              ServiceOptions(model));
    if (!node->service->Train(inputs.train).ok()) return nullptr;
    node->server = std::make_unique<Server>(node->service.get(), OneLoop());
    if (!node->server->Start().ok()) return nullptr;
    if (!FirstRequest(node->server->port(), frames)) return nullptr;
    seconds.push_back(SecondsSince(start));
  }
  Note("setup_s: median %.4f s of %d (min %.4f max %.4f)", Median(seconds),
       kSetups, Quantile(seconds, 0), Quantile(seconds, 1));
  report->Set("setup_s", Median(seconds), "s");
  return node;
}

/// In-process replay on this thread: one rate sample per pass over the
/// probes, after one untimed warm-up pass.
void InProcessSlice(const Service& service,
                    const std::vector<DataBundle>& probes, double seconds,
                    std::vector<double>* rates, RunReport* report) {
  for (const DataBundle& probe : probes) (void)service.Recommend(probe);
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point pass = Clock::now();
    for (const DataBundle& probe : probes) {
      ++report->attempted;
      if (!service.Recommend(probe).ok()) ++report->failed;
    }
    rates->push_back(static_cast<double>(probes.size()) / SecondsSince(pass));
  } while (SecondsSince(start) < seconds);
}

/// Every response a round recorded must equal the in-process answer of
/// the state the round ran against.
void VerifyRound(const ResponseLedger& ledger, const Service& reference,
                 const Inputs& inputs, RunReport* report) {
  size_t covered = 0;
  const size_t mismatches =
      LedgerMismatches(ledger, reference, inputs.probes, &covered);
  if (mismatches > 0 || covered == 0) {
    report->Fail("wire != in-process on " + std::to_string(mismatches) +
                 " of " + std::to_string(covered) + " probes");
  }
}

/// Per round: an in-process slice, a fixed-rate open-loop slice whose
/// responses are checked against the in-process answers, then a coder
/// slice. Returns the whole coder session.
CoderResult ReadRounds(const RunConfig& config, const Inputs& inputs,
                       const Service& service, uint16_t port,
                       RunReport* report) {
  const std::vector<std::string> frames = EncodeRecommendFrames(inputs.probes);
  const double slice = config.seconds / kRounds;
  OpenLoopSpec fixed;
  fixed.name = "fixed-rate";
  fixed.port = port;
  fixed.frames = &frames;
  fixed.seconds = 0.2 * slice;
  fixed.first_probe = static_cast<size_t>(config.seed % inputs.probes.size());
  std::vector<double> rates, latency_us;
  CoderResult coder;
  for (int round = 0; round < kRounds; ++round) {
    InProcessSlice(service, inputs.probes, 0.3 * slice, &rates, report);
    ResponseLedger ledger(inputs.probes.size());
    fixed.ledger = &ledger;
    const PhaseResult phase = RunOpenLoop(fixed);
    PrintPhase(phase);
    Account(phase, report);
    latency_us.insert(latency_us.end(), phase.latency_us.begin(),
                      phase.latency_us.end());
    fixed.first_probe += static_cast<size_t>(kOfferedRate * fixed.seconds);
    VerifyRound(ledger, service, inputs, report);
    RunCoder(port, inputs.heldout, 0.5 * slice, &coder);
  }

  Note("recommend_per_s: median %.1f/s over %zu passes (min %.1f max %.1f)",
       Median(rates), rates.size(), Quantile(rates, 0), Quantile(rates, 1));
  report->Set("recommend_per_s", Median(rates), "1/s");
  // Printed, not reported: across runs the wire latency has moved up to 5x
  // (questbench/README.md, "Steadiness").
  Note("read_p50_us %.1f (p99 %.1f us over %zu samples)",
       Quantile(latency_us, 0.5), Quantile(latency_us, 0.99),
       latency_us.size());
  report->attempted += coder.attempted;
  report->failed += coder.failed;
  Require(coder.invalid == 0,
          "coder: " + std::to_string(coder.invalid) + " invalid rankings",
          report);
  Require(coder.cycles > 0, "coder completed no cycle", report);
  Note("coder: %zu cycles in %.2f s, %zu full lists, hit@10 %.4f, confirm "
       "p50 %.3f ms p99 %.3f ms (n=%zu)",
       coder.cycles, coder.seconds, coder.full_lists,
       coder.cycles ? static_cast<double>(coder.hits) / coder.cycles : 0.0,
       Quantile(coder.confirm_ms, 0.5), Quantile(coder.confirm_ms, 0.99),
       coder.confirm_ms.size());
  Note("coded_per_s: median %.3f/s over %zu slices (min %.3f max %.3f)",
       Median(coder.slice_rates), coder.slice_rates.size(),
       Quantile(coder.slice_rates, 0), Quantile(coder.slice_rates, 1));
  report->Set("coded_per_s", Median(coder.slice_rates), "1/s");
  report->Set("confirm_p50_ms", Quantile(coder.confirm_ms, 0.5), "ms");
  return coder;
}

/// A training corpus extended with the confirmed bundles in confirm order:
/// what a fresh Train must turn into the confirmed service's state.
qatk::kb::Corpus TrainPlusConfirmed(const Inputs& inputs,
                                    const std::vector<size_t>& confirmed,
                                    size_t skip = SIZE_MAX) {
  qatk::kb::Corpus corpus = inputs.train;
  for (size_t i = 0; i < confirmed.size(); ++i) {
    if (i != skip) corpus.bundles.push_back(inputs.heldout[confirmed[i]]);
  }
  return corpus;
}

/// The state the coder's confirms left must equal a fresh Train on the
/// training set plus the confirmed bundles in confirm order; dropping one
/// confirm from that expectation must show.
void CheckConfirmedState(const Service& service, const Inputs& inputs,
                         const std::vector<size_t>& confirmed,
                         RunReport* report) {
  const qatk::kb::FeatureModel model = service.options().model;
  const std::shared_ptr<const Service::TrainedState> live = service.Snapshot();
  std::string diff = "retrain failed";
  {
    Service retrained(&inputs.world->taxonomy(), ServiceOptions(model));
    if (retrained.Train(TrainPlusConfirmed(inputs, confirmed)).ok()) {
      diff = StateDifference(*live, *retrained.Snapshot());
    }
  }
  Note("check confirmed state == fresh Train(train + %zu confirmed): %s",
       confirmed.size(), diff.empty() ? "equal" : diff.c_str());
  Require(diff.empty(), "confirmed state != retrained: " + diff, report);
  if (confirmed.empty()) return;
  Service dropped(&inputs.world->taxonomy(), ServiceOptions(model));
  Require(dropped.Train(TrainPlusConfirmed(inputs, confirmed,
                                           confirmed.size() / 2))
                  .ok() &&
              !StateDifference(*live, *dropped.Snapshot()).empty(),
          "self-test: check did not trip: confirmed-state", report);
}

}  // namespace

void RunServe(const RunConfig& config, qatk::kb::FeatureModel model,
              Inputs& inputs, RunReport* report) {
  const std::vector<std::string> frames = EncodeRecommendFrames(inputs.probes);
  const bool boc = model == qatk::kb::FeatureModel::kBagOfConcepts;
  std::unique_ptr<SingleNode> node =
      RepeatSetup(model, inputs, frames, report);
  if (node == nullptr) return report->Fail("serve set-up failed");
  Service& service = *node->service;
  const Accuracy served = ServiceAccuracy(service, inputs.heldout);
  const Accuracy baseline = BaselineAccuracy(service, inputs.heldout);
  report->Set("accuracy_at_10", served.at10, "ratio");

  const CoderResult coder =
      ReadRounds(config, inputs, service, node->server->port(), report);
  report->Set("peak_rss_mb", PeakRssMb(), "MB");

  // Brute force and the self-test on the final state, then the state the
  // coder's confirms built against a fresh Train.
  const size_t brute = BruteForceMismatches(service, inputs.world->taxonomy(),
                                            inputs.probes);
  Note("check in-process == brute force: %zu of %zu probes differ", brute,
       inputs.probes.size());
  Require(brute == 0, "in-process != brute force", report);
  for (const std::string& missed :
       SelfTest(service, inputs.world->taxonomy(), inputs.probes)) {
    report->Fail("self-test: check did not trip: " + missed);
  }
  CheckConfirmedState(service, inputs, coder.confirmed, report);
  node.reset();

  // The paper's ordering needs the other model too.
  Service other(&inputs.world->taxonomy(),
                ServiceOptions(boc ? qatk::kb::FeatureModel::kBagOfWords
                                   : qatk::kb::FeatureModel::kBagOfConcepts));
  Require(other.Train(inputs.train).ok(), "reference train failed", report);
  const Accuracy other_accuracy = ServiceAccuracy(other, inputs.heldout);
  const Accuracy& boc_acc = boc ? served : other_accuracy;
  const Accuracy& bow_acc = boc ? other_accuracy : served;
  const std::string violation =
      PaperOrderingViolation(boc_acc, bow_acc, baseline);
  Note("check paper ordering: BoC %.4f/%.4f BoW %.4f/%.4f baseline "
       "%.4f/%.4f (@1/@10) %s",
       boc_acc.at1, boc_acc.at10, bow_acc.at1, bow_acc.at10, baseline.at1,
       baseline.at10, violation.empty() ? "holds" : violation.c_str());
  Require(violation.empty(), "paper ordering: " + violation, report);
}

}  // namespace questbench
