// Shared declarations of the QUEST end-to-end benchmark (quest_bench).
//
// The benchmark trains QUEST on the paper-scale synthetic corpus, replays
// held-out bundles against it in one of two workloads, checks every
// output, and prints one JSON result line. See questbench/README.md.
#ifndef QUESTBENCH_BENCH_H_
#define QUESTBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datagen/world.h"
#include "kb/data_bundle.h"
#include "quest/recommendation_service.h"
#include "server/server.h"

namespace questbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// splitmix64: the benchmark's only random source, so a seed fixes every
/// input independently of the standard library's distributions.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// Training set, held-out traffic and the seeded replay order.
struct Inputs {
  /// Default WorldConfig/OemConfig: 31 parts, 7,500 bundles.
  std::unique_ptr<qatk::datagen::DomainWorld> world;
  /// First 6,000 bundles plus the description catalogs.
  qatk::kb::Corpus train;
  /// Last 1,500 bundles, in corpus (arrival) order.
  std::vector<qatk::kb::DataBundle> heldout;
  /// Replay probes: every held-out bundle once, in seeded order, with one
  /// unknown-part probe at every 100th position.
  std::vector<qatk::kb::DataBundle> probes;
  double generate_s = 0;
};

inline constexpr size_t kTrainBundles = 6000;
inline constexpr size_t kUnknownEvery = 100;
inline constexpr size_t kTopN = 10;

Inputs MakeInputs(uint64_t seed);

/// Serving config (bag-of-concepts or bag-of-words, Jaccard, 25 nodes,
/// top 10), optionally scoped to one shard of a hash-sharded cluster.
qatk::quest::RecommendationService::Options ServiceOptions(
    qatk::kb::FeatureModel model);
qatk::quest::RecommendationService::Options ShardOptions(
    qatk::kb::FeatureModel model, uint32_t shard, uint32_t num_shards);
inline constexpr uint32_t kShards = 3;

/// Every server in the benchmark runs one event loop: with more, the
/// kernel's SO_REUSEPORT hashing can put both load connections on one loop,
/// which the benchmark can neither see nor correct from outside.
qatk::server::Server::Options OneLoop();

/// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb();

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: the JSON result line plus human-readable notes
/// (phase tables, p99s, provenance) printed before it.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed correctness check (message to stderr).
  void Fail(const std::string& what);
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the traced run's log-append probe.
  std::string data_dir;
};

/// The end-to-end run (tracing off) of serve-boc or serve-bow.
void RunServe(const RunConfig& config, qatk::kb::FeatureModel model,
              Inputs& inputs, RunReport* report);

/// The traced run: times the public entry points of every layer from
/// outside, for the workload's feature model.
void RunLayers(const RunConfig& config, Inputs& inputs, RunReport* report);

/// Feature model a workload serves.
qatk::kb::FeatureModel WorkloadModel(const std::string& workload);

/// Prints one informational line (stdout, before the result line).
void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace questbench

#endif  // QUESTBENCH_BENCH_H_
