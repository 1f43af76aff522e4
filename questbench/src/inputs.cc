#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.h"
#include "cluster/sharder.h"
#include "datagen/oem.h"

namespace questbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Inputs MakeInputs(uint64_t seed) {
  const Clock::time_point start = Clock::now();
  Inputs inputs;
  inputs.world = std::make_unique<qatk::datagen::DomainWorld>();
  qatk::datagen::OemCorpusGenerator generator(inputs.world.get());
  qatk::kb::Corpus full = generator.Generate();
  inputs.heldout.assign(full.bundles.begin() + kTrainBundles,
                        full.bundles.end());
  full.bundles.resize(kTrainBundles);
  inputs.train = std::move(full);

  // Seeded Fisher-Yates over the held-out bundles.
  std::vector<size_t> order(inputs.heldout.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  SplitMix rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  size_t next = 0;
  size_t unknown = 0;
  while (next < order.size()) {
    if ((inputs.probes.size() + 1) % kUnknownEvery == 0) {
      // An unknown part id sends the query down the all-nodes fallback.
      qatk::kb::DataBundle probe =
          inputs.heldout[order[rng.Below(order.size())]];
      probe.part_id = "ZZ-UNKNOWN-" + std::to_string(unknown++);
      inputs.probes.push_back(std::move(probe));
    } else {
      inputs.probes.push_back(inputs.heldout[order[next++]]);
    }
  }
  inputs.generate_s = SecondsSince(start);
  return inputs;
}

qatk::quest::RecommendationService::Options ServiceOptions(
    qatk::kb::FeatureModel model) {
  qatk::quest::RecommendationService::Options options;
  options.model = model;
  options.similarity = qatk::core::SimilarityMeasure::kJaccard;
  options.max_nodes = 25;
  options.top_n = kTopN;
  return options;
}

qatk::quest::RecommendationService::Options ShardOptions(
    qatk::kb::FeatureModel model, uint32_t shard, uint32_t num_shards) {
  qatk::quest::RecommendationService::Options options = ServiceOptions(model);
  std::shared_ptr<qatk::cluster::Sharder> sharder =
      qatk::cluster::MakeSharder("hash", num_shards);
  options.shard.shard_index = shard;
  options.shard.num_shards = num_shards;
  options.shard.sharder = "hash";
  options.shard.owns_part = [sharder, shard](const std::string& part) {
    return sharder->ShardFor(part) == shard;
  };
  return options;
}

qatk::server::Server::Options OneLoop() {
  qatk::server::Server::Options options;
  options.port = 0;
  options.threads = 1;
  return options;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

void RunReport::Fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Note(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::putchar('\n');
}

qatk::kb::FeatureModel WorkloadModel(const std::string& workload) {
  return workload == "serve-bow" ? qatk::kb::FeatureModel::kBagOfWords
                                 : qatk::kb::FeatureModel::kBagOfConcepts;
}

}  // namespace questbench
