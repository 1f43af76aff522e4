// The traced run: times the public entry points of each layer from
// outside, on the workload's feature model, and reports per-layer medians
// and counts. Spans are recorded by this file around calls into the
// layers; nothing inside the program is instrumented.
//
// Layers (the repository's modules): quest (RecommendationService), kb
// (ComposeDocument, FeatureExtractor, FrozenIndex), cas (the annotation
// pipeline behind ExtractTerms), core (RankedKnnClassifier), server
// (protocol codec and the TCP transport) and cluster (shard RPC, merge,
// front end). load is the benchmark's own generator.
#include <filesystem>

#include "checks.h"
#include "cluster/coordinator.h"
#include "cluster/merge.h"
#include "cluster/sharder.h"
#include "kb/features.h"
#include "kb/frozen_index.h"
#include "quest/service_log.h"
#include "server/protocol.h"
#include "server/server.h"
#include "wire.h"

namespace questbench {

namespace {

using qatk::kb::DataBundle;
using qatk::server::Json;
using qatk::server::Server;

/// Closure gate: the layer medians must add up to the Recommend median
/// within this share.
constexpr double kClosureTolerance = 0.10;
/// Repetitions of the expensive write-path steps.
constexpr int kWriteRepeats = 5;
constexpr int kConfirms = 6;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/// Read-path layer samples, one per probe per round.
struct ReadSamples {
  std::vector<double> recommend_us, compose_ns, extract_us, annotate_us,
      resolve_us, select_us, classify_us;
  std::vector<double> mentions, features, candidates;
};

/// Times Recommend in one pass over the probes and its layers in the
/// next, alternating until `seconds` pass.
ReadSamples TimeReadPath(const Service& service,
                         const qatk::tax::Taxonomy& taxonomy,
                         const std::vector<DataBundle>& probes, double seconds,
                         RunReport* report) {
  const std::shared_ptr<const Service::TrainedState> state = service.Snapshot();
  qatk::kb::FeatureExtractor extractor(service.options().model, &taxonomy,
                                       &state->vocabulary);
  const qatk::core::RankedKnnClassifier classifier(
      {service.options().similarity, service.options().max_nodes,
       service.options().prune_topk});
  qatk::kb::FrozenIndex::Scratch scratch;
  std::vector<std::string> documents;
  std::vector<std::vector<int64_t>> features;
  for (const DataBundle& probe : probes) {
    documents.push_back(qatk::kb::ComposeDocument(
        probe, qatk::kb::kTestSources, state->compose_context));
    auto extracted = extractor.Extract(documents.back());
    if (!extracted.ok()) report->Fail("extract failed");
    features.push_back(extracted.ok() ? *extracted : std::vector<int64_t>());
  }

  ReadSamples samples;
  size_t sink = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < 2 || SecondsSince(start) < seconds; ++round) {
    const bool record = round > 0;  // Round 0 warms every path.
    for (const DataBundle& probe : probes) {
      const Clock::time_point t0 = Clock::now();
      auto recommendation = service.Recommend(probe);
      const Clock::time_point t1 = Clock::now();
      ++report->attempted;
      if (!recommendation.ok()) ++report->failed;
      if (record) samples.recommend_us.push_back(MicrosBetween(t0, t1));
    }
    // The three layers of one Recommend, back to back on the same probe,
    // so each sees the cache state it has inside Recommend.
    for (size_t i = 0; i < probes.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      std::string document = qatk::kb::ComposeDocument(
          probes[i], qatk::kb::kTestSources, state->compose_context);
      const Clock::time_point t1 = Clock::now();
      auto extracted = extractor.Extract(document);
      const Clock::time_point t2 = Clock::now();
      classifier.Classify(state->index, probes[i].part_id,
                          extracted.ok() ? *extracted : features[i], &scratch);
      const Clock::time_point t3 = Clock::now();
      sink += document.size();
      if (!record) continue;
      samples.compose_ns.push_back(MicrosBetween(t0, t1) * 1000);
      samples.extract_us.push_back(MicrosBetween(t1, t2));
      samples.classify_us.push_back(MicrosBetween(t2, t3));
    }
    for (size_t i = 0; i < probes.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      auto mentions = extractor.ExtractTerms(documents[i]);
      const Clock::time_point t1 = Clock::now();
      if (!mentions.ok()) continue;
      std::vector<int64_t> resolved = extractor.Resolve(*mentions);
      const Clock::time_point t2 = Clock::now();
      size_t candidates = 0;
      classifier.SelectTopNodes(state->index, probes[i].part_id, features[i],
                                &scratch, &candidates);
      const Clock::time_point t3 = Clock::now();
      if (!record) continue;
      samples.annotate_us.push_back(MicrosBetween(t0, t1));
      samples.resolve_us.push_back(MicrosBetween(t1, t2));
      samples.select_us.push_back(MicrosBetween(t2, t3));
      if (round == 1) {
        samples.mentions.push_back(static_cast<double>(
            mentions->words.size() + mentions->concept_ids.size()));
        samples.features.push_back(static_cast<double>(resolved.size()));
        samples.candidates.push_back(static_cast<double>(candidates));
      }
    }
  }
  if (sink == 0) report->Fail("read path produced nothing");
  return samples;
}

/// Unary round trips of `payloads` on one connection; the RTTs in µs.
/// Every response must equal `expected` (when given) byte for byte.
std::vector<double> UnaryRtts(uint16_t port,
                              const std::vector<std::string>& payloads,
                              const std::vector<std::string>* expected,
                              const std::string& what, RunReport* report) {
  Channel channel;
  std::vector<double> rtts;
  if (!channel.Connect(port)) {
    report->Fail(what + ": connect failed");
    return rtts;
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::string response = channel.Call(payloads[i]);
    rtts.push_back(MicrosBetween(t0, Clock::now()));
    ++report->attempted;
    if (!ResponseOk(response)) ++report->failed;
    if (expected != nullptr && response != (*expected)[i]) ++mismatches;
  }
  Note("%s: %zu round trips, p50 %.1f us p99 %.1f us, %zu mismatches",
       what.c_str(), rtts.size(), Quantile(rtts, 0.5), Quantile(rtts, 0.99),
       mismatches);
  if (mismatches > 0) report->Fail(what + ": responses differ");
  return rtts;
}

void TimeServerLayers(Service& service, const Inputs& inputs,
                      RunReport* report) {
  const std::vector<std::string> frames = EncodeRecommendFrames(inputs.probes);
  std::vector<std::string> payloads, expected;
  std::vector<double> parse_us, encode_us, dispatch_us;
  double request_bytes = 0;
  double response_bytes = 0;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < frames.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const qatk::server::FrameDecode frame =
          qatk::server::DecodeFrame(frames[i]);
      auto request = qatk::server::ParseRequest(frame.payload);
      const DataBundle bundle = qatk::server::BundleFromParams(request->params);
      const Clock::time_point t1 = Clock::now();
      const qatk::server::Response response =
          qatk::server::Dispatch(&service, *request);
      const Clock::time_point t2 = Clock::now();
      auto recommendation = service.Recommend(bundle);
      const Clock::time_point t3 = Clock::now();
      std::string out;
      qatk::server::EncodeResponseTo(
          request->id, qatk::Status::OK(),
          qatk::server::RecommendationToJson(*recommendation), &out);
      const Clock::time_point t4 = Clock::now();
      report->attempted += 2;
      if (!response.ok() || !recommendation.ok()) ++report->failed;
      if (round == 0) {
        payloads.emplace_back(frame.payload);
        expected.push_back(out);
        request_bytes += static_cast<double>(frames[i].size());
        response_bytes += static_cast<double>(out.size() + 4);
        continue;
      }
      parse_us.push_back(MicrosBetween(t0, t1));
      dispatch_us.push_back(MicrosBetween(t1, t2));
      encode_us.push_back(MicrosBetween(t3, t4));
    }
  }
  auto node = std::make_unique<Server>(&service, OneLoop());
  if (!node->Start().ok()) return report->Fail("server start failed");
  UnaryRtts(node->port(), payloads, &expected, "warm-up", report);
  const std::vector<double> rtts =
      UnaryRtts(node->port(), payloads, &expected, "unary Recommend", report);
  node->Drain().Abort();
  const double n = static_cast<double>(frames.size());
  report->Set("server.parse_us", Median(parse_us), "us");
  report->Set("server.encode_us", Median(encode_us), "us");
  report->Set("server.transport_us", Median(rtts) - Median(dispatch_us), "us");
  report->Set("server.request_bytes", request_bytes / n, "bytes");
  report->Set("server.response_bytes", response_bytes / n, "bytes");
  Note("server: in-process Dispatch p50 %.1f us, unary RTT p50 %.1f us",
       Median(dispatch_us), Median(rtts));
}

void TimeClusterLayers(const Service& reference, const Inputs& inputs,
                       RunReport* report) {
  const qatk::kb::FeatureModel model = reference.options().model;
  std::vector<std::unique_ptr<Service>> shards;
  std::vector<std::unique_ptr<Server>> servers;
  qatk::cluster::Coordinator::Options options;
  options.sharder = "hash";
  for (uint32_t i = 0; i < kShards; ++i) {
    shards.push_back(std::make_unique<Service>(&inputs.world->taxonomy(),
                                               ShardOptions(model, i, kShards)));
    servers.push_back(std::make_unique<Server>(shards.back().get(), OneLoop()));
    if (!shards.back()->Train(inputs.train).ok() ||
        !servers.back()->Start().ok()) {
      return report->Fail("shard set-up failed");
    }
    options.shards.push_back({"127.0.0.1", servers.back()->port()});
  }
  qatk::cluster::Coordinator coordinator(std::move(options));
  Server front(&coordinator, OneLoop());
  if (!coordinator.Connect().ok() || !front.Start().ok()) {
    return report->Fail("cluster front set-up failed");
  }

  auto sharder = qatk::cluster::MakeSharder("hash", kShards);
  std::vector<size_t> per_shard(kShards, 0);
  std::vector<double> merge_us;
  size_t fallbacks = 0;
  std::vector<std::vector<std::string>> shard_payloads(kShards);
  std::vector<std::string> front_payloads, expected;
  for (size_t i = 0; i < inputs.probes.size(); ++i) {
    const DataBundle& probe = inputs.probes[i];
    const uint32_t owner = sharder->ShardFor(probe.part_id);
    ++per_shard[owner];
    Json params = qatk::server::BundleToParams(probe);
    front_payloads.push_back(qatk::server::EncodeRequest(
        static_cast<int64_t>(i), "Recommend", params));
    expected.push_back(ExpectedRecommendPayload(static_cast<int64_t>(i),
                                                reference.Recommend(probe)));
    std::vector<Service::ShardPartial> partials;
    auto owned = shards[owner]->ShardTopK(probe, /*fallback=*/false);
    ++report->attempted;
    if (!owned.ok()) {
      ++report->failed;
      continue;
    }
    if (owned->known_part) {
      params.Set("fallback", Json(false));
      shard_payloads[owner].push_back(qatk::server::EncodeRequest(
          static_cast<int64_t>(i), "ShardQuery", params));
      partials.push_back(std::move(owned).ValueOrDie());
    } else {
      ++fallbacks;
      for (const auto& shard : shards) {
        auto piece = shard->ShardTopK(probe, /*fallback=*/true);
        if (piece.ok()) partials.push_back(std::move(piece).ValueOrDie());
      }
    }
    for (int repeat = 0; repeat < 3; ++repeat) {
      const Clock::time_point t0 = Clock::now();
      auto merged = qatk::cluster::MergePartials(partials, 25, kTopN);
      const Clock::time_point t1 = Clock::now();
      if (repeat > 0) merge_us.push_back(MicrosBetween(t0, t1));
      if (repeat == 0 &&
          ExpectedRecommendPayload(static_cast<int64_t>(i),
                                   merged.recommendation) != expected[i]) {
        report->Fail("in-process merge != single node for probe " +
                     std::to_string(i));
      }
    }
  }
  std::vector<double> shard_rtts;
  for (uint32_t s = 0; s < kShards; ++s) {
    UnaryRtts(servers[s]->port(), shard_payloads[s], nullptr,
              "shard " + std::to_string(s) + " warm-up", report);
    std::vector<double> rtts =
        UnaryRtts(servers[s]->port(), shard_payloads[s], nullptr,
                  "ShardQuery to shard " + std::to_string(s), report);
    shard_rtts.insert(shard_rtts.end(), rtts.begin(), rtts.end());
  }
  UnaryRtts(front.port(), front_payloads, &expected, "front warm-up", report);
  const std::vector<double> front_rtts = UnaryRtts(
      front.port(), front_payloads, &expected, "Recommend via front", report);
  front.Drain().Abort();
  for (auto& server : servers) server->Drain().Abort();

  size_t hottest = 0;
  for (size_t count : per_shard) hottest = std::max(hottest, count);
  const double n = static_cast<double>(inputs.probes.size());
  Note("cluster: probes per shard %zu/%zu/%zu, %zu fallbacks", per_shard[0],
       per_shard[1], per_shard[2], fallbacks);
  report->Set("cluster.shard_rpc_us", Median(shard_rtts), "us");
  report->Set("cluster.merge_us", Median(merge_us), "us");
  report->Set("cluster.front_overhead_us",
              Median(front_rtts) - Median(shard_rtts), "us");
  report->Set("cluster.hot_shard_share", static_cast<double>(hottest) / n,
              "ratio");
  report->Set("cluster.fallback_share", static_cast<double>(fallbacks) / n,
              "ratio");
}

/// Write-path steps: extractor build, freeze, state copy, log append, and
/// whole confirms with the first read after each publish.
void TimeWritePath(Service& service, const Inputs& inputs,
                   const std::string& data_dir, RunReport* report) {
  const std::shared_ptr<const Service::TrainedState> state = service.Snapshot();
  std::vector<double> build_ms, freeze_ms, copy_ms, append_ms;
  size_t sink = 0;
  for (int i = 0; i < kWriteRepeats; ++i) {
    Clock::time_point t0 = Clock::now();
    {
      qatk::kb::FeatureExtractor extractor(service.options().model,
                                           &inputs.world->taxonomy(),
                                           &state->vocabulary);
      build_ms.push_back(MillisSince(t0));
    }
    t0 = Clock::now();
    const qatk::kb::FrozenIndex index =
        qatk::kb::FrozenIndex::Build(state->knowledge);
    freeze_ms.push_back(MillisSince(t0));
    sink += index.num_postings();
    t0 = Clock::now();
    auto copy = std::make_shared<Service::TrainedState>(*state);
    copy_ms.push_back(MillisSince(t0));
    sink += copy->knowledge.num_nodes();
  }
  const std::string log_path = data_dir + "/layer-probe.log";
  std::filesystem::remove(log_path);
  auto log = qatk::quest::ServiceLog::Open(log_path);
  if (!log.ok()) return report->Fail("service log open failed");
  for (int i = 0; i < kWriteRepeats; ++i) {
    const DataBundle& bundle = inputs.heldout[static_cast<size_t>(i)];
    const Clock::time_point t0 = Clock::now();
    const qatk::Status appended = (*log)->AppendConfirm(
        static_cast<uint64_t>(i + 1), bundle, bundle.error_code,
        static_cast<uint64_t>(kTrainBundles) + static_cast<uint64_t>(i));
    append_ms.push_back(MillisSince(t0));
    ++report->attempted;
    if (!appended.ok()) ++report->failed;
  }

  std::vector<double> confirm_ms, first_read_ms, second_read_ms;
  for (int i = 0; i < kConfirms; ++i) {
    const DataBundle& bundle = inputs.heldout[static_cast<size_t>(i)];
    const DataBundle& next = inputs.heldout[static_cast<size_t>(i + 1)];
    Clock::time_point t0 = Clock::now();
    const qatk::Status confirmed =
        service.ConfirmAssignment(bundle, bundle.error_code);
    confirm_ms.push_back(MillisSince(t0));
    t0 = Clock::now();
    auto first = service.Recommend(next);
    first_read_ms.push_back(MillisSince(t0));
    t0 = Clock::now();
    auto second = service.Recommend(next);
    second_read_ms.push_back(MillisSince(t0));
    report->attempted += 3;
    if (!confirmed.ok() || !first.ok() || !second.ok()) ++report->failed;
  }
  if (sink == 0) report->Fail("write path produced nothing");
  Note("write path: extractor build %.3f ms, freeze %.3f ms, state copy %.3f "
       "ms, log append %.3f ms, confirm %.3f ms, first read after publish "
       "%.3f ms vs %.3f ms for the next one",
       Median(build_ms), Median(freeze_ms), Median(copy_ms), Median(append_ms),
       Median(confirm_ms), Median(first_read_ms), Median(second_read_ms));
  report->Set("kb.extractor_build_ms", Median(build_ms), "ms");
  report->Set("kb.freeze_ms", Median(freeze_ms), "ms");
  report->Set("quest.state_copy_ms", Median(copy_ms), "ms");
  report->Set("quest.log_append_ms", Median(append_ms), "ms");
  report->Set("quest.confirm_ms", Median(confirm_ms), "ms");
  report->Set("quest.first_read_after_publish_ms", Median(first_read_ms),
              "ms");
}

}  // namespace

void RunLayers(const RunConfig& config, Inputs& inputs, RunReport* report) {
  const qatk::kb::FeatureModel model = WorkloadModel(config.workload);

  // quest.train_s: the median of three Trains.
  std::vector<double> train_s;
  std::unique_ptr<Service> service;
  for (int i = 0; i < 3; ++i) {
    service = std::make_unique<Service>(&inputs.world->taxonomy(),
                                        ServiceOptions(model));
    const Clock::time_point start = Clock::now();
    if (!service->Train(inputs.train).ok()) return report->Fail("train failed");
    train_s.push_back(SecondsSince(start));
  }
  report->Set("quest.train_s", Median(train_s), "s");

  const ReadSamples read =
      TimeReadPath(*service, inputs.world->taxonomy(), inputs.probes,
                   0.3 * config.seconds, report);
  const double recommend = Median(read.recommend_us);
  const double layers = Median(read.compose_ns) / 1000 +
                        Median(read.extract_us) + Median(read.classify_us);
  const double gap = (layers - recommend) / recommend;
  Note("closure: compose %.3f + extract %.3f + classify %.3f = %.3f us vs "
       "Recommend %.3f us (%+.1f%%, %zu samples each)",
       Median(read.compose_ns) / 1000, Median(read.extract_us),
       Median(read.classify_us), layers, recommend, 100 * gap,
       read.recommend_us.size());
  if (std::abs(gap) > kClosureTolerance) {
    report->Fail("closure: layer medians miss the Recommend median by more "
                 "than 10%");
  }
  report->Set("quest.recommend_us", recommend, "us");
  report->Set("kb.compose_ns", Median(read.compose_ns), "ns");
  report->Set("kb.extract_us", Median(read.extract_us), "us");
  report->Set("cas.annotate_us", Median(read.annotate_us), "us");
  report->Set("kb.resolve_us", Median(read.resolve_us), "us");
  report->Set("core.select_us", Median(read.select_us), "us");
  report->Set("core.classify_us", Median(read.classify_us), "us");
  report->Set("kb.mentions_per_doc", Mean(read.mentions), "count");
  report->Set("kb.features_per_doc", Mean(read.features), "count");
  report->Set("core.candidates_per_query", Mean(read.candidates), "count");
  report->Set("kb.index_nodes",
              static_cast<double>(service->frozen_index().num_nodes()),
              "count");
  report->Set("kb.index_postings",
              static_cast<double>(service->frozen_index().num_postings()),
              "count");

  TimeServerLayers(*service, inputs, report);
  TimeClusterLayers(*service, inputs, report);

  // load.lateness_us: the generator's p99 lateness at kOfferedRate.
  {
    const std::vector<std::string> frames =
        EncodeRecommendFrames(inputs.probes);
    Server server(service.get(), OneLoop());
    if (!server.Start().ok()) return report->Fail("server start failed");
    ResponseLedger ledger(inputs.probes.size());
    OpenLoopSpec load;
    load.name = "lateness";
    load.port = server.port();
    load.frames = &frames;
    load.seconds = 0.1 * config.seconds;
    load.ledger = &ledger;
    PhaseResult phase = RunOpenLoop(load);
    PrintPhase(phase);
    Account(phase, report);
    server.Drain().Abort();
    size_t covered = 0;
    if (LedgerMismatches(ledger, *service, inputs.probes, &covered) != 0) {
      report->Fail("lateness phase: wire != in-process");
    }
    report->Set("load.lateness_us", Quantile(phase.lateness_us, 0.99), "us");
  }

  TimeWritePath(*service, inputs, config.data_dir, report);
}

}  // namespace questbench
