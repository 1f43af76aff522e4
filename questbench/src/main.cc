// quest_bench: the QUEST end-to-end benchmark program.
//
//   quest_bench --workload serve-boc|serve-bow
//               --seed N --seconds S --trace 0|1 --data-root DIR
//               [--git-sha SHA] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// layer breakdown instead. Informational lines (provenance, phases,
// checks) come first; the last line of stdout is the JSON result. The exit
// code is 0 only when every correctness check passed.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"
#include "common/logging.h"
#include "server/json.h"

namespace questbench {
namespace {

const char* const kWorkloads[] = {"serve-boc", "serve-bow"};

const char* const kEndToEnd[] = {"setup_s",        "peak_rss_mb",
                                 "recommend_per_s", "coded_per_s",
                                 "confirm_p50_ms",  "accuracy_at_10"};

const char* const kPerLayer[] = {
    "quest.recommend_us",     "quest.confirm_ms",
    "quest.state_copy_ms",    "quest.log_append_ms",
    "quest.first_read_after_publish_ms", "quest.train_s",
    "kb.compose_ns",          "kb.extract_us",
    "cas.annotate_us",        "kb.resolve_us",
    "kb.extractor_build_ms",  "kb.freeze_ms",
    "kb.mentions_per_doc",    "kb.features_per_doc",
    "kb.index_nodes",         "kb.index_postings",
    "core.select_us",         "core.classify_us",
    "core.candidates_per_query", "server.parse_us",
    "server.encode_us",       "server.transport_us",
    "server.request_bytes",   "server.response_bytes",
    "cluster.shard_rpc_us",   "cluster.merge_us",
    "cluster.front_overhead_us", "cluster.hot_shard_share",
    "cluster.fallback_share", "load.lateness_us"};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Type of the filesystem holding `path` (longest mount-point prefix).
std::string FilesystemOf(const std::string& path) {
  std::error_code error;
  const std::string real = std::filesystem::canonical(path, error).string();
  std::ifstream mounts("/proc/self/mounts");
  std::string device, mount_point, type, rest;
  std::string best_type = "unknown";
  size_t best_length = 0;
  while (mounts >> device >> mount_point >> type &&
         std::getline(mounts, rest)) {
    const bool prefix =
        real.rfind(mount_point, 0) == 0 &&
        (real.size() == mount_point.size() || mount_point == "/" ||
         real[mount_point.size()] == '/');
    if (prefix && mount_point.size() >= best_length) {
      best_length = mount_point.size();
      best_type = type;
    }
  }
  return best_type;
}

void PrintProvenance(const RunConfig& config, const std::string& git_sha,
                     const std::string& digest) {
  qatk::server::Json provenance = qatk::server::Json::Object();
  provenance.Set("git_sha", qatk::server::Json(git_sha));
  provenance.Set("source_digest", qatk::server::Json(digest));
  provenance.Set("compiler", qatk::server::Json(QUESTBENCH_COMPILER));
  provenance.Set("build_type", qatk::server::Json(QUESTBENCH_BUILD_TYPE));
  provenance.Set("nproc", qatk::server::Json(static_cast<int64_t>(
                              sysconf(_SC_NPROCESSORS_ONLN))));
  provenance.Set("cpu_model", qatk::server::Json(CpuModel()));
  provenance.Set("data_dir_fs",
                 qatk::server::Json(FilesystemOf(config.data_dir)));
  provenance.Set("workload", qatk::server::Json(config.workload));
  provenance.Set("seed", qatk::server::Json(static_cast<int64_t>(config.seed)));
  provenance.Set("seconds", qatk::server::Json(config.seconds));
  provenance.Set("trace", qatk::server::Json(config.trace));
  std::printf("provenance %s\n", provenance.Dump().c_str());
}

void PrintResult(const RunReport& report) {
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metric.value);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "quest_bench: %s\nusage: quest_bench --workload "
               "serve-boc|serve-bow --seed N "
               "--seconds S --trace 0|1 --data-root DIR\n",
               error);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string data_root;
  std::string git_sha = "none";
  std::string digest = "none";
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--data-root") {
      data_root = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  bool known = false;
  for (const char* name : kWorkloads) known |= config.workload == name;
  if (!known) return Usage("unknown workload");
  if (trace != "0" && trace != "1") return Usage("--trace is 0 or 1");
  if (!(config.seconds >= 1 && config.seconds <= 60)) {
    return Usage("--seconds must be within 1..60");
  }
  if (data_root.empty()) return Usage("--data-root is required");
  config.trace = trace == "1";
  config.data_dir = data_root + "/run-" + std::to_string(getpid());
  std::filesystem::remove_all(config.data_dir);
  std::filesystem::create_directories(config.data_dir);

  qatk::SetMinLogLevel(qatk::LogLevel::kWarn);
  PrintProvenance(config, git_sha, digest);
  Inputs inputs = MakeInputs(config.seed);
  double document_bytes = 0;
  for (const qatk::kb::DataBundle& probe : inputs.probes) {
    document_bytes += static_cast<double>(
        qatk::kb::ComposeDocument(probe, qatk::kb::kTestSources, inputs.train)
            .size());
  }
  Note("inputs: %zu training bundles, %zu held-out, %zu replay probes "
       "(1 in %zu with an unknown part), %.0f-byte composed documents on "
       "average, generated in %.3f s",
       inputs.train.bundles.size(), inputs.heldout.size(),
       inputs.probes.size(), kUnknownEvery,
       document_bytes / static_cast<double>(inputs.probes.size()),
       inputs.generate_s);

  RunReport report;
  if (config.trace) {
    RunLayers(config, inputs, &report);
  } else {
    RunServe(config, WorkloadModel(config.workload), inputs, &report);
  }
  std::filesystem::remove_all(config.data_dir);

  if (config.trace) {
    for (const char* name : kPerLayer) {
      if (report.metrics.count(name) == 0) {
        report.Fail(std::string("metric not measured: ") + name);
      }
    }
  } else {
    for (const char* name : kEndToEnd) {
      if (report.metrics.count(name) == 0) {
        report.Fail(std::string("metric not measured: ") + name);
      }
    }
  }
  if (report.attempted == 0) report.Fail("no operation attempted");
  std::fflush(stdout);
  PrintResult(report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace questbench

int main(int argc, char** argv) { return questbench::Main(argc, argv); }
