// Load generation over the QUEST wire protocol: a blocking unary channel
// and the open-loop generator (one thread that sends on schedule and reads
// in between, over kConnections connections).
#ifndef QUESTBENCH_WIRE_H_
#define QUESTBENCH_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "kb/data_bundle.h"

namespace questbench {

/// One blocking TCP connection (TCP_NODELAY) speaking length-prefixed
/// frames. Not thread-safe; owns its socket.
class Channel {
 public:
  Channel() = default;
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool Connect(uint16_t port);
  /// Writes all of `bytes`; false on a transport error.
  bool SendAll(std::string_view bytes);
  /// Blocks (up to 10 s) for one whole frame; false on error or timeout.
  bool ReadFrame(std::string* payload);
  /// Non-blocking: appends whatever the socket holds to the read buffer,
  /// then pops every whole frame into `payloads`. False on EOF or error.
  bool Drain(std::vector<std::string>* payloads);
  /// Frame + send + receive; the response payload, or empty on failure.
  std::string Call(std::string_view request_payload);

 private:
  bool PopFrame(std::string* payload);

  int fd_ = -1;
  std::string buffer_;
};

/// Pre-encoded Recommend frames for the replay probes; the request id is
/// the probe index, so one probe always gets the same response bytes.
std::vector<std::string> EncodeRecommendFrames(
    const std::vector<qatk::kb::DataBundle>& probes);

/// True when a response payload carries code OK.
bool ResponseOk(std::string_view payload);

/// Per-probe record of the response bytes seen on the wire (FNV-1a of the
/// payload). Every later response for a probe must hash the same as the
/// first one; after the run the checks compare each recorded hash with
/// the hash of the in-process answer.
class ResponseLedger {
 public:
  explicit ResponseLedger(size_t probes)
      : hashes_(probes, 0), seen_(probes, false) {}
  /// False when `payload` differs from an earlier response to `probe`.
  bool Record(size_t probe, std::string_view payload);
  bool seen(size_t probe) const { return seen_[probe]; }
  uint64_t hash(size_t probe) const { return hashes_[probe]; }
  size_t size() const { return hashes_.size(); }

 private:
  std::vector<uint64_t> hashes_;
  std::vector<bool> seen_;
};

uint64_t Fnv1a(std::string_view bytes);

/// Connections of the open-loop generator (at most nproc).
inline constexpr size_t kConnections = 2;
/// Offered requests per second of every open-loop phase: about a quarter of
/// what one server loop sustains, so latency shows the request path rather
/// than queueing.
inline constexpr double kOfferedRate = 2000;

struct OpenLoopSpec {
  std::string name;
  uint16_t port = 0;
  const std::vector<std::string>* frames = nullptr;
  /// Probe index of the first request; later ones follow cyclically.
  size_t first_probe = 0;
  double seconds = 1;
  /// Records every response; each must be byte-stable per probe.
  ResponseLedger* ledger = nullptr;
};

/// What one open-loop phase saw. Latency is timed from each request's due
/// time, so a stall is charged to every request it delays.
struct PhaseResult {
  std::string name;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;   ///< Error responses, unanswered or unsent.
  uint64_t invalid = 0;  ///< Responses that failed a correctness check.
  std::vector<double> latency_us;   ///< Successful responses only.
  std::vector<double> lateness_us;  ///< Send time minus due time.
  /// The generator stopped sending early because kMaxOutstanding requests
  /// were unanswered (a long stall of the server). This keeps the load
  /// clear of the server's admission cap, so a stall shows as latency and
  /// never as refused requests.
  bool aborted = false;
};

inline constexpr uint64_t kMaxOutstanding = 512;

PhaseResult RunOpenLoop(const OpenLoopSpec& spec);

/// Prints one phase line: sent/ok/failed, p50, p90 and p99 (with the
/// sample count) and the generator's lateness.
void PrintPhase(const PhaseResult& phase);

/// Folds a phase into the run's attempted/failed counts and correctness.
void Account(const PhaseResult& phase, RunReport* report);

}  // namespace questbench

#endif  // QUESTBENCH_WIRE_H_
