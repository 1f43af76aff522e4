#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <deque>

#include "server/protocol.h"

namespace questbench {

namespace {

constexpr int kReadTimeoutMs = 10000;
/// How long a phase waits for stragglers after its sending window.
constexpr double kDrainSeconds = 3.0;

}  // namespace

Channel::~Channel() {
  if (fd_ >= 0) ::close(fd_);
}

bool Channel::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool Channel::SendAll(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool Channel::PopFrame(std::string* payload) {
  const qatk::server::FrameDecode decoded =
      qatk::server::DecodeFrame(buffer_);
  if (decoded.state != qatk::server::FrameDecode::State::kFrame) return false;
  payload->assign(decoded.payload);
  buffer_.erase(0, decoded.consumed);
  return true;
}

bool Channel::ReadFrame(std::string* payload) {
  char chunk[16384];
  while (!PopFrame(payload)) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kReadTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  return true;
}

bool Channel::Drain(std::vector<std::string>* payloads) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  std::string payload;
  while (PopFrame(&payload)) payloads->push_back(std::move(payload));
  return true;
}

std::string Channel::Call(std::string_view request_payload) {
  std::string frame;
  qatk::server::AppendFrame(request_payload, &frame);
  std::string payload;
  if (!SendAll(frame) || !ReadFrame(&payload)) return std::string();
  return payload;
}

std::vector<std::string> EncodeRecommendFrames(
    const std::vector<qatk::kb::DataBundle>& probes) {
  std::vector<std::string> frames;
  frames.reserve(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    std::string frame;
    qatk::server::AppendFrame(
        qatk::server::EncodeRequest(static_cast<int64_t>(i), "Recommend",
                                    qatk::server::BundleToParams(probes[i])),
        &frame);
    frames.push_back(std::move(frame));
  }
  return frames;
}

bool ResponseOk(std::string_view payload) {
  const size_t at = payload.find("\"code\":\"OK\"");
  return at != std::string_view::npos && at < 48;
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

bool ResponseLedger::Record(size_t probe, std::string_view payload) {
  const uint64_t hash = Fnv1a(payload);
  if (!seen_[probe]) {
    seen_[probe] = true;
    hashes_[probe] = hash;
    return true;
  }
  return hashes_[probe] == hash;
}

PhaseResult RunOpenLoop(const OpenLoopSpec& spec) {
  PhaseResult result;
  result.name = spec.name;

  // One thread sends on schedule and reads responses in between, never
  // sleeping: an idle thread's wake-up on this kind of host can take
  // milliseconds, which would be charged to the server.
  struct Pending {
    Clock::time_point due;
    size_t probe;
  };
  struct Lane {
    Channel channel;
    std::deque<Pending> pending;
    bool open = true;
  };
  std::vector<Lane> lanes(kConnections);
  for (Lane& lane : lanes) {
    if (!lane.channel.Connect(spec.port)) {
      std::fprintf(stderr, "%s: connect failed\n", spec.name.c_str());
      result.failed = 1;
      return result;
    }
  }

  const std::vector<std::string>& frames = *spec.frames;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOfferedRate));
  const Clock::time_point start = Clock::now();
  const Clock::time_point window_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.seconds));
  const Clock::time_point give_up =
      window_end + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(kDrainSeconds));
  result.lateness_us.reserve(static_cast<size_t>(kOfferedRate * spec.seconds) +
                             16);
  result.latency_us.reserve(result.lateness_us.capacity());
  uint64_t received = 0;
  bool sending = true;
  std::vector<std::string> payloads;
  for (Clock::time_point now = start;; now = Clock::now()) {
    if (sending) {
      const Clock::time_point due = start + period * static_cast<int64_t>(result.sent);
      if (due >= window_end) {
        sending = false;
      } else if (result.sent - received >= kMaxOutstanding) {
        sending = false;
        result.aborted = true;
      } else if (due <= now) {
        const size_t probe = (spec.first_probe + result.sent) % frames.size();
        Lane& lane = lanes[result.sent % lanes.size()];
        lane.pending.push_back(Pending{due, probe});
        result.lateness_us.push_back(MicrosBetween(due, now));
        if (!lane.channel.SendAll(frames[probe])) {
          lane.pending.pop_back();
          sending = false;
        } else {
          ++result.sent;
        }
        continue;  // Catch up before reading when behind schedule.
      }
    }
    if (!sending && received >= result.sent) break;
    if (now > give_up) break;
    for (Lane& lane : lanes) {
      if (!lane.open || lane.pending.empty()) continue;
      payloads.clear();
      lane.open = lane.channel.Drain(&payloads);
      if (payloads.empty()) continue;
      const Clock::time_point arrived = Clock::now();
      for (const std::string& payload : payloads) {
        if (lane.pending.empty()) {
          ++result.invalid;  // A response nobody asked for.
          continue;
        }
        const Pending pending = lane.pending.front();
        lane.pending.pop_front();
        ++received;
        if (!ResponseOk(payload)) {
          ++result.failed;
          continue;
        }
        if (!spec.ledger->Record(pending.probe, payload)) ++result.invalid;
        ++result.ok;
        result.latency_us.push_back(MicrosBetween(pending.due, arrived));
      }
    }
  }
  result.failed += result.sent - received;  // Never answered.
  return result;
}

void PrintPhase(const PhaseResult& phase) {
  Note("phase %-22s offered %8.1f/s sent %7llu ok %7llu failed %llu "
       "invalid %llu | p50 %8.1f us p90 %8.1f us p99 %8.1f us (n=%zu) | "
       "lateness p50 "
       "%.1f p99 %.1f us%s",
       phase.name.c_str(), kOfferedRate,
       static_cast<unsigned long long>(phase.sent),
       static_cast<unsigned long long>(phase.ok),
       static_cast<unsigned long long>(phase.failed),
       static_cast<unsigned long long>(phase.invalid),
       Quantile(phase.latency_us, 0.5), Quantile(phase.latency_us, 0.9),
       Quantile(phase.latency_us, 0.99), phase.latency_us.size(),
       Quantile(phase.lateness_us, 0.5),
       Quantile(phase.lateness_us, 0.99),
       phase.aborted ? " | ABORTED (stalled server)" : "");
}

void Account(const PhaseResult& phase, RunReport* report) {
  report->attempted += phase.sent;
  report->failed += phase.failed;
  if (phase.invalid > 0) {
    report->Fail(phase.name + ": " + std::to_string(phase.invalid) +
                 " responses failed a correctness check");
  }
}

}  // namespace questbench
