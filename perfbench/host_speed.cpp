#include "host_speed.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kSortKeys = 8192;
constexpr std::size_t kHashBytes = std::size_t{1} << 16;
constexpr std::size_t kHashPasses = 4;
constexpr int kMapKeys = 256;
constexpr int kHandoffTrips = 16;
/// About the size of a served annotate answer.
constexpr std::size_t kMessageBytes = 16384;

// The parts' median times at the reference speed (README.md, "Host
// speed"): rounded medians of quiet runs on the reference host.
constexpr double kReferenceComputeUs = 1000.0;
constexpr double kReferenceHandoffUs = 1200.0;

std::uint64_t next_random(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

bool transfer(int fd, unsigned char* buf, bool sending) {
  std::size_t done = 0;
  while (done < kMessageBytes) {
    const ssize_t n = sending ? ::write(fd, buf + done, kMessageBytes - done)
                              : ::read(fd, buf + done, kMessageBytes - done);
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads the whole message, as a server parses what it receives, and
/// leaves a mark in it, so the next hop carries changed bytes.
void consume(unsigned char* buf) {
  const std::uint64_t h = fnv1a(std::string_view(
      reinterpret_cast<const char*>(buf), kMessageBytes));
  std::memcpy(buf, &h, sizeof h);
}

}  // namespace

HostSpeed::HostSpeed()
    : keys_(kSortKeys),
      bytes_(kHashBytes),
      sinks_(kWorkers, 0),
      worker_us_(kWorkers, 0.0),
      phase_(static_cast<std::ptrdiff_t>(kWorkers)) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (auto& k : keys_) k = static_cast<std::uint32_t>(next_random(state));
  for (auto& b : bytes_) b = static_cast<unsigned char>(next_random(state));
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sockets_) != 0)
    throw std::runtime_error("host speed: socketpair failed");
  partner_ = std::thread([fd = sockets_[1]] {
    std::vector<unsigned char> buf(kMessageBytes);
    while (transfer(fd, buf.data(), false)) {
      consume(buf.data());
      if (!transfer(fd, buf.data(), true)) break;
    }
  });
  // The caller of sample() is the last worker.
  for (std::size_t w = 0; w + 1 < kWorkers; ++w)
    workers_.emplace_back([this, w] {
      for (;;) {
        phase_.arrive_and_wait();
        if (stopping_) return;
        compute(w);
        phase_.arrive_and_wait();
      }
    });
}

HostSpeed::~HostSpeed() {
  stopping_ = true;
  phase_.arrive_and_wait();
  for (auto& t : workers_) t.join();
  ::shutdown(sockets_[0], SHUT_RDWR);
  partner_.join();
  ::close(sockets_[0]);
  ::close(sockets_[1]);
}

void HostSpeed::compute(std::size_t worker) {
  const auto t0 = Clock::now();
  std::vector<std::uint32_t> sorted = keys_;
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t h = 0;
  for (std::size_t pass = 0; pass < kHashPasses; ++pass)
    h += fnv1a(std::string_view(reinterpret_cast<const char*>(bytes_.data()),
                                bytes_.size() - pass));
  std::map<std::string, int> names;
  char key[32];
  for (int i = 0; i < kMapKeys; ++i) {
    std::snprintf(key, sizeof key, "v%u_%d",
                  sorted[static_cast<std::size_t>(i)] % 97, i);
    names[key] += i;
  }
  sinks_[worker] += h + names.size() + sorted[kSortKeys / 2];
  worker_us_[worker] = elapsed_us(t0);
}

void HostSpeed::sample() {
  // Every worker times its own share, so a worker that waits for a core
  // counts its own wait and nobody else's; the part is their mean.
  phase_.arrive_and_wait();
  compute(kWorkers - 1);
  phase_.arrive_and_wait();
  double total = 0.0;
  for (const double us : worker_us_) total += us;
  compute_us_.push_back(total / kWorkers);

  std::vector<unsigned char> buf = bytes_;
  buf.resize(kMessageBytes);
  const auto t0 = Clock::now();
  for (int i = 0; i < kHandoffTrips; ++i) {
    if (!transfer(sockets_[0], buf.data(), true) ||
        !transfer(sockets_[0], buf.data(), false))
      throw std::runtime_error("host speed: hand-off partner is gone");
    consume(buf.data());
  }
  handoff_us_.push_back(elapsed_us(t0));
}

double HostSpeed::factor() const {
  if (compute_us_.empty()) throw std::logic_error("host speed: no slice run");
  return kReferenceComputeUs / quantile(compute_us_, 0.5) *
         kReferenceHandoffUs / quantile(handoff_us_, 0.5);
}

std::vector<Metric> HostSpeed::readings() const {
  return {{"host.compute_us", quantile(compute_us_, 0.5), "us"},
          {"host.handoff_us", quantile(handoff_us_, 0.5), "us"},
          {"host.speed_factor", factor(), "ratio"},
          {"host.slices", static_cast<double>(compute_us_.size()), "count"}};
}

}  // namespace perfbench
