// How fast the host runs while a workload runs, read from a fixed kernel
// that belongs to the benchmark, not to the program.
//
// The reference host is a 4-vCPU VM on a shared machine whose speed moves
// over seconds to minutes (neighbours' load, power states, memory
// traffic), and that moves every wall-clock figure of a run together. A
// workload interleaves short slices of this kernel with its requests, each
// slice run while the cluster has no request in flight, and driver.cpp
// scales the run's end-to-end figures by factor(). A figure then reads
// what the run would have read with the host at the reference speed, and a
// change to the program still moves it fully, because the kernel runs none
// of the program's code.
//
// A slice has two parts, each about a millisecond at the reference speed,
// named after the costs of a served request they stand in for:
//   compute  a sort, FNV-1a over a buffer and a small string map
//            (branches, hashing, allocation, as in JSON and lint work),
//            run on kWorkers threads at once, one per vCPU of the
//            reference host, each timing its own share
//   handoff  round trips of a 16 KiB message over a Unix socket pair to
//            a partner thread, each side reading all of it (the wake-ups,
//            copies and cache transfers of every served hop)
#pragma once

#include <barrier>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {

class HostSpeed {
 public:
  static constexpr std::size_t kWorkers = 4;

  /// Builds the inputs and starts the worker and hand-off threads (not
  /// timed).
  HostSpeed();
  /// Stops every thread it started and waits for each.
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Runs one slice and records its parts' times.
  void sample();
  /// The run's correction: 1 at the reference speed, below 1 when the host
  /// ran slower. It is the product of the two parts' ratios of reference
  /// to median time, not their geometric mean, because the served figures
  /// move about twice as much as either part when the host's speed moves
  /// (README.md, "Host speed").
  double factor() const;
  /// The parts' median times, the factor and the slice count.
  std::vector<Metric> readings() const;

 private:
  void compute(std::size_t worker);

  std::vector<std::uint32_t> keys_;
  std::vector<unsigned char> bytes_;
  std::vector<std::uint64_t> sinks_;
  std::vector<double> worker_us_;  ///< each worker's compute, last slice
  std::barrier<> phase_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  int sockets_[2] = {-1, -1};
  std::thread partner_;
  std::vector<double> compute_us_, handoff_us_;
};

}  // namespace perfbench
