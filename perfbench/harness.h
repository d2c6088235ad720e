// Shared plumbing of the served-system benchmark: run arguments, the
// result record every workload fills in, timing helpers, the scratch
// directory a run owns, and the cluster under test.
//
// The cluster is the deployment examples/replication_cluster runs, built
// in-process so that a run stopped from outside cannot leave a backend
// behind: two ClusterBackends (fresh disk cache + journal each), each
// behind a ReplicationServer on a Unix socket, and a Dispatcher with
// replication_factor = 2 behind a front ReplicationServer. It sets only
// what a deployment must set — endpoints, cache/journal/log paths, the
// cache version and R — so every other option runs at its default.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/backend.h"
#include "cluster/dispatcher.h"
#include "service/json.h"
#include "service/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using decompeval::service::Json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Seconds since the process started (see harness.cpp); setup_s.
double seconds_since_start();

/// Nearest-rank quantile of an unsorted sample (copied, then sorted).
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

std::uint64_t fnv1a(std::string_view text);
std::string hex64(std::uint64_t v);

/// One timed request: how long it took, which client sent it, and the
/// units of work it did (1 for a request, the arrivals of a stream batch).
struct Sample {
  double latency_us = 0.0;
  std::size_t client = 0;
  double work = 1.0;
};

std::vector<double> latencies(const std::vector<Sample>& samples);
/// Work per second of closed-loop clients: for each client, the work in
/// `work` over the time all of its requests in `busy` took, summed over
/// clients. Client-side bookkeeping and the last round's overrun of the
/// deadline count for nothing, so a rate never rounds off at the deadline.
double closed_loop_rate(const std::vector<Sample>& work,
                        const std::vector<Sample>& busy);

/// One named reading with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. `roles` are the end-to-end metrics in
/// BENCHMARK.json as measured on this host; `named` are the same readings
/// under the names the workload's own documentation uses (printed as a
/// table, for people). `host` is the run's HostSpeed readings, whose
/// factor driver.cpp applies to `roles` (host_speed.h).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> roles;
  std::vector<Metric> named;
  double speed_factor = 1.0;
  std::vector<Metric> host;

  /// Records an output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  bool correct() const { return check_failures.empty(); }
};

/// Closed-loop request counters of one client thread.
struct ClientTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Sends one request; a transport error or a non-"ok" status counts as a
/// failure (the response, if any, is returned for the caller to keep).
Json timed_call(decompeval::service::ServiceClient& client, const Json& request,
                ClientTally& tally, double* elapsed_us);

/// The scratch root of one run (sockets, caches, journals, arrival logs),
/// created fresh and removed on destruction. Signal-driven exits remove
/// it too (see driver.cpp).
class ScratchRoot {
 public:
  explicit ScratchRoot(std::string path);
  ~ScratchRoot();
  ScratchRoot(const ScratchRoot&) = delete;
  ScratchRoot& operator=(const ScratchRoot&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class BenchCluster {
 public:
  static constexpr std::size_t kBackends = 2;

  explicit BenchCluster(const std::string& root);
  ~BenchCluster();
  BenchCluster(const BenchCluster&) = delete;
  BenchCluster& operator=(const BenchCluster&) = delete;

  const std::string& front_socket() const { return front_socket_; }
  const std::string& backend_socket(std::size_t i) const {
    return backend_sockets_[i];
  }
  std::string backend_id(std::size_t i) const;
  decompeval::cluster::Dispatcher& dispatcher() { return *dispatcher_; }
  /// Index of the backend this cluster's dispatcher routes `request` to.
  std::size_t primary_of(const Json& request) const;
  /// Stops the front, dispatcher and backend servers (idempotent).
  void stop();

 private:
  std::vector<std::unique_ptr<decompeval::cluster::ClusterBackend>> backends_;
  std::vector<std::unique_ptr<decompeval::service::ReplicationServer>> servers_;
  std::vector<std::string> backend_sockets_;
  std::unique_ptr<decompeval::cluster::Dispatcher> dispatcher_;
  std::unique_ptr<decompeval::service::ReplicationServer> front_;
  std::string front_socket_;
  bool stopped_ = false;
};

/// Index of the backend a BenchCluster routes `request` to first. The
/// ring is a pure function of the backend ids, so workloads use this to
/// generate inputs before any cluster runs.
std::size_t routed_backend(const Json& request);

/// Reads one numeric field of a local op answered by `socket` (e.g.
/// cluster_stats through the front, journal_stats on a backend).
double query_number(const std::string& socket, const std::string& op,
                    const std::string& field);

/// Runs `body(client_index)` on `n` threads and joins them all.
void run_clients(std::size_t n, const std::function<void(std::size_t)>& body);

// Workload entry points (one file each). `scratch` is the run's root.
Outcome run_annotate_session(const Args& args, const std::string& scratch);
Outcome run_stream_live(const Args& args, const std::string& scratch);

// Per-layer replays for traced runs: every traced run measures every
// layer on the inputs of the workload that exercises it (same seed).
// The study's layers have no listed workload of their own, so their
// replay also runs the study's output checks into `checks`.
void trace_annotate_layers(const Args& args, const std::string& scratch,
                           std::vector<Metric>& out);
void trace_study_layers(const Args& args, const std::string& scratch,
                        std::vector<Metric>& out, Outcome& checks);
void trace_stream_layers(const Args& args, const std::string& scratch,
                         std::vector<Metric>& out);

}  // namespace perfbench
