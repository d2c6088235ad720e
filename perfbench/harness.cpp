#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "cluster/hash_ring.h"
#include "core/replication.h"

namespace perfbench {

namespace {

// The process's start, as near as the driver can read it: this file's
// static initialisation, after the loader has mapped the program. The
// spawn itself (fork, exec, dynamic linking) is left out: it belongs to
// whatever launched the driver.
const Clock::time_point kProcessStart = Clock::now();

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Counts a failed request and describes the first few on stderr, so a
/// failure in a long run can be traced to its request and answer.
void report_failure(const Json& request, const std::string& what,
                    ClientTally& tally) {
  static std::atomic<int> reported{0};
  ++tally.failed;
  if (reported.fetch_add(1) >= 5) return;
  std::fprintf(stderr, "perfbench: %s request failed: %s\n",
               request.get_string("op", "?").c_str(), what.c_str());
}

}  // namespace

double seconds_since_start() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double closed_loop_rate(const std::vector<Sample>& work,
                        const std::vector<Sample>& busy) {
  std::size_t clients = 0;
  for (const Sample& s : busy) clients = std::max(clients, s.client + 1);
  std::vector<double> done(clients, 0.0), busy_us(clients, 0.0);
  for (const Sample& s : work) done[s.client] += s.work;
  for (const Sample& s : busy) busy_us[s.client] += s.latency_us;
  double rate = 0.0;
  for (std::size_t c = 0; c < clients; ++c)
    if (busy_us[c] > 0.0) rate += done[c] / (busy_us[c] / 1e6);
  return rate;
}

std::vector<double> latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.latency_us);
  return out;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

Json timed_call(decompeval::service::ServiceClient& client, const Json& request,
                ClientTally& tally, double* elapsed_us) {
  ++tally.attempted;
  const auto t0 = Clock::now();
  Json response;
  try {
    response = client.call(request);
  } catch (const std::exception& e) {
    if (elapsed_us != nullptr) *elapsed_us = us_between(t0, Clock::now());
    report_failure(request, e.what(), tally);
    return Json::object();
  }
  if (elapsed_us != nullptr) *elapsed_us = us_between(t0, Clock::now());
  if (response.get_string("status", "") != "ok") {
    std::string answer = response.dump();
    if (answer.size() > 300) answer.resize(300);
    report_failure(request, answer, tally);
  }
  return response;
}

ScratchRoot::ScratchRoot(std::string path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchRoot::~ScratchRoot() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

BenchCluster::BenchCluster(const std::string& root) {
  namespace cluster = decompeval::cluster;
  namespace service = decompeval::service;
  cluster::DispatcherOptions dispatch;
  dispatch.replication_factor = 2;
  for (std::size_t i = 0; i < kBackends; ++i) {
    const std::string dir = root + "/" + backend_id(i);
    std::filesystem::create_directories(dir + "/streams");
    cluster::ClusterBackendOptions options;
    options.cache.directory = dir + "/cache";
    options.cache.version = decompeval::core::version();
    // Beside the cache directory, never inside it: the cache janitor
    // sweeps stray files there.
    options.journal.path = dir + "/journal";
    options.stream_log_dir = dir + "/streams";
    backends_.push_back(std::make_unique<cluster::ClusterBackend>(options));

    service::ServerOptions server;
    server.socket_path = root + "/" + backend_id(i) + ".sock";
    server.handler = backends_.back()->handler();
    server.fast_path = backends_.back()->fast_path();
    servers_.push_back(std::make_unique<service::ReplicationServer>(server));
    servers_.back()->start();
    backend_sockets_.push_back(server.socket_path);

    cluster::BackendEndpoint endpoint;
    endpoint.id = backend_id(i);
    endpoint.socket_path = server.socket_path;
    dispatch.backends.push_back(endpoint);
  }
  dispatcher_ = std::make_unique<cluster::Dispatcher>(dispatch);
  dispatcher_->start();
  service::ServerOptions front;
  front.socket_path = root + "/front.sock";
  front.handler = dispatcher_->handler();
  front.fast_path = dispatcher_->fast_path();
  front_ = std::make_unique<service::ReplicationServer>(front);
  front_->start();
  front_socket_ = front.socket_path;
}

BenchCluster::~BenchCluster() { stop(); }

void BenchCluster::stop() {
  if (stopped_) return;
  stopped_ = true;
  front_->stop();
  dispatcher_->stop();
  for (auto& server : servers_) server->stop();
}

std::string BenchCluster::backend_id(std::size_t i) const {
  return "backend-" + std::to_string(i);
}

std::size_t BenchCluster::primary_of(const Json& request) const {
  std::string key;
  decompeval::service::routing_key(request, key);
  const std::string id = dispatcher_->ring().primary(key);
  for (std::size_t i = 0; i < kBackends; ++i)
    if (backend_id(i) == id) return i;
  throw std::runtime_error("ring routed to unknown backend '" + id + "'");
}

std::size_t routed_backend(const Json& request) {
  static const decompeval::cluster::HashRing ring = [] {
    decompeval::cluster::HashRing r(
        decompeval::cluster::DispatcherOptions{}.virtual_nodes);
    for (std::size_t i = 0; i < BenchCluster::kBackends; ++i)
      r.add("backend-" + std::to_string(i));
    return r;
  }();
  std::string key;
  decompeval::service::routing_key(request, key);
  const std::string id = ring.primary(key);
  return static_cast<std::size_t>(std::stoul(id.substr(id.find('-') + 1)));
}

double query_number(const std::string& socket, const std::string& op,
                    const std::string& field) {
  decompeval::service::ServiceClient client;
  client.connect(socket);
  Json request = Json::object();
  request.set("op", Json::string(op));
  const Json response = client.call(request);
  if (response.get_string("status", "") != "ok")
    throw std::runtime_error(op + " failed: " + response.dump());
  return response.get_number(field, 0.0);
}

void run_clients(std::size_t n, const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(n);
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads.emplace_back([&, i] {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace perfbench
