#include "cluster/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <stdexcept>
#include <utility>

#include "streaming/engine.h"
#include "util/check.h"

namespace decompeval::cluster {

namespace {

service::Json error_response(const std::string& message) {
  service::Json r = service::Json::object();
  r.set("status", service::Json::string("error"));
  r.set("error", service::Json::string(message));
  return r;
}

void echo_op(service::Json& response, const service::Json& request) {
  if (!request.is_object()) return;
  const service::Json* op = request.get("op");
  if (op != nullptr && op->type() == service::Json::Type::kString)
    response.set("op", service::Json::string(op->as_string()));
}

/// A request whose "ok" answer is a pure function of its canonical key:
/// the one fact behind the line cache, replication and hedging.
bool cacheable_request(const service::Json& request) {
  if (!request.is_object()) return false;
  const service::Json* op = request.get("op");
  if (op == nullptr || op->type() != service::Json::Type::kString)
    return false;
  const auto& name = op->as_string();
  if (name != "run_study" && name != "run_replication" && name != "annotate")
    return false;
  return !request.get_bool("no_cache", false);
}

}  // namespace

Dispatcher::Dispatcher(DispatcherOptions options)
    : options_(std::move(options)),
      faults_(options_.fault_plan),
      ring_(options_.virtual_nodes),
      // A fault plan disables the response fast lane: a cached answer
      // would skip "cluster.backend"/"cluster.forward" hits and shift
      // their deterministic sequences.
      line_cache_(options_.fault_plan.empty()
                      ? options_.response_cache_capacity
                      : 0) {
  DE_EXPECTS_MSG(!options_.backends.empty(),
                 "Dispatcher needs at least one backend");
  for (const BackendEndpoint& endpoint : options_.backends) {
    DE_EXPECTS_MSG(!endpoint.id.empty(), "backend id must be non-empty");
    DE_EXPECTS_MSG(by_id_.count(endpoint.id) == 0,
                   "duplicate backend id '" + endpoint.id + "'");
    by_id_.emplace(endpoint.id, backends_.size());
    auto state = std::make_unique<BackendState>();
    state->endpoint = endpoint;
    state->retry_tokens = options_.retry_budget_initial;
    if (options_.breaker_latency_window > 0)
      state->latency_window.assign(options_.breaker_latency_window, 0.0);
    backends_.push_back(std::move(state));
    ring_.add(endpoint.id);
  }
}

std::uint64_t Dispatcher::clock_ms() const {
  if (options_.now_ms) return options_.now_ms();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Dispatcher::~Dispatcher() { stop(); }

void Dispatcher::start() {
  if (running_.exchange(true)) return;
  if (options_.health_interval_ms > 0)
    prober_thread_ = std::thread([this] { prober_loop(); });
}

void Dispatcher::stop() {
  running_.store(false);
  if (prober_thread_.joinable()) prober_thread_.join();
  for (const auto& backend : backends_) {
    const std::lock_guard<std::mutex> lock(backend->pool_mutex);
    backend->idle.clear();
  }
}

bool Dispatcher::backend_up(const std::string& id) const {
  const auto it = by_id_.find(id);
  return it != by_id_.end() && backends_[it->second]->up.load();
}

DispatcherStats Dispatcher::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::unique_ptr<service::ServiceClient> Dispatcher::acquire(
    BackendState& backend, int connect_attempts) {
  {
    const std::lock_guard<std::mutex> lock(backend.pool_mutex);
    if (!backend.idle.empty()) {
      auto conn = std::move(backend.idle.back());
      backend.idle.pop_back();
      return conn;
    }
  }
  auto conn = std::make_unique<service::ServiceClient>();
  // Timeout set before connect so it bounds the handshake too: a
  // partitioned backend that accepts SYNs but never answers must cost at
  // most one forward_timeout, not an unbounded blocking connect(2).
  conn->set_timeout_ms(options_.forward_timeout_ms);
  if (!backend.endpoint.socket_path.empty())
    conn->connect(backend.endpoint.socket_path, connect_attempts);
  else
    conn->connect_tcp(backend.endpoint.host, backend.endpoint.port,
                      connect_attempts);
  return conn;
}

void Dispatcher::release(BackendState& backend,
                         std::unique_ptr<service::ServiceClient> conn) {
  const std::lock_guard<std::mutex> lock(backend.pool_mutex);
  if (backend.idle.size() < options_.pool_capacity)
    backend.idle.push_back(std::move(conn));
  // else: drop it; the destructor closes the socket.
}

Dispatcher::Admit Dispatcher::admit_for_attempt(BackendState& backend,
                                                bool is_retry) {
  const std::lock_guard<std::mutex> lock(backend.robust_mutex);
  if (backend.breaker == BackendState::Breaker::kOpen) {
    if (clock_ms() - backend.breaker_opened_ms < options_.breaker_cooldown_ms)
      return Admit::kBreakerOpen;
    // Cooldown elapsed: half-open. Exactly one probe request is admitted
    // until it reports back.
    backend.breaker = BackendState::Breaker::kHalfOpen;
    backend.half_open_probe_in_flight = false;
  }
  if (backend.breaker == BackendState::Breaker::kHalfOpen &&
      backend.half_open_probe_in_flight)
    return Admit::kBreakerOpen;
  if (is_retry && options_.retry_budget_ratio > 0.0) {
    if (backend.retry_tokens < 1.0) return Admit::kBudgetSpent;
    backend.retry_tokens -= 1.0;
  }
  if (backend.breaker == BackendState::Breaker::kHalfOpen)
    backend.half_open_probe_in_flight = true;
  return Admit::kOk;
}

void Dispatcher::clear_probe_slot(BackendState& backend) {
  const std::lock_guard<std::mutex> lock(backend.robust_mutex);
  backend.half_open_probe_in_flight = false;
}

void Dispatcher::note_success(BackendState& backend, double latency_ms) {
  {
    const std::lock_guard<std::mutex> lock(backend.robust_mutex);
    backend.half_open_probe_in_flight = false;
    backend.breaker = BackendState::Breaker::kClosed;
    backend.consecutive_failures = 0;
    backend.transport_failures = 0;
    if (options_.retry_budget_ratio > 0.0)
      backend.retry_tokens =
          std::min(options_.retry_budget_cap,
                   backend.retry_tokens + options_.retry_budget_ratio);
    if (!backend.latency_window.empty()) {
      backend.latency_window[backend.latency_next] = latency_ms;
      backend.latency_next =
          (backend.latency_next + 1) % backend.latency_window.size();
      ++backend.latency_count;
    }
  }
  maybe_eject_slow_peer(backend);
}

void Dispatcher::note_failure(BackendState& backend, bool overload) {
  (void)overload;  // both kinds count identically toward the breaker
  if (options_.breaker_failure_threshold <= 0) {
    clear_probe_slot(backend);
    return;
  }
  bool opened = false;
  {
    const std::lock_guard<std::mutex> lock(backend.robust_mutex);
    backend.half_open_probe_in_flight = false;
    if (backend.breaker == BackendState::Breaker::kHalfOpen) {
      // The single probe failed: straight back to open, cooldown restarts.
      backend.breaker = BackendState::Breaker::kOpen;
      backend.breaker_opened_ms = clock_ms();
      opened = true;
    } else if (backend.breaker == BackendState::Breaker::kClosed &&
               ++backend.consecutive_failures >=
                   options_.breaker_failure_threshold) {
      backend.breaker = BackendState::Breaker::kOpen;
      backend.breaker_opened_ms = clock_ms();
      backend.consecutive_failures = 0;
      opened = true;
    }
  }
  if (opened) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.breaker_opens;
  }
}

void Dispatcher::note_transport_failure(BackendState& backend) {
  bool down = true;
  if (options_.down_after_failures > 1) {
    const std::lock_guard<std::mutex> lock(backend.robust_mutex);
    down = ++backend.transport_failures >= options_.down_after_failures;
    if (down) backend.transport_failures = 0;
  }
  if (down) mark_down(backend);
}

void Dispatcher::mark_down(BackendState& backend) {
  backend.up.store(false);
  // Whatever comes back up may be a restarted process with another cache:
  // forget what it was sent, so the next request installs again.
  const std::lock_guard<std::mutex> lock(backend.installed_mutex);
  backend.installed.clear();
  ++backend.installed_epoch;
}

void Dispatcher::maybe_eject_slow_peer(BackendState& backend) {
  if (options_.breaker_latency_window == 0 ||
      options_.breaker_failure_threshold <= 0 || backends_.size() < 2)
    return;
  // Copy the windows out one lock at a time; the math runs lock-free.
  const auto window_samples = [this](BackendState& b,
                                     std::vector<double>& out) {
    const std::lock_guard<std::mutex> lock(b.robust_mutex);
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(b.latency_count, b.latency_window.size()));
    out.assign(b.latency_window.begin(),
               b.latency_window.begin() + static_cast<std::ptrdiff_t>(n));
  };
  const auto percentile = [](std::vector<double>& v, double p) {
    std::sort(v.begin(), v.end());
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(i, v.size() - 1)];
  };
  std::vector<double> self;
  window_samples(backend, self);
  if (self.size() < options_.breaker_min_latency_samples) return;
  const double self_p95 = percentile(self, 0.95);
  std::vector<double> peer_medians;
  std::vector<double> scratch;
  for (const auto& other : backends_) {
    if (other.get() == &backend) continue;
    window_samples(*other, scratch);
    if (scratch.size() < options_.breaker_min_latency_samples) continue;
    peer_medians.push_back(percentile(scratch, 0.5));
  }
  if (peer_medians.empty()) return;
  const double peer_median = percentile(peer_medians, 0.5);
  // The 0.1 ms floor keeps sub-millisecond local peers from flagging
  // every microsecond of jitter as an outlier.
  if (self_p95 <=
      options_.breaker_latency_outlier_factor * std::max(peer_median, 0.1))
    return;
  bool ejected = false;
  {
    const std::lock_guard<std::mutex> lock(backend.robust_mutex);
    if (backend.breaker == BackendState::Breaker::kClosed) {
      backend.breaker = BackendState::Breaker::kOpen;
      backend.breaker_opened_ms = clock_ms();
      backend.consecutive_failures = 0;
      ejected = true;
    }
  }
  if (ejected) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.breaker_opens;
    ++stats_.slow_peer_ejections;
  }
}

double Dispatcher::hedge_delay_for(BackendState& backend) const {
  double delay = options_.hedge_delay_ms;
  if (options_.breaker_latency_window == 0) return delay;
  const std::lock_guard<std::mutex> lock(backend.robust_mutex);
  const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
      backend.latency_count, backend.latency_window.size()));
  if (n < options_.breaker_min_latency_samples) return delay;
  std::vector<double> v(backend.latency_window.begin(),
                        backend.latency_window.begin() +
                            static_cast<std::ptrdiff_t>(n));
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      options_.hedge_quantile * static_cast<double>(n - 1) + 0.5);
  // Quantile-adaptive, but never hedge sooner than the configured floor:
  // a warmed-up fast backend would otherwise hedge every request.
  return std::max(delay, v[std::min(i, n - 1)]);
}

bool Dispatcher::hedgeable(const service::Json& request) const {
  // Hedges are reads with cacheable (side-effect-free, deterministic)
  // answers; anything else could double-execute work. A dispatcher-level
  // fault plan disables hedging outright — a hedge would consume
  // "cluster.*" hits in a timing-dependent order.
  return options_.hedge_delay_ms > 0.0 && options_.fault_plan.empty() &&
         backends_.size() >= 2 && cacheable_request(request);
}

Dispatcher::AttemptResult Dispatcher::attempt_backend(
    BackendState& backend, const service::Json& request,
    service::Json& response, HedgeContext* hedge) {
  const std::uint64_t attempt_start = clock_ms();
  std::unique_ptr<service::ServiceClient> conn;
  try {
    conn = acquire(backend, /*connect_attempts=*/10);
    if (hedge != nullptr) {
      const std::lock_guard<std::mutex> lock(*hedge->mutex);
      if (hedge->cancelled->load(std::memory_order_relaxed)) {
        clear_probe_slot(backend);
        release(backend, std::move(conn));
        return AttemptResult::kCancelled;
      }
      *hedge->conn_slot = conn.get();
    }
    faults_.raise_next("cluster.forward");
    service::Json reply = conn->call(request);
    if (hedge != nullptr) {
      const std::lock_guard<std::mutex> lock(*hedge->mutex);
      *hedge->conn_slot = nullptr;
      if (hedge->cancelled->load(std::memory_order_relaxed)) {
        // The winner was decided between our call returning and this
        // lock: our socket may already be half-closed, so the connection
        // is dropped (never pooled) and the reply discarded unrecorded.
        clear_probe_slot(backend);
        return AttemptResult::kCancelled;
      }
    }
    if (reply.get_string("status", "") == "overloaded") {
      // The backend is alive, just saturated: keep it up, put the
      // connection back, and spill to the next ring node. Saturation
      // still counts toward the breaker — a persistently overloaded
      // backend should stop receiving attempts for a cooldown.
      release(backend, std::move(conn));
      note_failure(backend, /*overload=*/true);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.overloaded_retries;
      return AttemptResult::kOverloaded;
    }
    release(backend, std::move(conn));
    note_success(backend,
                 static_cast<double>(clock_ms() - attempt_start));
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.forwarded;
    }
    response = std::move(reply);
    return AttemptResult::kResponse;
  } catch (const std::exception&) {
    // Transport failure (connect/send/recv error, timeout) or injected
    // forward fault: the connection may be mid-reply, so it is dropped.
    if (hedge != nullptr) {
      bool cancelled;
      {
        const std::lock_guard<std::mutex> lock(*hedge->mutex);
        *hedge->conn_slot = nullptr;
        cancelled = hedge->cancelled->load(std::memory_order_relaxed);
      }
      if (cancelled) {
        // The other side won and shut this connection down; that is a
        // cancel, not a backend failure — no down-marking, no breaker
        // penalty, no failover counted.
        clear_probe_slot(backend);
        return AttemptResult::kCancelled;
      }
    }
    note_failure(backend, /*overload=*/false);
    note_transport_failure(backend);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.failovers;
    return AttemptResult::kFailed;
  }
}

service::Json Dispatcher::handle(const service::Json& request,
                                 const std::atomic<bool>* cancel) {
  if (request.is_object() &&
      request.get_string("op", "") == "cluster_stats") {
    const DispatcherStats s = stats();
    service::Json r = service::Json::object();
    r.set("status", service::Json::string("ok"));
    r.set("forwarded", service::Json::number(static_cast<double>(s.forwarded)));
    r.set("failovers", service::Json::number(static_cast<double>(s.failovers)));
    r.set("overloaded_retries",
          service::Json::number(static_cast<double>(s.overloaded_retries)));
    r.set("down_skips",
          service::Json::number(static_cast<double>(s.down_skips)));
    r.set("exhausted", service::Json::number(static_cast<double>(s.exhausted)));
    r.set("response_cache_hits",
          service::Json::number(static_cast<double>(s.response_cache_hits)));
    r.set("replication_factor",
          service::Json::number(
              static_cast<double>(options_.replication_factor)));
    r.set("replicated",
          service::Json::number(static_cast<double>(s.replicated)));
    r.set("replication_failures",
          service::Json::number(static_cast<double>(s.replication_failures)));
    r.set("install_skips",
          service::Json::number(static_cast<double>(s.install_skips)));
    r.set("deadline_refusals",
          service::Json::number(static_cast<double>(s.deadline_refusals)));
    r.set("retries_suppressed",
          service::Json::number(static_cast<double>(s.retries_suppressed)));
    r.set("breaker_skips",
          service::Json::number(static_cast<double>(s.breaker_skips)));
    r.set("breaker_opens",
          service::Json::number(static_cast<double>(s.breaker_opens)));
    r.set("slow_peer_ejections",
          service::Json::number(static_cast<double>(s.slow_peer_ejections)));
    r.set("hedges", service::Json::number(static_cast<double>(s.hedges)));
    r.set("hedge_wins",
          service::Json::number(static_cast<double>(s.hedge_wins)));
    service::Json nodes = service::Json::array();
    for (const auto& backend : backends_) {
      service::Json node = service::Json::object();
      node.set("id", service::Json::string(backend->endpoint.id));
      node.set("up", service::Json::boolean(backend->up.load()));
      {
        const std::lock_guard<std::mutex> state_lock(backend->robust_mutex);
        const char* breaker = "closed";
        if (backend->breaker == BackendState::Breaker::kOpen)
          breaker = "open";
        else if (backend->breaker == BackendState::Breaker::kHalfOpen)
          breaker = "half_open";
        node.set("breaker", service::Json::string(breaker));
        node.set("retry_tokens",
                 service::Json::number(backend->retry_tokens));
      }
      node.set("last_probe_ms",
               service::Json::number(static_cast<double>(
                   backend->last_probe_ms.load(std::memory_order_relaxed))));
      nodes.push_back(node);
    }
    r.set("backends", nodes);
    echo_op(r, request);
    return r;
  }
  service::Json response = forward(request, cancel);
  return response;
}

bool Dispatcher::line_cacheable(const service::Json& request) const {
  return line_cache_.capacity() != 0 && cacheable_request(request);
}

bool Dispatcher::replicable(const service::Json& request) const {
  return options_.replication_factor >= 2 && cacheable_request(request);
}

bool Dispatcher::stream_replicable(const service::Json& request) const {
  if (options_.replication_factor < 2 || !request.is_object()) return false;
  return streaming::StreamEngine::is_stream_write(
      request.get_string("op", ""));
}

void Dispatcher::replicate_stream(const service::Json& request,
                                  const service::Json& response,
                                  const std::vector<std::size_t>& walk,
                                  std::size_t served_index) {
  // Forward the *command* so each replica's StreamEngine re-executes it
  // against its own session. A relative "count" absorb is pinned to the
  // primary's absolute answer first ("emitted"), so a replica that fell
  // behind (or raced ahead via an earlier failover) converges on the same
  // arrival prefix instead of drifting by a relative amount.
  service::Json outbound = service::strip_volatile_fields(request);
  if (request.get_string("op", "") == "stream_absorb") {
    service::Json absolute = service::Json::object();
    for (const auto& [key, value] : outbound.members()) {
      const std::string_view k(key.data(), key.size());
      if (k == "count" || k == "upto") continue;
      absolute.set(k, value);
    }
    absolute.set("upto", service::Json::number(
                             response.get_number("emitted", 0.0)));
    outbound = std::move(absolute);
  }
  const std::size_t r = std::min(options_.replication_factor, walk.size());
  for (std::size_t i = 0; i < r; ++i) {
    const std::size_t backend_index = walk[i];
    if (backend_index == served_index) continue;
    BackendState& backend = *backends_[backend_index];
    if (!backend.up.load()) {
      // Same stance as result replication: the primary's journal still
      // covers the write, and a restarted replica re-warms from replay.
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.replication_failures;
      continue;
    }
    try {
      auto conn = acquire(backend, /*connect_attempts=*/10);
      const service::Json reply = conn->call(outbound);
      release(backend, std::move(conn));
      // "degraded" is still an applied write: the replica absorbed what
      // its fault plan let through and stays on the shared seq schedule.
      const std::string status = reply.get_string("status", "");
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      if (status == "ok" || status == "degraded")
        ++stats_.replicated;
      else
        ++stats_.replication_failures;
    } catch (const std::exception&) {
      mark_down(backend);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.replication_failures;
    }
  }
}

void Dispatcher::replicate(const service::Json& request,
                           const service::Json& response,
                           const std::vector<std::size_t>& walk,
                           std::size_t served_index) {
  // The walk is replicas_for(key, R) extended with the failover tail, so
  // the write set is its first R entries. The durable command form
  // (volatile fields stripped) ships with the response: replicas journal
  // nothing for installs — the disk write IS the durability — but they
  // need the canonical key for the cache envelope. A replica that already
  // stored this key (and has not been marked down since) is skipped, and
  // the install object is only built once some replica needs it.
  thread_local std::string key;
  key.clear();
  service::canonical_request_key(request, key);
  const std::uint64_t key_hash = HashRing::hash(key);
  service::Json install;
  const std::size_t r = std::min(options_.replication_factor, walk.size());
  for (std::size_t i = 0; i < r; ++i) {
    const std::size_t backend_index = walk[i];
    if (backend_index == served_index) continue;
    BackendState& backend = *backends_[backend_index];
    if (!backend.up.load()) {
      // Down replicas are not an error: the journal on the serving
      // backend (and its disk cache) still covers the result, and the
      // restarted replica re-warms from there. Hedge-free by design.
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.replication_failures;
      continue;
    }
    std::uint64_t epoch;
    {
      const std::lock_guard<std::mutex> lock(backend.installed_mutex);
      epoch = backend.installed_epoch;
      if (backend.installed.find(key_hash) != nullptr) {
        const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.install_skips;
        continue;
      }
    }
    if (install.is_null()) {
      install = service::Json::object();
      install.set("op", service::Json::string("cache_install"));
      install.set("request", service::strip_volatile_fields(request));
      install.set("response", response);
    }
    try {
      auto conn = acquire(backend, /*connect_attempts=*/10);
      const service::Json reply = conn->call(install);
      release(backend, std::move(conn));
      const bool stored = reply.get_string("status", "") == "ok" &&
                          reply.get_bool("stored", false);
      if (stored) {
        // An install that raced a mark_down is not remembered: the
        // backend it reached may not be the one that comes back up.
        const std::lock_guard<std::mutex> lock(backend.installed_mutex);
        if (backend.installed_epoch == epoch)
          backend.installed.put(key_hash, true);
      }
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      if (stored)
        ++stats_.replicated;
      else
        ++stats_.replication_failures;
    } catch (const std::exception&) {
      mark_down(backend);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.replication_failures;
    }
  }
}

bool Dispatcher::try_serve_cached_line(const service::Json& request,
                                       std::string& out) {
  if (!line_cacheable(request)) return false;
  thread_local std::string key;
  key.clear();
  service::canonical_request_key(request, key);
  const std::lock_guard<std::mutex> lock(line_mutex_);
  const std::string_view* hit = line_cache_.find(key);
  if (hit == nullptr) return false;
  out.append(hit->data(), hit->size());
  {
    const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.response_cache_hits;
  }
  return true;
}

void Dispatcher::handle_line(const service::Json& request,
                             const std::atomic<bool>* cancel,
                             std::string& out) {
  if ((cancel == nullptr || !cancel->load(std::memory_order_relaxed)) &&
      try_serve_cached_line(request, out))
    return;
  const service::Json response = handle(request, cancel);
  const std::size_t start = out.size();
  response.dump_to(out);
  if (line_cacheable(request) && response.get_string("status", "") == "ok")
    store_line(request,
               std::string_view(out.data() + start, out.size() - start));
}

void Dispatcher::maybe_store_response(const service::Json& request,
                                      const service::Json& response) {
  if (!line_cacheable(request) || response.get_string("status", "") != "ok")
    return;
  // One extra render per cold cacheable request — trivial next to the
  // forwarding round-trip it lets every warm repeat skip. Json::dump is
  // deterministic, so the stored line is byte-identical to what the
  // server sends for this response.
  thread_local std::string line;
  line.clear();
  response.dump_to(line);
  store_line(request, line);
}

void Dispatcher::store_line(const service::Json& request,
                            std::string_view line) {
  thread_local std::string key;
  key.clear();
  service::canonical_request_key(request, key);
  const std::lock_guard<std::mutex> lock(line_mutex_);
  line_cache_.put(key, line_arena_.intern(line));
  maybe_compact_lines();
}

void Dispatcher::maybe_compact_lines() {
  // Same dead-byte compaction as the other rendered-line caches.
  if (line_arena_.live_bytes() < (256u << 10)) return;
  std::size_t live = 0;
  line_cache_.for_each(
      [&live](const std::string&, const std::string_view& v) {
        live += v.size();
      });
  if (line_arena_.live_bytes() < live * 2 + (64u << 10)) return;
  std::vector<std::pair<std::string, std::string>> survivors;
  survivors.reserve(line_cache_.size());
  line_cache_.for_each(
      [&survivors](const std::string& k, const std::string_view& v) {
        survivors.emplace_back(k, std::string(v));
      });
  line_cache_.clear();
  line_arena_.reset();
  for (auto it = survivors.rbegin(); it != survivors.rend(); ++it)
    line_cache_.put(it->first, line_arena_.intern(it->second));
}

service::Json Dispatcher::forward(const service::Json& request,
                                  const std::atomic<bool>* cancel) {
  // Routing scratch is thread-local: forward() runs on every server
  // worker concurrently, and the warm path should not allocate.
  thread_local std::string key;
  thread_local std::vector<std::size_t> candidates;
  thread_local std::vector<char> seen;
  thread_local std::vector<char> attempted;
  key.clear();
  // Routing (not caching) uses the baseline-aware key, so incremental
  // annotate requests follow their document's original placement.
  service::routing_key(request, key);
  // Ring indices equal backends_ indices: the constructor add()s ids to
  // the ring in backends_ insertion order.
  ring_.route_into(key, backends_.size(), candidates, seen);
  attempted.assign(backends_.size(), 0);

  const std::uint64_t dispatch_start = clock_ms();
  const double requested_deadline =
      request.is_object() ? request.get_number("deadline_ms", 0.0) : 0.0;
  // Deep copy made only when a deadline must shrink; everything else
  // forwards the caller's object untouched.
  service::Json decremented;
  const bool may_hedge = hedgeable(request);

  std::size_t tried = 0;
  for (std::size_t walk = 0; walk < candidates.size(); ++walk) {
    const std::size_t backend_index = candidates[walk];
    if (attempted[backend_index]) continue;  // consumed as a hedge target
    if (cancel != nullptr && cancel->load()) {
      service::Json r = service::Json::object();
      r.set("status", service::Json::string("deadline_exceeded"));
      r.set("error",
            service::Json::string("request cancelled while dispatching"));
      echo_op(r, request);
      return r;
    }
    // Deadline propagation: the backend gets what is left of the caller's
    // budget, not the original figure — and when what is left is not
    // worth a forward, the refusal happens here, before a connection or a
    // backend slot is burned.
    const service::Json* outbound = &request;
    if (requested_deadline > 0.0) {
      const double elapsed =
          static_cast<double>(clock_ms() - dispatch_start);
      const double remaining = requested_deadline - elapsed;
      if (remaining <= std::max(options_.deadline_floor_ms, 0.0)) {
        {
          const std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.deadline_refusals;
        }
        service::Json r = service::Json::object();
        r.set("status", service::Json::string("deadline_exceeded"));
        r.set("error", service::Json::string(
                           "deadline budget exhausted while dispatching"));
        echo_op(r, request);
        return r;
      }
      decremented = request;
      decremented.set("deadline_ms", service::Json::number(remaining));
      outbound = &decremented;
    }
    BackendState& backend = *backends_[backend_index];
    // Injected outage: indistinguishable from a failed health check. The
    // prober restores the backend once its real ping succeeds.
    if (faults_.fire_next("cluster.backend")) mark_down(backend);
    if (!backend.up.load()) {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.down_skips;
      continue;
    }
    switch (admit_for_attempt(backend, /*is_retry=*/tried >= 1)) {
      case Admit::kBreakerOpen: {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.breaker_skips;
        continue;
      }
      case Admit::kBudgetSpent: {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.retries_suppressed;
        continue;
      }
      case Admit::kOk:
        break;
    }
    ++tried;
    attempted[backend_index] = 1;

    // --- hedged attempt: primary on a thread, second replica fired after
    // the primary has been quiet for the hedge delay, first answer wins.
    // Only on the first (non-retry) attempt — later attempts ARE the
    // retry path already.
    if (may_hedge && tried == 1) {
      // Pick the hedge target now: the next live ring candidate. Its
      // admission happens here too (never spending retry tokens — a
      // hedge is latency cover, not a retry).
      std::size_t hedge_index = backends_.size();
      for (std::size_t j = walk + 1; j < candidates.size(); ++j) {
        BackendState& other = *backends_[candidates[j]];
        if (!other.up.load()) continue;
        if (admit_for_attempt(other, /*is_retry=*/false) != Admit::kOk)
          continue;
        hedge_index = candidates[j];
        break;
      }
      if (hedge_index < backends_.size()) {
        struct HedgeShared {
          std::mutex mutex;
          std::condition_variable cv;
          bool primary_done = false;
          bool secondary_done = false;
          AttemptResult primary_result = AttemptResult::kFailed;
          AttemptResult secondary_result = AttemptResult::kFailed;
          service::Json primary_response;
          service::Json secondary_response;
          service::ServiceClient* primary_conn = nullptr;
          service::ServiceClient* secondary_conn = nullptr;
          std::atomic<bool> cancel_primary{false};
          std::atomic<bool> cancel_secondary{false};
        } shared;
        BackendState& hedge_backend = *backends_[hedge_index];
        HedgeContext primary_ctx{&shared.mutex, &shared.primary_conn,
                                 &shared.cancel_primary};
        HedgeContext secondary_ctx{&shared.mutex, &shared.secondary_conn,
                                   &shared.cancel_secondary};
        std::thread primary([&] {
          service::Json resp;
          const AttemptResult r =
              attempt_backend(backend, *outbound, resp, &primary_ctx);
          const std::lock_guard<std::mutex> lock(shared.mutex);
          shared.primary_result = r;
          shared.primary_response = std::move(resp);
          shared.primary_done = true;
          shared.cv.notify_all();
        });
        std::thread secondary;
        bool launched_secondary = false;
        {
          std::unique_lock<std::mutex> lock(shared.mutex);
          const double delay = hedge_delay_for(backend);
          shared.cv.wait_for(
              lock,
              std::chrono::microseconds(
                  static_cast<std::int64_t>(delay * 1000.0)),
              [&] { return shared.primary_done; });
          if (!shared.primary_done) {
            launched_secondary = true;
            secondary = std::thread([&] {
              service::Json resp;
              const AttemptResult r = attempt_backend(
                  hedge_backend, *outbound, resp, &secondary_ctx);
              const std::lock_guard<std::mutex> inner(shared.mutex);
              shared.secondary_result = r;
              shared.secondary_response = std::move(resp);
              shared.secondary_done = true;
              shared.cv.notify_all();
            });
            attempted[hedge_index] = 1;
            {
              const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
              ++stats_.hedges;
            }
          }
          // Wait for a winner (any kResponse) or for both sides to end.
          shared.cv.wait(lock, [&] {
            const bool secondary_settled =
                !launched_secondary || shared.secondary_done;
            if (shared.primary_done &&
                shared.primary_result == AttemptResult::kResponse)
              return true;
            if (launched_secondary && shared.secondary_done &&
                shared.secondary_result == AttemptResult::kResponse)
              return true;
            return shared.primary_done && secondary_settled;
          });
          // Decide and cancel the loser while still holding the mutex,
          // so the loser either sees its cancel flag before publishing a
          // connection or we see the published connection to shut down.
          const bool primary_won =
              shared.primary_done &&
              shared.primary_result == AttemptResult::kResponse;
          const bool secondary_won =
              !primary_won && launched_secondary && shared.secondary_done &&
              shared.secondary_result == AttemptResult::kResponse;
          if (primary_won && launched_secondary && !shared.secondary_done) {
            shared.cancel_secondary.store(true, std::memory_order_relaxed);
            if (shared.secondary_conn != nullptr)
              shared.secondary_conn->shutdown_now();
          }
          if (secondary_won && !shared.primary_done) {
            shared.cancel_primary.store(true, std::memory_order_relaxed);
            if (shared.primary_conn != nullptr)
              shared.primary_conn->shutdown_now();
          }
        }
        // Both joins are prompt: the winner's thread already finished and
        // the loser's blocked read was broken by shutdown_now above.
        primary.join();
        if (secondary.joinable()) secondary.join();
        if (!launched_secondary) clear_probe_slot(hedge_backend);

        service::Json* winner = nullptr;
        std::size_t winner_index = backend_index;
        if (shared.primary_result == AttemptResult::kResponse) {
          winner = &shared.primary_response;
        } else if (launched_secondary &&
                   shared.secondary_result == AttemptResult::kResponse) {
          winner = &shared.secondary_response;
          winner_index = hedge_index;
          const std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.hedge_wins;
        }
        if (winner != nullptr) {
          if (winner->get_string("status", "") == "ok" &&
              replicable(request))
            replicate(request, *winner, candidates, winner_index);
          return std::move(*winner);
        }
        // Both sides overloaded/failed: per-attempt stats were recorded
        // inside attempt_backend; keep walking the ring past both.
        if (launched_secondary) ++tried;
        continue;
      }
      // No admissible hedge target: fall through to the inline attempt.
    }

    service::Json response;
    switch (attempt_backend(backend, *outbound, response, nullptr)) {
      case AttemptResult::kResponse: {
        const std::string status = response.get_string("status", "");
        if (status == "ok" && replicable(request))
          replicate(request, response, candidates, backend_index);
        else if ((status == "ok" || status == "degraded") &&
                 stream_replicable(request))
          replicate_stream(request, response, candidates, backend_index);
        return response;  // verbatim — bit-identical to a direct call
      }
      case AttemptResult::kOverloaded:
      case AttemptResult::kFailed:
      case AttemptResult::kCancelled:  // unreachable without a hedge ctx
        continue;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.exhausted;
  }
  service::Json r =
      error_response("no backend available (" + std::to_string(tried) + " of " +
                     std::to_string(candidates.size()) + " candidates tried)");
  r.set("attempted", service::Json::number(static_cast<double>(tried)));
  echo_op(r, request);
  return r;
}

void Dispatcher::prober_loop() {
  const auto tick = std::chrono::milliseconds(options_.health_interval_ms);
  while (running_.load()) {
    std::this_thread::sleep_for(tick);
    for (const auto& backend : backends_) {
      if (!running_.load()) return;
      if (backend->up.load()) continue;
      backend->last_probe_ms.store(clock_ms(), std::memory_order_relaxed);
      try {
        service::ServiceClient probe;
        // Set before connect: the probe must cost at most probe_timeout_ms
        // even against a partitioned peer that accepts but never answers.
        probe.set_timeout_ms(options_.probe_timeout_ms);
        if (!backend->endpoint.socket_path.empty())
          probe.connect(backend->endpoint.socket_path, /*attempts=*/1);
        else
          probe.connect_tcp(backend->endpoint.host, backend->endpoint.port,
                            /*attempts=*/1);
        service::Json ping = service::Json::object();
        ping.set("op", service::Json::string("ping"));
        if (probe.call(ping).get_string("status", "") == "ok") {
          {
            const std::lock_guard<std::mutex> lock(backend->robust_mutex);
            backend->transport_failures = 0;
          }
          backend->up.store(true);
        }
      } catch (const std::exception&) {
        // Still down; try again next tick.
      }
    }
  }
}

}  // namespace decompeval::cluster
