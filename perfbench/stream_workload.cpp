// stream-live: the operator's live path. One bursty stream is opened
// with refits every kRefitEvery arrivals and absorbed kBatch arrivals at a
// time through the cluster, with a stream_dashboard probe after every
// batch. Stream writes replicate as commands, so the ring replica absorbs
// (and refits) every batch too. The served stream keeps no arrival log:
// its fsync every eight arrivals is ~85% of a batch without a refit, and
// this host's fsync latency swings 4x, which buried every other cost; the
// traced run measures the log on its own (streaming.engine_absorb_us,
// streaming.arrival_log_bytes).
#include <filesystem>

#include "analysis/rq1_correctness.h"
#include "harness.h"
#include "host_speed.h"
#include "mixed/glmm.h"
#include "mixed/lmm.h"
#include "snippets/snippet.h"
#include "streaming/arrival.h"
#include "streaming/engine.h"
#include "streaming/state.h"

namespace perfbench {

namespace {

namespace service = decompeval::service;
namespace streaming = decompeval::streaming;

constexpr std::uint64_t kBatch = 100;
constexpr std::uint64_t kRefitEvery = 400;
constexpr std::uint64_t kWindowEvents = 256;
constexpr std::uint64_t kPopulation = 16;
constexpr int kFitStarts = 2;
/// Refits the set-up runs before the first timed batch.
constexpr std::uint64_t kSetupRefits = 4;
/// Batches between two host-speed slices: two refit cadences (~0.1 s).
constexpr std::uint64_t kBatchesPerSlice = 2 * kRefitEvery / kBatch;
/// Every kDashboardSampleEvery-th dashboard answer is kept and compared
/// with an in-process engine's at the same target.
constexpr std::size_t kDashboardSampleEvery = 128;

std::string stream_id(std::uint64_t seed) {
  return "live-" + std::to_string(seed);
}

Json open_request(std::uint64_t seed, std::uint64_t refit_every,
                  const std::string& log) {
  Json r = Json::object();
  r.set("op", Json::string("stream_open"));
  r.set("stream", Json::string(stream_id(seed)));
  r.set("process", Json::string("bursty"));
  r.set("seed", Json::number(static_cast<double>(seed)));
  r.set("population", Json::number(static_cast<double>(kPopulation)));
  r.set("window_events", Json::number(static_cast<double>(kWindowEvents)));
  r.set("refit_every", Json::number(static_cast<double>(refit_every)));
  r.set("fit_starts", Json::number(kFitStarts));
  if (!log.empty()) r.set("log", Json::string(log));
  return r;
}

Json stream_op(const std::string& op, std::uint64_t seed) {
  Json r = Json::object();
  r.set("op", Json::string(op));
  r.set("stream", Json::string(stream_id(seed)));
  return r;
}

Json absorb_request(std::uint64_t seed, std::uint64_t upto) {
  Json r = stream_op("stream_absorb", seed);
  r.set("upto", Json::number(static_cast<double>(upto)));
  return r;
}

Json stats_of(const std::string& socket, std::uint64_t seed) {
  service::ServiceClient client;
  client.connect(socket);
  return client.call(stream_op("stream_stats", seed));
}

}  // namespace

Outcome run_stream_live(const Args& args, const std::string& scratch) {
  Outcome out;
  BenchCluster cluster(scratch);
  service::ServiceClient client;
  client.connect(cluster.front_socket());
  ClientTally tally;
  // Set-up: open the stream and absorb it, in one request, through its
  // first kSetupRefits refits: the first is a cold fit, the later ones are
  // warm-started, as every refit of the timed phase is (untimed, but
  // counted as attempted).
  timed_call(client, open_request(args.seed, kRefitEvery, ""), tally, nullptr);
  std::uint64_t target = kSetupRefits * kRefitEvery;
  timed_call(client, absorb_request(args.seed, target), tally, nullptr);
  const std::size_t primary = cluster.primary_of(stream_op("stream_stats", args.seed));

  const double setup_s = seconds_since_start();
  HostSpeed speed;
  speed.sample();
  // Absorb batches split by whether they cross a refit cadence point.
  std::vector<Sample> absorbs, plain_batches, refit_batches, dashboards;
  std::vector<std::pair<std::uint64_t, std::string>> kept_dashboards;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  // Whole slices of kBatchesPerSlice batches, each followed by a
  // host-speed slice while no request is in flight.
  while (Clock::now() < deadline) {
    for (std::uint64_t b = 0; b < kBatchesPerSlice; ++b) {
      target += kBatch;
      double us = 0.0;
      timed_call(client, absorb_request(args.seed, target), tally, &us);
      const Sample batch{us, 0, static_cast<double>(kBatch)};
      absorbs.push_back(batch);
      const bool refits = target / kRefitEvery != (target - kBatch) / kRefitEvery;
      (refits ? refit_batches : plain_batches).push_back(batch);
      const Json dashboard = timed_call(
          client, stream_op("stream_dashboard", args.seed), tally, &us);
      if (dashboards.size() % kDashboardSampleEvery == 0)
        kept_dashboards.emplace_back(target, dashboard.dump());
      dashboards.push_back({us, 0, 1.0});
    }
    speed.sample();
  }
  out.speed_factor = speed.factor();
  out.host = speed.readings();

  // ---- output checks (cluster still up: the replica is queried) -------
  const Json primary_stats = stats_of(cluster.backend_socket(primary), args.seed);
  const Json replica_stats =
      stats_of(cluster.backend_socket(1 - primary), args.seed);
  const auto count = [](const Json& j, const char* k) {
    return static_cast<std::uint64_t>(j.get_number(k, -1));
  };
  out.check(count(primary_stats, "absorbed") == target &&
                count(primary_stats, "dropped") == 0,
            "primary absorbed " + std::to_string(count(primary_stats, "absorbed")) +
                " (dropped " + std::to_string(count(primary_stats, "dropped")) +
                "), requested " + std::to_string(target));
  out.check(count(primary_stats, "refit_attempts") == target / kRefitEvery &&
                count(primary_stats, "refits_run") == target / kRefitEvery,
            "refits run " + std::to_string(count(primary_stats, "refits_run")) +
                " of " + std::to_string(count(primary_stats, "refit_attempts")) +
                ", expected " + std::to_string(target / kRefitEvery));
  const std::string digest = primary_stats.get_string("digest", "");
  out.check(!digest.empty() && replica_stats.get_string("digest", "") == digest,
            "replica digest " + replica_stats.get_string("digest", "") +
                " != primary " + digest);
  cluster.stop();

  // Batching invariance: an in-process engine absorbs to the same target
  // in a few large requests, stopping at each kept dashboard's target,
  // where its dashboard must equal the served one byte for byte.
  streaming::StreamEngine fresh;
  fresh.handle(open_request(args.seed, kRefitEvery, ""));
  for (const auto& [at, served] : kept_dashboards) {
    fresh.handle(absorb_request(args.seed, at));
    const std::string local =
        fresh.handle(stream_op("stream_dashboard", args.seed)).dump();
    out.check(local == served, "dashboard at " + std::to_string(at) +
                                   " arrivals differs from an in-process "
                                   "engine's at the same target");
  }
  out.check(!kept_dashboards.empty(), "no dashboard was sampled");
  fresh.handle(absorb_request(args.seed, target));
  const std::string fresh_digest =
      fresh.handle(stream_op("stream_stats", args.seed)).get_string("digest", "");
  out.check(fresh_digest == digest, "in-process digest " + fresh_digest +
                                        " != batched digest " + digest);

  out.attempted = tally.attempted;
  out.failed = tally.failed;
  const std::vector<double> plain_us = latencies(plain_batches),
                            refit_us = latencies(refit_batches),
                            dashboard_us = latencies(dashboards);
  // Arrivals over the time spent in absorb requests (refits included).
  const double rate = closed_loop_rate(absorbs, absorbs);
  out.roles = {{"setup_s", setup_s, "s"},
               {"throughput_per_s", rate, "1/s"},
               {"write_p50_us", quantile(plain_us, 0.5), "us"},
               {"read_p50_us", quantile(dashboard_us, 0.5), "us"},
               {"heavy_p50_us", quantile(refit_us, 0.5), "us"}};
  out.named = {{"stream_arrivals_per_s", rate, "1/s"},
               {"stream_dashboard_p50_us", quantile(dashboard_us, 0.5), "us"},
               {"stream_plain_batch_p50_us", quantile(plain_us, 0.5), "us"},
               {"stream_refit_batch_p50_us", quantile(refit_us, 0.5), "us"},
               {"arrivals", static_cast<double>(target), "count"}};
  return out;
}

void trace_stream_layers(const Args& args, const std::string& scratch,
                         std::vector<Metric>& out) {
  constexpr std::uint64_t kArrivals = 20000;
  using Us = std::chrono::duration<double, std::micro>;

  // Generator and window state, per arrival, on the workload's config.
  streaming::WorkloadConfig config;
  config.process = streaming::ArrivalProcess::kBursty;
  config.population = kPopulation;
  config.seed = args.seed;
  streaming::WorkloadGenerator generator(
      config, &decompeval::snippets::study_snippets());
  std::vector<streaming::Arrival> arrivals;
  arrivals.reserve(kArrivals);
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kArrivals; ++i)
    arrivals.push_back(generator.next());
  out.push_back({"streaming.generate_us",
                 Us(Clock::now() - t0).count() / kArrivals, "us"});
  streaming::StreamState state(streaming::WindowOptions{kWindowEvents, 0});
  t0 = Clock::now();
  for (const auto& a : arrivals) state.absorb(a);
  out.push_back({"streaming.state_absorb_us",
                 Us(Clock::now() - t0).count() / kArrivals, "us"});

  // Engine absorb without refits, with the arrival log on.
  const std::string log_dir = scratch + "/trace-stream";
  std::filesystem::create_directories(log_dir);
  {
    streaming::StreamEngine engine(nullptr, nullptr, log_dir);
    engine.handle(open_request(args.seed, 0, "plain.log"));
    t0 = Clock::now();
    for (std::uint64_t upto = kBatch; upto <= kArrivals; upto += kBatch)
      engine.handle(absorb_request(args.seed, upto));
    out.push_back({"streaming.engine_absorb_us",
                   Us(Clock::now() - t0).count() / kArrivals, "us"});
    out.push_back(
        {"streaming.arrival_log_bytes",
         static_cast<double>(std::filesystem::file_size(log_dir + "/plain.log")) /
             kArrivals,
         "bytes/arrival"});
    std::vector<double> dash;
    for (int i = 0; i < 200; ++i) {
      t0 = Clock::now();
      engine.handle(stream_op("stream_dashboard", args.seed));
      dash.push_back(Us(Clock::now() - t0).count());
    }
    out.push_back({"streaming.dashboard_us", quantile(dash, 0.5), "us"});
  }

  // Warm-started refits on the stream's own windows: absorb with refits,
  // then refit the current window from the previous winner, as the
  // engine does at the next cadence point.
  std::vector<double> glmm_ms, lmm_ms;
  streaming::StreamEngine engine;
  engine.handle(open_request(args.seed, kRefitEvery, ""));
  for (int point = 1; point <= 4; ++point) {
    engine.handle(absorb_request(args.seed, point * 2 * kRefitEvery + kBatch));
    const streaming::SessionView view = engine.view(stream_id(args.seed));
    decompeval::mixed::FitOptions fit;
    fit.n_starts = kFitStarts;
    fit.threads = 1;
    if (view.have_glmm) {
      auto g = fit;
      g.warm_start = decompeval::mixed::warm_start_from(view.glmm);
      const auto data = decompeval::analysis::build_model_data(
          view.window_data, false, nullptr);
      t0 = Clock::now();
      decompeval::mixed::fit_logistic_glmm(data, g);
      glmm_ms.push_back(Us(Clock::now() - t0).count() / 1000.0);
    }
    if (view.have_lmm) {
      auto l = fit;
      l.warm_start = decompeval::mixed::warm_start_from(view.lmm);
      const auto data = decompeval::analysis::build_model_data(
          view.window_data, true, nullptr);
      t0 = Clock::now();
      decompeval::mixed::fit_lmm(data, l);
      lmm_ms.push_back(Us(Clock::now() - t0).count() / 1000.0);
    }
  }
  out.push_back({"mixed.refit_glmm_ms", mean(glmm_ms), "ms"});
  out.push_back({"mixed.refit_lmm_ms", mean(lmm_ms), "ms"});
}

}  // namespace perfbench
