// The study's layers: the researcher's batch path (run_replication with
// the mixed models and the RQ5 metric battery on). It has no listed
// workload: its time is almost all mixed-model fitting, and a served sweep
// of it did not repeat within any bound on the reference host (see
// README.md). Every traced run still times its layers on the sweep's
// first seeds and runs its output checks: one replication served by the
// cluster must hash to the same digest as the same seed recomputed
// in-process at threads = nproc and at threads 1, and the GLMM's deviance
// must not exceed a pooled logistic fit computed here by IRLS.
#include <algorithm>
#include <cmath>
#include <thread>

#include "analysis/rq1_correctness.h"
#include "analysis/rq2_timing.h"
#include "analysis/rq5_metrics.h"
#include "core/replication.h"
#include "embed/embedding.h"
#include "harness.h"
#include "study/engine.h"

namespace perfbench {

namespace {

namespace core = decompeval::core;
namespace service = decompeval::service;

constexpr std::size_t kCorpusSentences = 20000;
constexpr std::uint64_t kCorpusSeed = 42;
/// Allowed excess of the GLMM's Laplace deviance over the pooled
/// logistic deviance (relative). Setting both variance components to zero
/// turns the GLMM into the pooled model, so at its optimum it can only be
/// lower; the slack covers the optimizer's stopping tolerance.
constexpr double kDevianceTolerance = 1e-6;

std::uint64_t first_seed(std::uint64_t seed) { return 100000 + seed * 1000; }

Json replication_request(std::uint64_t seed) {
  Json r = Json::object();
  r.set("op", Json::string("run_replication"));
  r.set("seed", Json::number(static_cast<double>(seed)));
  r.set("run_models", Json::boolean(true));
  r.set("run_metrics", Json::boolean(true));
  r.set("threads", Json::number(1));
  return r;
}

/// Pooled (no random effects) logistic regression on the GLMM's fixed
/// effects, fit by iteratively reweighted least squares. Returns the
/// deviance -2 log L.
double pooled_logistic_deviance(const decompeval::mixed::MixedModelData& d) {
  const std::size_t n = d.n_observations(), p = d.n_fixed_effects();
  std::vector<double> beta(p, 0.0);
  const auto linear = [&](std::size_t i) {
    double eta = 0.0;
    for (std::size_t j = 0; j < p; ++j) eta += d.x(i, j) * beta[j];
    return eta;
  };
  for (int iter = 0; iter < 100; ++iter) {
    // Normal equations of the weighted least-squares step: (X'WX) b = X'Wz.
    std::vector<double> a(p * p, 0.0), rhs(p, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double eta = linear(i);
      const double mu = 1.0 / (1.0 + std::exp(-eta));
      const double w = std::max(mu * (1.0 - mu), 1e-12);
      const double z = eta + (d.y[i] - mu) / w;
      for (std::size_t j = 0; j < p; ++j) {
        rhs[j] += w * d.x(i, j) * z;
        for (std::size_t k = 0; k < p; ++k)
          a[j * p + k] += w * d.x(i, j) * d.x(i, k);
      }
    }
    // Gaussian elimination with partial pivoting (p is a handful).
    for (std::size_t c = 0; c < p; ++c) {
      std::size_t pivot = c;
      for (std::size_t r = c + 1; r < p; ++r)
        if (std::abs(a[r * p + c]) > std::abs(a[pivot * p + c])) pivot = r;
      for (std::size_t k = 0; k < p; ++k)
        std::swap(a[c * p + k], a[pivot * p + k]);
      std::swap(rhs[c], rhs[pivot]);
      for (std::size_t r = c + 1; r < p; ++r) {
        const double f = a[r * p + c] / a[c * p + c];
        for (std::size_t k = c; k < p; ++k) a[r * p + k] -= f * a[c * p + k];
        rhs[r] -= f * rhs[c];
      }
    }
    std::vector<double> next(p, 0.0);
    for (std::size_t c = p; c-- > 0;) {
      double s = rhs[c];
      for (std::size_t k = c + 1; k < p; ++k) s -= a[c * p + k] * next[k];
      next[c] = s / a[c * p + c];
    }
    double change = 0.0;
    for (std::size_t j = 0; j < p; ++j)
      change = std::max(change, std::abs(next[j] - beta[j]));
    beta = next;
    if (change < 1e-12) break;
  }
  double deviance = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double eta = linear(i);
    // log(1 + e^eta) computed without overflow.
    const double softplus =
        eta > 0 ? eta + std::log1p(std::exp(-eta)) : std::log1p(std::exp(eta));
    deviance += 2.0 * (softplus - d.y[i] * eta);
  }
  return deviance;
}

/// The embedding model a backend trains for its first run_replication,
/// trained here at threads 1.
std::shared_ptr<const decompeval::embed::EmbeddingModel> train_embedding() {
  decompeval::embed::EmbeddingOptions options;
  options.threads = 1;
  return std::make_shared<const decompeval::embed::EmbeddingModel>(
      decompeval::embed::EmbeddingModel::train_default(kCorpusSentences,
                                                       kCorpusSeed, options));
}

}  // namespace

void trace_study_layers(const Args& args, const std::string& scratch,
                        std::vector<Metric>& out, Outcome& checks) {
  namespace analysis = decompeval::analysis;
  using Ms = std::chrono::duration<double, std::milli>;
  const auto time_ms = [](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    return Ms(Clock::now() - t0).count();
  };
  std::shared_ptr<const decompeval::embed::EmbeddingModel> model;
  const double train_ms = time_ms([&] { model = train_embedding(); });

  // The first two seeds of the sweep, serially, at threads 1 (the
  // served requests' setting).
  std::vector<double> study_ms, glmm_ms, lmm_ms, rq5_ms, replication_ms, evals;
  decompeval::mixed::FitOptions fit;
  fit.threads = 1;
  analysis::MetricAnalysisOptions metric_options;
  metric_options.threads = 1;
  const auto replication_config = [&](std::uint64_t seed, std::size_t threads) {
    core::ReplicationConfig rc;
    rc.seed = seed;
    rc.threads = threads;
    rc.embedding_corpus_sentences = kCorpusSentences;
    rc.embedding_corpus_seed = kCorpusSeed;
    rc.embedding_model = model;
    return rc;
  };
  core::ReplicationReport first;
  for (std::uint64_t i = 0; i < 2; ++i) {
    const std::uint64_t seed = first_seed(args.seed) + i;
    decompeval::study::StudyConfig config;
    config.seed = seed;
    config.threads = 1;
    decompeval::study::StudyData data;
    study_ms.push_back(
        time_ms([&] { data = decompeval::study::run_study(config); }));
    analysis::CorrectnessModelResult t1;
    glmm_ms.push_back(
        time_ms([&] { t1 = analysis::analyze_correctness(data, fit); }));
    analysis::TimingModelResult t2;
    lmm_ms.push_back(time_ms([&] { t2 = analysis::analyze_timing(data, fit); }));
    double total = 0.0;
    for (const int e : t1.fit.multi_start.start_evaluations) total += e;
    for (const int e : t2.fit.multi_start.start_evaluations) total += e;
    evals.push_back(total);
    rq5_ms.push_back(time_ms([&] {
      analysis::analyze_metric_correlations(
          data, decompeval::snippets::study_snippets(), *model,
          metric_options);
    }));
    core::ReplicationReport report;
    replication_ms.push_back(time_ms(
        [&] { report = core::run_replication(replication_config(seed, 1)); }));
    if (i == 0) first = std::move(report);
  }
  out.push_back({"embed.train_ms", train_ms, "ms"});
  out.push_back({"study.run_study_ms", mean(study_ms), "ms"});
  out.push_back({"analysis.correctness_glmm_ms", mean(glmm_ms), "ms"});
  out.push_back({"analysis.timing_lmm_ms", mean(lmm_ms), "ms"});
  out.push_back({"analysis.rq5_metrics_ms", mean(rq5_ms), "ms"});
  out.push_back({"core.replication_ms", mean(replication_ms), "ms"});
  out.push_back({"mixed.nm_evaluations", mean(evals), "count"});

  // ---- output checks on the first seed ---------------------------------
  const std::uint64_t seed = first_seed(args.seed);
  const std::string label = "study seed " + std::to_string(seed);
  std::string served;
  {
    BenchCluster cluster(scratch + "/trace-study");
    service::ServiceClient client;
    client.connect(cluster.front_socket());
    ClientTally tally;
    const Json response =
        timed_call(client, replication_request(seed), tally, nullptr);
    checks.check(tally.failed == 0,
                 label + ": served run_replication failed: " +
                     response.dump().substr(0, 300));
    served = response.get_string("digest", "");
  }
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const core::ReplicationReport wide =
      core::run_replication(replication_config(seed, threads));
  const std::string wide_digest = hex64(fnv1a(wide.rendered));
  const std::string first_digest = hex64(fnv1a(first.rendered));
  checks.check(!wide.degraded && served == wide_digest,
               label + ": served digest " + served + " != in-process " +
                   wide_digest + " at threads " + std::to_string(threads));
  checks.check(!first.degraded && first_digest == wide_digest,
               label + ": in-process digest at threads 1 " + first_digest +
                   " != at threads " + std::to_string(threads) + " " +
                   wide_digest);
  const double glmm = first.table1.fit.deviance;
  const double pooled = pooled_logistic_deviance(
      decompeval::analysis::build_model_data(first.data, false));
  checks.check(std::isfinite(glmm) && glmm <= pooled * (1.0 + kDevianceTolerance),
               label + ": GLMM deviance " + std::to_string(glmm) +
                   " above pooled logistic " + std::to_string(pooled));
}

}  // namespace perfbench
