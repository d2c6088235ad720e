// annotate-session: two IDE sessions against the served cluster.
//
// Each session owns an anchor document and repeats a fixed round of ten
// requests: six single-function edits of the anchor (carrying it as
// "baseline", so they route to the backend whose engine holds it warm),
// three re-fetches of a request the session sent among its last
// kRefetchWindow, and one never-seen document. The mix, the document size
// and the window are assumptions, not measured IDE traffic (README.md
// says why these values). Anchors are chosen so
// session 0 routes to backend-0 and session 1 to backend-1, which keeps
// the two closed loops from queueing on one backend whatever the seed.
#include <algorithm>
#include <barrier>
#include <memory>

#include "analysis_service/annotation_engine.h"
#include "cluster/disk_cache.h"
#include "cluster/journal.h"
#include "core/replication.h"
#include "docgen.h"
#include "harness.h"
#include "host_speed.h"
#include "lang/lint.h"
#include "lang/parser.h"
#include "service/service.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace service = decompeval::service;
namespace cluster = decompeval::cluster;

constexpr std::size_t kSessions = 2;
constexpr std::size_t kFunctions = 16;
constexpr std::size_t kRefetchWindow = 32;
/// One round: E = edit, R = re-fetch, O = never-seen document.
constexpr char kRound[] = "EEREEREERO";
constexpr std::size_t kRoundLength = sizeof kRound - 1;
/// Rounds each session runs between two host-speed slices (~0.15 s).
constexpr std::size_t kRoundsPerSlice = 3;
/// Every kEditSampleEvery-th edit, kRefetchSampleEvery-th re-fetch and
/// kOpenSampleEvery-th open response is kept for the output checks
/// (bounded by kMaxSamples per session).
constexpr std::size_t kEditSampleEvery = 16;
constexpr std::size_t kRefetchSampleEvery = 8;
constexpr std::size_t kOpenSampleEvery = 4;
constexpr std::size_t kMaxSamples = 64;

enum class OpKind { kEdit, kRefetch, kOpen };

struct Document {
  DocumentSpec spec;
  std::vector<std::uint64_t> versions;
  std::vector<GeneratedFunction> functions;
  std::string source;
};

Document make_document(const DocumentSpec& spec,
                       std::vector<std::uint64_t> versions) {
  Document d;
  d.spec = spec;
  d.versions = std::move(versions);
  d.functions = generate_functions(spec, d.versions);
  d.source = render_document(d.functions);
  return d;
}

Json annotate_request(const std::string& source, const std::string* baseline) {
  Json r = Json::object();
  r.set("op", Json::string("annotate"));
  r.set("source", Json::string(source));
  if (baseline != nullptr) r.set("baseline", Json::string(*baseline));
  return r;
}

/// The session's anchor: the first salt (in a seed-derived sequence)
/// whose document the ring places on backend `session`.
Document anchor_document(std::uint64_t seed, std::size_t session) {
  decompeval::util::Rng rng(seed * 7919 + session);
  for (;;) {
    DocumentSpec spec{rng.next_u64(), kFunctions};
    Document doc =
        make_document(spec, std::vector<std::uint64_t>(kFunctions, 1));
    if (routed_backend(annotate_request(doc.source, nullptr)) == session)
      return doc;
  }
}

/// Deterministic request script of one session.
class SessionScript {
 public:
  struct Op {
    OpKind kind = OpKind::kEdit;
    Json request;
    std::shared_ptr<const Document> doc;  ///< generated text behind it
    /// The answer the session got the first time it sent `request`: filled
    /// in by the caller for a new request, read back on a re-fetch.
    std::shared_ptr<Json> first_answer;
  };

  SessionScript(std::uint64_t seed, std::size_t session,
                std::uint64_t version_base)
      : anchor_(anchor_document(seed, session)),
        rng_(seed * 104729 + session),
        version_(version_base) {
    remember(std::make_shared<const Document>(anchor_), anchor_request(),
             anchor_answer_);
  }

  const Document& anchor() const { return anchor_; }
  Json anchor_request() const { return annotate_request(anchor_.source, nullptr); }
  /// Where the caller keeps the answer to the anchor's first open.
  Json& anchor_answer() { return *anchor_answer_; }

  Op next() {
    const char c = kRound[position_++ % kRoundLength];
    Op op;
    if (c == 'R') {
      const std::size_t pick = rng_.uniform_index(history_.size());
      op.kind = OpKind::kRefetch;
      op.request = history_[pick].request;
      op.doc = history_[pick].doc;
      op.first_answer = history_[pick].first_answer;
      return op;
    }
    std::shared_ptr<const Document> doc;
    if (c == 'E') {
      std::vector<std::uint64_t> versions = anchor_.versions;
      versions[rng_.uniform_index(kFunctions)] = ++version_;
      doc = std::make_shared<const Document>(
          make_document(anchor_.spec, versions));
      op.kind = OpKind::kEdit;
      op.request = annotate_request(doc->source, &anchor_.source);
    } else {
      return open_new();
    }
    op.doc = doc;
    op.first_answer = std::make_shared<Json>();
    remember(std::move(doc), op.request, op.first_answer);
    return op;
  }

  /// A never-seen document, outside the round (the set-up opens these to
  /// fill the re-fetch window; the round's 'O' is one too).
  Op open_new() {
    Op op;
    DocumentSpec spec{rng_.next_u64(), kFunctions};
    op.doc = std::make_shared<const Document>(
        make_document(spec, std::vector<std::uint64_t>(kFunctions, 1)));
    op.kind = OpKind::kOpen;
    op.request = annotate_request(op.doc->source, nullptr);
    op.first_answer = std::make_shared<Json>();
    remember(op.doc, op.request, op.first_answer);
    return op;
  }

 private:
  struct Sent {
    std::shared_ptr<const Document> doc;
    Json request;
    std::shared_ptr<Json> first_answer;
  };

  void remember(std::shared_ptr<const Document> doc, Json request,
                std::shared_ptr<Json> first_answer) {
    if (history_.size() == kRefetchWindow) history_.erase(history_.begin());
    history_.push_back(
        {std::move(doc), std::move(request), std::move(first_answer)});
  }

  Document anchor_;
  decompeval::util::Rng rng_;
  std::uint64_t version_;
  std::shared_ptr<Json> anchor_answer_ = std::make_shared<Json>();
  std::size_t position_ = 0;
  std::vector<Sent> history_;
};

/// Checks one annotate response against the document it was generated
/// from: function names and count, every planted defect reported in its
/// function with its code and a span over the planted symbol, and every
/// span inside the source (and inside its function's slice).
void check_annotation(const Json& response, const Document& doc,
                      const std::string& label, Outcome& out) {
  const Json* functions = response.get("functions");
  if (functions == nullptr || functions->type() != Json::Type::kArray) {
    out.check(false, label + ": response has no functions array");
    return;
  }
  const auto& fns = functions->items();
  out.check(fns.size() == doc.functions.size() &&
                response.get_number("n_functions", -1) ==
                    static_cast<double>(doc.functions.size()),
            label + ": function count " + std::to_string(fns.size()) +
                " != generated " + std::to_string(doc.functions.size()));
  const double size = static_cast<double>(doc.source.size());
  for (std::size_t i = 0; i < std::min(fns.size(), doc.functions.size());
       ++i) {
    const Json& f = fns[i];
    const GeneratedFunction& g = doc.functions[i];
    out.check(f.get_string("name", "") == g.name && f.get_bool("parsed", false),
              label + ": function " + std::to_string(i) + " is '" +
                  f.get_string("name", "") + "', generated '" + g.name + "'");
    const Json* fspan = f.get("span");
    const double fbegin = fspan ? fspan->get_number("begin", -1) : -1;
    const double fend = fspan ? fspan->get_number("end", -1) : -1;
    out.check(fbegin >= 0 && fbegin <= fend && fend <= size,
              label + ": function span outside the source");
    bool planted_found = false;
    const Json* annotations = f.get("annotations");
    const Json empty = Json::array();
    for (const Json& a : (annotations ? *annotations : empty).items()) {
      const Json* span = a.get("span");
      const double b = span ? span->get_number("begin", -1) : -1;
      const double e = span ? span->get_number("end", -1) : -1;
      const bool inside = b >= fbegin && b <= e && e <= fend;
      out.check(inside, label + ": annotation span [" + std::to_string(b) +
                            "," + std::to_string(e) + ") outside " + g.name);
      if (!inside || a.get_string("code", "") != g.defect.code) continue;
      const std::string text = doc.source.substr(
          static_cast<std::size_t>(b), static_cast<std::size_t>(e - b));
      if (text.find(g.defect.symbol) != std::string::npos)
        planted_found = true;
    }
    out.check(planted_found, label + ": planted " + g.defect.code + " on '" +
                                 g.defect.symbol + "' not reported in " +
                                 g.name);
  }
}

struct KeptResponse {
  OpKind kind;
  std::shared_ptr<const Document> doc;
  Json response;
  std::shared_ptr<const Json> first_answer;  ///< re-fetches only
};

const char* kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kEdit:
      return "edit";
    case OpKind::kRefetch:
      return "re-fetch";
    case OpKind::kOpen:
      return "open";
  }
  return "?";
}

struct SessionResult {
  std::vector<Sample> edits, refetches, opens, all;
  ClientTally tally;
  std::vector<KeptResponse> kept;
};

}  // namespace

Outcome run_annotate_session(const Args& args, const std::string& scratch) {
  Outcome out;
  BenchCluster cluster(scratch);
  std::vector<std::unique_ptr<SessionScript>> scripts;
  for (std::size_t s = 0; s < kSessions; ++s)
    scripts.push_back(std::make_unique<SessionScript>(args.seed, s, 1000));
  std::vector<std::unique_ptr<service::ServiceClient>> clients;
  // Set-up: each session opens its anchor, so its engine holds the
  // anchor's slices before the first timed edit, and then opens never-seen
  // documents until its re-fetch window is full, as an IDE opens the
  // functions of a binary before the user starts editing. These requests
  // count as attempted but are not timed.
  std::vector<SessionResult> results(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    out.check(cluster.primary_of(scripts[s]->anchor_request()) == s,
              "session " + std::to_string(s) + " anchor routes elsewhere");
    clients.push_back(std::make_unique<service::ServiceClient>());
    clients.back()->connect(cluster.front_socket());
    ClientTally& tally = results[s].tally;
    Json& r = scripts[s]->anchor_answer();
    r = timed_call(*clients.back(), scripts[s]->anchor_request(), tally,
                   nullptr);
    check_annotation(r, scripts[s]->anchor(),
                     "session " + std::to_string(s) + " anchor", out);
    for (std::size_t i = 1; i < kRefetchWindow; ++i) {
      SessionScript::Op op = scripts[s]->open_new();
      *op.first_answer =
          timed_call(*clients.back(), op.request, tally, nullptr);
    }
  }

  const double setup_s = seconds_since_start();
  HostSpeed speed;
  speed.sample();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  // Both sessions meet after every kRoundsPerSlice rounds; the last to
  // arrive runs a host-speed slice while no request is in flight and
  // decides whether the run is over, so every session ends on whole rounds.
  bool done = false, speed_failed = false;
  std::barrier meet(static_cast<std::ptrdiff_t>(kSessions), [&]() noexcept {
    try {
      speed.sample();
    } catch (...) {
      speed_failed = true;
    }
    done = speed_failed || Clock::now() >= deadline;
  });
  run_clients(kSessions, [&](std::size_t s) {
    SessionScript& script = *scripts[s];
    SessionResult& r = results[s];
    std::size_t edits = 0, refetches = 0, opens = 0;
    // One request of the session's script, timed, tallied and maybe kept.
    const auto send = [&] {
      SessionScript::Op op = script.next();
      double us = 0.0;
      Json response = timed_call(*clients[s], op.request, r.tally, &us);
      const Sample sample{us, s, 1.0};
      r.all.push_back(sample);
      bool keep = false;
      switch (op.kind) {
        case OpKind::kEdit:
          r.edits.push_back(sample);
          keep = edits++ % kEditSampleEvery == 0;
          break;
        case OpKind::kRefetch:
          r.refetches.push_back(sample);
          keep = refetches++ % kRefetchSampleEvery == 0;
          break;
        case OpKind::kOpen:
          r.opens.push_back(sample);
          keep = opens++ % kOpenSampleEvery == 0;
          break;
      }
      if (op.kind == OpKind::kRefetch) {
        if (keep && r.kept.size() < kMaxSamples)
          r.kept.push_back(
              {op.kind, op.doc, std::move(response), op.first_answer});
      } else {
        // The first answer stays with the session's history; a kept
        // sample shares it.
        *op.first_answer = std::move(response);
        if (keep && r.kept.size() < kMaxSamples)
          r.kept.push_back({op.kind, op.doc, *op.first_answer, nullptr});
      }
    };
    try {
      while (!done) {
        for (std::size_t i = 0; i < kRoundsPerSlice * kRoundLength; ++i)
          send();
        meet.arrive_and_wait();
      }
    } catch (...) {
      meet.arrive_and_drop();
      throw;
    }
  });
  cluster.stop();
  out.check(!speed_failed, "a host-speed slice failed");
  out.speed_factor = speed.factor();
  out.host = speed.readings();

  std::vector<Sample> edits, refetches, opens, all;
  for (const SessionResult& r : results) {
    edits.insert(edits.end(), r.edits.begin(), r.edits.end());
    refetches.insert(refetches.end(), r.refetches.begin(), r.refetches.end());
    opens.insert(opens.end(), r.opens.begin(), r.opens.end());
    all.insert(all.end(), r.all.begin(), r.all.end());
    out.attempted += r.tally.attempted;
    out.failed += r.tally.failed;
  }
  const double rate = closed_loop_rate(all, all);
  const std::vector<double> edit_us = latencies(edits),
                            refetch_us = latencies(refetches),
                            open_us = latencies(opens);

  // ---- output checks (after the timed phase) -------------------------
  std::size_t checked_edits = 0, checked_refetches = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (const KeptResponse& kept : results[s].kept) {
      if (kept.response.get_string("status", "") != "ok") continue;
      const std::string label =
          "session " + std::to_string(s) + " " + kind_name(kept.kind);
      check_annotation(kept.response, *kept.doc, label, out);
      if (kept.kind == OpKind::kRefetch) {
        // A re-fetch answers exactly what the same request got first.
        out.check(kept.first_answer->dump() == kept.response.dump(),
                  label + " differs from the first answer to its request");
        ++checked_refetches;
        continue;
      }
      if (kept.kind != OpKind::kEdit) continue;
      // Warm == cold: the incremental, served answer equals a fresh core
      // annotating the same text with no baseline and no warm slices.
      service::ServiceCore fresh;
      const std::string cold =
          fresh.handle(annotate_request(kept.doc->source, nullptr)).dump();
      out.check(cold == kept.response.dump(),
                "session " + std::to_string(s) +
                    " edit response differs from a cold annotate");
      ++checked_edits;
    }
  }
  out.check(checked_edits > 0, "no edit response was sampled");
  out.check(checked_refetches > 0, "no re-fetch response was sampled");

  out.roles = {{"setup_s", setup_s, "s"},
               {"throughput_per_s", rate, "1/s"},
               {"write_p50_us", quantile(edit_us, 0.5), "us"},
               {"read_p50_us", quantile(refetch_us, 0.5), "us"},
               {"heavy_p50_us", quantile(open_us, 0.5), "us"}};
  out.named = {{"annotate_edit_p50_us", quantile(edit_us, 0.5), "us"},
               {"annotate_edit_p90_us", quantile(edit_us, 0.9), "us"},
               {"annotate_refetch_p50_us", quantile(refetch_us, 0.5), "us"},
               {"annotate_open_p50_us", quantile(open_us, 0.5), "us"},
               {"annotate_requests_per_s", rate, "1/s"},
               {"edits", static_cast<double>(edits.size()), "count"},
               {"refetches", static_cast<double>(refetches.size()), "count"},
               {"opens", static_cast<double>(opens.size()), "count"}};
  return out;
}

void trace_annotate_layers(const Args& args, const std::string& scratch,
                           std::vector<Metric>& out) {
  constexpr std::size_t kRounds = 50;
  using Us = std::chrono::duration<double, std::micro>;
  const auto time_us = [](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    return Us(Clock::now() - t0).count();
  };
  // Session 0's inputs, in round order. Each served phase below uses its
  // own version base so no phase finds another's results cached.
  const auto script_ops = [&](std::uint64_t version_base) {
    SessionScript script(args.seed, 0, version_base);
    std::vector<SessionScript::Op> ops;
    for (std::size_t i = 0; i < kRounds * kRoundLength; ++i)
      ops.push_back(script.next());
    return std::make_pair(script.anchor_request(), std::move(ops));
  };
  const auto [anchor_request, ops] = script_ops(1000);
  const Document anchor = anchor_document(args.seed, 0);

  // lang: parse and lint per function, over the anchor and the opens.
  std::vector<double> parse_us, lint_us;
  const auto lang_pass = [&](const Document& doc) {
    for (const GeneratedFunction& f : doc.functions) {
      decompeval::lang::Function fn;
      parse_us.push_back(
          time_us([&] { fn = decompeval::lang::parse_function(f.text); }));
      lint_us.push_back(time_us([&] { decompeval::lang::lint_function(fn); }));
    }
  };
  lang_pass(anchor);
  for (const auto& op : ops)
    if (op.kind == OpKind::kOpen) lang_pass(*op.doc);
  out.push_back({"lang.parse_us", quantile(parse_us, 0.5), "us"});
  out.push_back({"lang.lint_us", quantile(lint_us, 0.5), "us"});

  // analysis_service: one engine sees what reaches a backend's engine in
  // the served session — the anchor, then edits and opens (re-fetches are
  // answered by the response caches before the engine).
  {
    decompeval::analysis_service::AnnotationEngine engine;
    engine.annotate(anchor.source);
    std::vector<double> cold_us, incremental_us;
    for (const auto& op : ops) {
      if (op.kind == OpKind::kRefetch) continue;
      const double us = time_us([&] { engine.annotate(op.doc->source); });
      (op.kind == OpKind::kOpen ? cold_us : incremental_us).push_back(us);
    }
    const auto stats = engine.cache_stats();
    out.push_back({"analysis_service.annotate_cold_us", quantile(cold_us, 0.5), "us"});
    out.push_back({"analysis_service.annotate_incremental_us",
                   quantile(incremental_us, 0.5), "us"});
    out.push_back({"analysis_service.slice_hit_ratio",
                   static_cast<double>(stats.hits) /
                       static_cast<double>(stats.hits + stats.misses),
                   "ratio"});
  }

  // service: JSON framing and the core's handler on the edit requests.
  std::vector<const SessionScript::Op*> edits;
  for (const auto& op : ops)
    if (op.kind == OpKind::kEdit) edits.push_back(&op);
  std::vector<double> parse_json_us, dump_json_us, core_us, request_bytes,
      response_bytes;
  std::vector<Json> responses;
  {
    service::ServiceCore core;
    core.handle(anchor_request);
    for (const auto* op : edits) {
      const std::string line = op->request.dump();
      request_bytes.push_back(static_cast<double>(line.size()));
      parse_json_us.push_back(time_us([&] { Json::parse(line); }));
      Json response;
      core_us.push_back(time_us([&] { response = core.handle(op->request); }));
      std::string rendered;
      dump_json_us.push_back(time_us([&] { rendered = response.dump(); }));
      response_bytes.push_back(static_cast<double>(rendered.size()));
      responses.push_back(std::move(response));
    }
  }
  out.push_back({"service.json_parse_us", quantile(parse_json_us, 0.5), "us"});
  out.push_back({"service.json_dump_us", quantile(dump_json_us, 0.5), "us"});
  out.push_back({"service.request_bytes", mean(request_bytes), "bytes"});
  out.push_back({"service.response_bytes", mean(response_bytes), "bytes"});
  out.push_back({"service.core_handle_us", quantile(core_us, 0.5), "us"});

  // cluster: the backend handler (core + disk cache + journal), and the
  // disk store and journal append on their own.
  {
    cluster::ClusterBackendOptions options;
    options.cache.directory = scratch + "/trace-backend/cache";
    options.cache.version = decompeval::core::version();
    options.journal.path = scratch + "/trace-backend/journal";
    cluster::ClusterBackend backend(options);
    backend.handle(anchor_request, nullptr);
    std::vector<double> backend_us;
    for (const auto* op : edits)
      backend_us.push_back(
          time_us([&] { backend.handle(op->request, nullptr); }));
    out.push_back({"cluster.backend_handle_us", quantile(backend_us, 0.5), "us"});

    cluster::DiskCacheOptions disk_options;
    disk_options.directory = scratch + "/trace-disk";
    disk_options.version = decompeval::core::version();
    cluster::DiskCache disk(disk_options);
    cluster::JournalOptions journal_options;
    journal_options.path = scratch + "/trace-journal";
    cluster::Journal journal(journal_options);
    std::vector<double> store_us, append_us;
    for (std::size_t i = 0; i < edits.size(); ++i) {
      const Json& request = edits[i]->request;
      const std::string key = service::canonical_request_key(request);
      store_us.push_back(time_us(
          [&] { disk.store(disk.digest(request), responses[i], key); }));
      const std::string record = service::strip_volatile_fields(request).dump();
      append_us.push_back(time_us([&] { journal.append(record); }));
    }
    out.push_back({"cluster.disk_store_us", quantile(store_us, 0.5), "us"});
    // A mean, not a median: the journal's periodic fsync is in the tail.
    out.push_back({"cluster.journal_append_us", mean(append_us), "us"});
  }

  // Served: socket round trip straight to one backend, the dispatcher's
  // handler in-process, and the front's replica-install and fsync counts.
  BenchCluster cluster(scratch + "/trace-cluster");
  {
    service::ServiceClient direct;
    direct.connect(cluster.backend_socket(0));
    const auto [anchor_req, direct_ops] = script_ops(300000);
    direct.call(anchor_req);
    std::vector<double> roundtrip_us;
    for (const auto& op : direct_ops)
      if (op.kind == OpKind::kEdit)
        roundtrip_us.push_back(time_us([&] { direct.call(op.request); }));
    out.push_back(
        {"service.backend_roundtrip_us", quantile(roundtrip_us, 0.5), "us"});
  }
  {
    const auto [anchor_req, dispatch_ops] = script_ops(400000);
    cluster.dispatcher().handle(anchor_req, nullptr);
    std::vector<double> dispatch_us;
    for (const auto& op : dispatch_ops)
      if (op.kind == OpKind::kEdit)
        dispatch_us.push_back(time_us(
            [&] { cluster.dispatcher().handle(op.request, nullptr); }));
    out.push_back({"cluster.dispatcher_us", quantile(dispatch_us, 0.5), "us"});
  }
  {
    const auto installs = [&] {
      service::ServiceClient c;
      c.connect(cluster.front_socket());
      Json request = Json::object();
      request.set("op", Json::string("cluster_stats"));
      const Json s = c.call(request);
      return s.get_number("replicated", 0) +
             s.get_number("replication_failures", 0);
    };
    const auto fsyncs = [&] {
      double total = 0.0;
      for (std::size_t b = 0; b < BenchCluster::kBackends; ++b)
        total += query_number(cluster.backend_socket(b), "journal_stats", "fsyncs");
      return total;
    };
    service::ServiceClient client;
    client.connect(cluster.front_socket());
    const auto [anchor_req, front_ops] = script_ops(500000);
    client.call(anchor_req);
    double per_kind[3] = {0, 0, 0}, count[3] = {0, 0, 0};
    const double fsyncs_before = fsyncs();
    for (const auto& op : front_ops) {
      const double before = installs();
      client.call(op.request);
      const int k = static_cast<int>(op.kind);
      per_kind[k] += installs() - before;
      count[k] += 1;
    }
    out.push_back({"cluster.journal_fsyncs",
                   (fsyncs() - fsyncs_before) / static_cast<double>(front_ops.size()),
                   "1/request"});
    const char* names[3] = {"edit", "refetch", "open"};
    for (int k = 0; k < 3; ++k)
      out.push_back({std::string("cluster.replica_installs_per_request.") +
                         names[k],
                     per_kind[k] / count[k], "1/request"});
  }
}

}  // namespace perfbench
