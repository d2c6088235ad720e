// Benchmark driver for the served system.
//
//   perfbench_driver --workload annotate-session|stream-live
//                    --seed N --seconds S --trace 0|1
//
// Runs one workload against a fresh in-process cluster for S seconds,
// checks the outputs, prints a table of the workload's readings as
// measured, and ends with one JSON line: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
// scaled to the reference host's speed; with --trace 1 they are
// the per-layer ones (every layer, replayed on the seed's inputs) plus the
// traced run's own end-to-end readings under "traced.". Exit status 0
// only when every output check passed.
//
// All files live in a fresh .bench_tmp/run-<pid> under the working
// directory, removed on every exit path, SIGINT/SIGTERM/SIGHUP included.
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"

namespace {

using namespace perfbench;

constexpr const char* kScratchParent = ".bench_tmp";

void usage_and_exit(const std::string& problem) {
  std::cerr << "perfbench_driver: " << problem
            << "\nusage: perfbench_driver --workload "
               "annotate-session|stream-live --seed N "
               "--seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_and_exit("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else usage_and_exit("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage_and_exit("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload != "annotate-session" && args.workload != "stream-live")
    usage_and_exit("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0))
    usage_and_exit("--seconds must be in (0, 600]");
  return args;
}

/// Waits for SIGINT/SIGTERM/SIGHUP (blocked in every other thread). On a
/// real signal it removes the run's scratch directory and exits at once:
/// every cluster thread and socket dies with the process. SIGUSR1 is the
/// orderly-exit wake-up.
void signal_loop(sigset_t set, std::string scratch_path) {
  int sig = 0;
  sigwait(&set, &sig);
  if (sig == SIGUSR1) return;
  std::error_code ec;
  std::filesystem::remove_all(scratch_path, ec);
  std::filesystem::remove(kScratchParent, ec);  // only when empty
  std::fprintf(stderr, "perfbench_driver: stopped by signal %d\n", sig);
  std::_Exit(128 + sig);
}

std::string render_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Outcome& out, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            render_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

int run(const Args& args, const std::string& scratch_path) {
  std::filesystem::create_directories(kScratchParent);
  ScratchRoot scratch(scratch_path);
  Outcome out;
  if (args.workload == "annotate-session")
    out = run_annotate_session(args, scratch.path());
  else
    out = run_stream_live(args, scratch.path());

  std::cout << "workload " << args.workload << " seed " << args.seed
            << ": attempted " << out.attempted << ", failed " << out.failed
            << "\n";
  for (const Metric& m : out.named)
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";

  for (const Metric& m : out.host)
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";

  // The end-to-end metrics at the reference host's speed (host_speed.h):
  // a time is multiplied by the run's factor, a rate divided by it.
  std::vector<Metric> end_to_end = out.roles;
  for (Metric& m : end_to_end)
    m.value = m.unit == "1/s" ? m.value / out.speed_factor
                              : m.value * out.speed_factor;

  std::vector<Metric> metrics;
  if (args.trace) {
    trace_annotate_layers(args, scratch.path(), metrics);
    trace_study_layers(args, scratch.path(), metrics, out);
    trace_stream_layers(args, scratch.path(), metrics);
    metrics.insert(metrics.end(), out.host.begin(), out.host.end());
    for (const Metric& m : end_to_end)
      metrics.push_back({"traced." + m.name, m.value, m.unit});
    for (const Metric& m : metrics)
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  } else {
    metrics = end_to_end;
  }
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value))
      out.check(false, "metric " + m.name + " is not finite");
  for (std::size_t i = 0; i < out.check_failures.size() && i < 20; ++i)
    std::cout << "  CHECK FAILED: " << out.check_failures[i] << "\n";
  if (out.check_failures.size() > 20)
    std::cout << "  ... " << out.check_failures.size() - 20
              << " more check failures\n";
  print_result(out, metrics);
  return out.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Block the stop signals before any thread exists so every thread the
  // cluster starts inherits the mask and only signal_loop receives them.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGHUP);
  sigaddset(&set, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  // A peer closing its socket must surface as an error, not kill us.
  signal(SIGPIPE, SIG_IGN);
  const std::string scratch_path =
      std::string(kScratchParent) + "/run-" + std::to_string(::getpid());
  std::thread watcher(signal_loop, set, scratch_path);

  int status = 2;
  try {
    status = run(args, scratch_path);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    status = 2;
  }
  pthread_kill(watcher.native_handle(), SIGUSR1);
  watcher.join();
  std::error_code ec;
  std::filesystem::remove(kScratchParent, ec);  // only when empty
  return status;
}
