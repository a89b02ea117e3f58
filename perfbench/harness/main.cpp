// perfbench: one workload of the Bridge benchmark, in its own process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//   perfbench --crosscheck
//
// Rounds of the workload repeat until --seconds of wall time have passed;
// every round is a fresh machine built from the seed.  Set-up time and the
// timed phase's host time are each the fastest round's; virtual metrics
// must repeat exactly in every round.
// With --trace 1 the rounds alternate untraced and traced, and the traced
// ones also collect the per-layer metrics.  The last line of stdout is one
// JSON object; perfbench/run.py turns it into the benchmark's result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "harness/layers.hpp"
#include "harness/workloads.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/runtime.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< traced runs write their spans here
  bool crosscheck = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n"
               "       perfbench --crosscheck\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--crosscheck") {
      args.crosscheck = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Per-layer figures a workload reports; 0 on workloads without that phase.
constexpr const char* kFigureNames[] = {
    "tools.copy_s",
    "tools.sort_s",
    "tools.sort_local_s",
    "tools.sort_merge_s",
    "tools.sort_merge_passes",
    "core.repl.append_ms_per_stripe",
    "core.repl.degraded_read_ms_p50",
    "core.repl.rebuild_s",
    "core.repl.rebuild_s.mirror",
    "core.repl.rebuild_s.parity_data",
    "core.repl.rebuild_s.parity",
    "core.repl.rebuild_blocks",
    "scan.stream_s",
    "scan.parallel_s",
    "scan.random_s",
};

/// The virtual metrics of one round.  Op rate and latency count client ops
/// only; a rebuild shows in virt_s as a whole.  The model's service costs
/// are fixed, so op latencies fall on a lattice of a few values and a
/// percentile can read the same for every seed; the mean cannot, and it is
/// the end-to-end latency metric.  The percentiles are per-layer metrics.
LayerValues virtual_metrics(const RoundResult& r) {
  std::vector<std::int64_t> us;
  double total_us = 0;
  for (const OpSpan& s : r.spans) {
    if (!s.client) continue;
    us.push_back(s.v_us());
    total_us += static_cast<double>(s.v_us());
  }
  LayerValues m;
  m["virt_s"] = r.virt_s;
  m["ops_per_s"] = r.virt_s > 0 ? static_cast<double>(us.size()) / r.virt_s : 0;
  m["blocks_per_s"] =
      r.virt_s > 0 ? static_cast<double>(r.blocks) / r.virt_s : 0;
  m["op_ms_mean"] =
      us.empty() ? 0 : total_us / 1e3 / static_cast<double>(us.size());
  m["op_ms_p50"] = percentile_ms(us, 0.50);
  m["op_ms_p99"] = percentile_ms(us, 0.99);
  return m;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_values(const LayerValues& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(value) ? value : 0.0);
    if (out.size() > 1) out += ',';
    out += json_string(name) + ':' + num;
  }
  return out + "}";
}

/// The spans of one traced round as JSON lines; host times are relative to
/// the round's first span.
void write_spans(const std::vector<OpSpan>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(3);
  }
  const std::int64_t h0 = spans.empty() ? 0 : spans.front().h_start_ns;
  for (const OpSpan& s : spans) {
    std::fprintf(f,
                 "{\"op\":\"%.*s\",\"client\":%s,\"ok\":%s,"
                 "\"v_start_us\":%lld,\"v_end_us\":%lld,"
                 "\"h_start_ns\":%lld,\"h_end_ns\":%lld}\n",
                 static_cast<int>(s.op.size()), s.op.data(),
                 s.client ? "true" : "false", s.ok ? "true" : "false",
                 static_cast<long long>(s.v_start_us),
                 static_cast<long long>(s.v_end_us),
                 static_cast<long long>(s.h_start_ns - h0),
                 static_cast<long long>(s.h_end_ns - h0));
  }
  std::fclose(f);
  std::printf("spans: %zu -> %s\n", spans.size(), path.c_str());
}

int run(const Args& args, const std::string& backend) {
  const Workload* workload = nullptr;
  for (const auto& w : workloads()) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  // One warm-up round (heap and caches), not counted.  Then rounds until
  // the host-time budget is spent: at least three untraced, and with
  // --trace at least two traced, alternating.  Only the first untraced and
  // the last traced round are kept whole; every other round is compared
  // with the first and dropped.  Virtual figures are a function of the
  // seed, so every round must agree, traced or not.
  const auto start = HostClock::now();
  workload->run_round(RoundParams{args.seed, false});
  std::optional<RoundResult> first, traced;
  LayerValues virt;
  std::vector<double> setup_s, host_s, traced_host_s;
  std::vector<std::string> errors;
  std::uint64_t check_failures = 0;
  std::uint64_t diverged = 0;  ///< rounds whose virtual figures differ
  while (true) {
    const bool spent = seconds_since(start) >= args.seconds;
    if (spent && host_s.size() >= 3 &&
        (!args.trace || traced_host_s.size() >= 2)) {
      break;
    }
    const bool trace_now = args.trace && traced_host_s.size() < host_s.size();
    RoundResult r = workload->run_round(RoundParams{args.seed, trace_now});
    (trace_now ? traced_host_s : host_s).push_back(r.timed_host_s);
    if (!trace_now) setup_s.push_back(r.setup_host_s);
    check_failures = std::max(check_failures, r.check_failures);
    if (!first) {
      virt = virtual_metrics(r);
      errors = r.errors;
      first = std::move(r);
      continue;
    }
    if (virtual_metrics(r) != virt || r.figures != first->figures ||
        r.spans.size() != first->spans.size()) {
      if (diverged++ == 0) {
        errors.push_back("virtual figures differ between rounds");
      }
    }
    if (trace_now) traced = std::move(r);
  }
  std::uint64_t failed_ops = 0;
  for (const OpSpan& s : first->spans) failed_ops += s.ok ? 0 : 1;

  LayerValues e2e = virt;
  // Other processes on the machine only ever add CPU time (shared caches,
  // memory bandwidth), and their load comes and goes over seconds: the
  // fastest round is the steadiest estimate of the simulator's own cost.
  e2e["setup_s"] = *std::min_element(setup_s.begin(), setup_s.end());
  e2e["host_s"] = *std::min_element(host_s.begin(), host_s.end());
  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  e2e["peak_rss_mb"] = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

  LayerValues layers;
  if (args.trace) {
    const RoundResult& t = *traced;
    layers = t.layers;
    add_span_layers(t, layers);
    for (const char* name : kFigureNames) {
      auto it = t.figures.find(name);
      layers[name] = it == t.figures.end() ? 0.0 : it->second;
    }
    layers["op_ms_p50"] = virt["op_ms_p50"];
    layers["op_ms_p99"] = virt["op_ms_p99"];
    layers["host_s"] = e2e["host_s"];
    const double events = layers["sim.events"];
    layers["sim.host_ns_per_event"] =
        events > 0 ? e2e["host_s"] * 1e9 / events : 0;
    layers["obs.trace_overhead_frac"] =
        *std::min_element(traced_host_s.begin(), traced_host_s.end()) /
            e2e["host_s"] -
        1;
    run_probes(workload->probe_shape(args.seed), layers);
  }

  const auto client_ops = static_cast<std::size_t>(
      std::count_if(first->spans.begin(), first->spans.end(),
                    [](const OpSpan& s) { return s.client; }));
  const std::uint64_t attempted = first->spans.size() + first->checks;
  const std::uint64_t failed = failed_ops + check_failures + diverged;
  std::printf("workload %s  seed %llu  rounds %zu untraced + %zu traced  "
              "backend %s  build %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              host_s.size(), traced_host_s.size(), backend.c_str(),
              PERFBENCH_BUILD_TYPE);
  std::printf("ops %zu (client %zu)  checks %llu  failed %llu  "
              "failed_ops_frac %.6g\n",
              first->spans.size(), client_ops,
              static_cast<unsigned long long>(first->checks),
              static_cast<unsigned long long>(failed),
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);
  for (const auto& [name, value] : first->figures) {
    std::printf("  %-34s %.6g\n", name.c_str(), value);
  }
  auto range = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    char text[64];
    std::snprintf(text, sizeof text, "%.4f/%.4f/%.4f", v.front(),
                  median(v), v.back());
    return std::string(text);
  };
  std::printf("host CPU s per round, min/median/max: set-up %s, timed %s\n",
              range(setup_s).c_str(), range(host_s).c_str());
  if (args.trace && !args.spans_path.empty()) {
    write_spans(traced->spans, args.spans_path);
  }
  for (const std::string& e : errors) std::printf("FAILED: %s\n", e.c_str());

  std::string errors_json = "[";
  for (const std::string& e : errors) {
    if (errors_json.size() > 1) errors_json += ',';
    errors_json += json_string(e);
  }
  errors_json += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"backend\":%s,\"build_type\":%s,"
      "\"rounds\":%zu,\"traced_rounds\":%zu,\"correct\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"op_samples\":%zu,\"errors\":%s,\"end_to_end\":%s,"
      "\"per_layer\":%s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      json_string(backend).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      host_s.size(), traced_host_s.size(),
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), client_ops,
      errors_json.c_str(), json_values(e2e).c_str(),
      json_values(layers).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = parse_args(argc, argv);
  // The threads backend runs one OS thread per simulated process; the
  // benchmark's host metrics are defined for the single-threaded fibers
  // backend only.
  const std::string backend = sim::Runtime(1).scheduler().backend_name();
  if (backend != "fibers") {
    std::fprintf(stderr, "perfbench: refusing to run on the %s backend "
                         "(set BRIDGE_SIM_BACKEND=fibers or unset it)\n",
                 backend.c_str());
    return 2;
  }
  if (args.crosscheck) return run_crosscheck();
  if (args.workload.empty()) usage("--workload is required");
  return run(args, backend);
}
