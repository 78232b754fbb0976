// perfbench: serve a compressed firmware image end to end and report the
// benchmark's metrics.
//
//   perfbench --workload <hot-trace|cold-zipf|churn> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <file>]
//
// One client thread drives the public API in a closed loop (each request is
// sent only after the previous one returned, as a CPU refill engine stalls
// on its block). Every served byte and every functional fetch is checked
// against the original program. --trace 0 prints the end-to-end metrics;
// --trace 1 runs the same workload with spans around every call into the
// library, times each layer in isolation, and prints the per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "measure.h"
#include "obs/obs.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up repeats at least kMinSetups times and until kSetupBudgetS is spent.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 2.5;
constexpr std::size_t kKeepMisses = 4096;
constexpr double kSliceClientS = 0.1;  // client window of one measured slice
constexpr std::size_t kMinSlices = 8;
constexpr int kTracedSlices = 6;    // untraced/traced window pairs of a traced run
constexpr int kSwapsPerSlice = 3;   // standby swaps per slice (no-swap schedules)
constexpr std::uint64_t kSpinIters = 30'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(v);
    else if (key == "--trace") a.trace = std::atoi(v) != 0;
    else if (key == "--trace-out") a.trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && known_workload(a.workload) && a.seconds > 0;
}

// --- host fingerprint and control loop ------------------------------------

std::uint64_t spin(std::uint64_t iters) {
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x;
}

struct Host {
  unsigned nproc = 1;
  double spin_ms = 0.0;           // fixed single-thread spin (the control)
  double parallel_speedup = 1.0;  // nproc spins at once vs one
  double pace_us = 0.0;           // one warm pass of PaceProbe
};

Host fingerprint() {
  Host h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> one;
  volatile std::uint64_t sink = 0;
  for (int r = 0; r < 3; ++r) {
    const std::uint64_t t0 = now_ns();
    sink = sink + spin(kSpinIters);
    one.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  h.spin_ms = median(one);
  const std::uint64_t t0 = now_ns();
  std::vector<std::thread> pool;
  std::vector<std::uint64_t> results(h.nproc);
  for (unsigned t = 0; t < h.nproc; ++t)
    pool.emplace_back([&results, t] { results[t] = spin(kSpinIters); });
  for (std::thread& t : pool) t.join();
  const double all_ms = static_cast<double>(now_ns() - t0) / 1e6;
  h.parallel_speedup = h.nproc * h.spin_ms / all_ms;
  PaceProbe probe;
  std::vector<double> pace;
  for (int r = 0; r < 5; ++r) pace.push_back(probe.warm_ns() / 1e3);
  h.pace_us = median(pace);

  std::string clocksource = "unknown";
  std::ifstream cs("/sys/devices/system/clocksource/clocksource0/current_clocksource");
  if (cs) std::getline(cs, clocksource);
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  std::printf("host {\"nproc\": %u, \"compiler\": \"gcc %s\", \"build_type\": \"%s\", "
              "\"ccomp_obs\": %d, \"clocksource\": \"%s\", \"glibc_tunables\": \"%s\", "
              "\"spin_ms\": %.3f, \"parallel_speedup\": %.3f, \"pace_us\": %.1f}\n",
              h.nproc, __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_OBS, clocksource.c_str(),
              tunables != nullptr ? tunables : "", h.spin_ms, h.parallel_speedup, h.pace_us);
  return h;
}

// --- shared bits ------------------------------------------------------------

double image_ratio(const Setup& s) {
  double packed = 0.0, original = 0.0;
  for (const ServedImage& si : s.images) {
    const ccomp::core::SizeBreakdown b = si.image.sizes();
    packed += static_cast<double>(b.payload + b.tables);
    original += static_cast<double>(b.original);
  }
  return packed / original;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.to_json().c_str());
}

Workload warm_workload(const Args& a, std::unique_ptr<Setup> setup, ClientResult& warm) {
  Workload w = make_workload(a.workload, a.seed, std::move(setup));
  std::printf("workload %s seed %llu: %zu requests, stream hash %016llx\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), w.stream.size(),
              static_cast<unsigned long long>(stream_hash(w)));
  ClientOptions opt;
  opt.max_fetches = w.warmup_fetches;
  opt.keep_misses = kKeepMisses;
  warm = run_client(w, opt);
  w.setup->server->reset_stats();
  reset_recovery(w);
  return w;
}

// --- untraced run: end-to-end metrics ---------------------------------------

// On a shared host, other tenants' load on the shared cores and caches can
// change the speed by up to 2x for minutes at a time, so raw times from two
// runs of the same code disagree by more than any useful bound. Every
// timing is therefore read against a pass of PaceProbe made next to it: a
// time t measured beside a probe pass of p ns is reported as
// t * kPaceRefNs / p, the time it would take on a host that runs the probe
// in kPaceRefNs (rates are scaled the other way). The probe never calls the
// library, so a change to the program moves the paced figures exactly as it
// moves the raw ones. The raw figures are printed beside them.
constexpr double kPaceRefNs = 600'000.0;

/// One end-to-end timing's samples, raw and paced.
struct Paced {
  std::vector<double> raw, paced;
  void add(double value, double pace_ns, bool rate = false) {
    raw.push_back(value);
    paced.push_back(rate ? value * pace_ns / kPaceRefNs : value * kPaceRefNs / pace_ns);
  }
};

int run_end_to_end(const Args& a) {
  fingerprint();
  PaceProbe pace;
  Paced setup_s;
  double setup_total = 0.0;
  std::unique_ptr<Setup> setup;
  while (static_cast<int>(setup_s.raw.size()) < kMinSetups ||
         (setup_total < kSetupBudgetS && static_cast<int>(setup_s.raw.size()) < kMaxSetups)) {
    setup.reset();  // one instance alive at a time, so VmHWM is one set-up's
    const double before = pace.warm_ns();
    const std::uint64_t t0 = now_ns();
    setup = build_setup(a.workload, a.seed);
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    setup_s.add(s, (before + pace.warm_ns()) / 2);
    setup_total += s;
  }
  ClientResult warm;
  Workload w = warm_workload(a, std::move(setup), warm);

  // The measured phase runs for --seconds in short slices. Each holds one
  // client window, one functional replay round and, where the schedule
  // swaps nothing, one standby swap, between two passes of the pace probe.
  // Every latency and rate metric is the median over slices of the paced
  // slice values, so each samples the whole run.
  CpuReplay cpu(w);
  ClientResult main;
  Paced p50, p99, rate, cpu_ns, swaps;
  std::vector<double> slice_pace;
  ClientOptions opt;
  opt.seconds = kSliceClientS;
  opt.schedule = true;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(a.seconds * 1e9);
  for (std::size_t k = 0; k < kMinSlices || now_ns() < deadline; ++k) {
    const double before = pace.warm_ns();
    ClientResult win = run_client(w, opt);
    cpu.round(nullptr);
    if (!w.post_swaps.empty()) win.swap_ms.push_back(standby_swap(w, k, nullptr));
    const double pace_ns = (before + pace.warm_ns()) / 2;
    slice_pace.push_back(pace_ns);
    p50.add(win.window_p50.back(), pace_ns);
    p99.add(win.window_p99.back(), pace_ns);
    rate.add(win.window_rate.back(), pace_ns, true);
    cpu_ns.add(cpu.round_ns.back(), pace_ns);
    for (const double ms : win.swap_ms) swaps.add(ms, pace_ns);
    main.merge(win);
  }
  const SimTotals sim = simulate(w, nullptr);

  Metrics m;
  m.set("setup_s", median(setup_s.paced), "s");
  m.set("fetch_p50_ns", median(p50.paced), "ns");
  m.set("fetch_p99_ns", median(p99.paced), "ns");
  m.set("fetch_per_s", median(rate.paced), "1/s");
  m.set("cpu_fetch_ns", median(cpu_ns.paced), "ns");
  m.set("sim_cycles_per_fetch", static_cast<double>(sim.cycles) / static_cast<double>(sim.accesses),
        "cycles");
  m.set("ratio", image_ratio(*w.setup), "ratio");
  m.set("swap_p50_ms", quantile(swaps.paced, 0.50), "ms");
  m.set("swap_p90_ms", quantile(swaps.paced, 0.90), "ms");
  m.set("rss_mb", proc_kib("/proc/self/status", "VmHWM") / 1024.0, "MiB");
  m.set("ok_frac", 1.0 - static_cast<double>(main.failed) / static_cast<double>(main.attempted),
        "frac");

  const std::size_t slices = slice_pace.size();
  std::printf("%zu set-ups; %llu fetches in %.3f s over %zu slices (~%llu samples each, ~%llu "
              "beyond p99; whole-phase raw p50 %.1f ns, p99 %.1f ns); %.3f%% demand decodes; "
              "fail_frac %.6g; %zu swaps; %llu functional fetches in %zu rounds; %llu simulated "
              "fetches\n",
              setup_s.raw.size(), static_cast<unsigned long long>(main.fetches), main.wall_s,
              slices, static_cast<unsigned long long>(main.fetches / slices),
              static_cast<unsigned long long>(main.fetches / slices / 100),
              main.latency.quantile(0.5), main.latency.quantile(0.99),
              100.0 * static_cast<double>(main.decodes) / static_cast<double>(main.fetches),
              static_cast<double>(main.failed) / static_cast<double>(main.attempted),
              swaps.raw.size(), static_cast<unsigned long long>(cpu.fetches),
              cpu.round_ns.size(), static_cast<unsigned long long>(sim.accesses));
  std::printf("pace probe %.1f us median over slices (reference %.1f us); raw medians: "
              "setup_s %.6g, fetch_p50_ns %.6g, fetch_p99_ns %.6g, fetch_per_s %.6g, "
              "cpu_fetch_ns %.6g, swap_p50_ms %.6g, swap_p90_ms %.6g\n",
              median(slice_pace) / 1e3, kPaceRefNs / 1e3, median(setup_s.raw), median(p50.raw),
              median(p99.raw), median(rate.raw), median(cpu_ns.raw), quantile(swaps.raw, 0.5),
              quantile(swaps.raw, 0.9));
  auto print_series = [](const char* what, const std::vector<double>& v) {
    std::printf("slices %s:", what);
    for (const double x : v) std::printf(" %.6g", x);
    std::printf("\n");
  };
  print_series("pace_ns", slice_pace);
  print_series("p50_ns", p50.raw);
  print_series("p99_ns", p99.raw);
  print_series("fetch_per_s", rate.raw);
  print_series("cpu_fetch_ns", cpu_ns.raw);
  print_series("swap_ms", swaps.raw);
  print_series("setup_s", setup_s.raw);
  m.print_table(stdout);
  const std::uint64_t wrong = warm.wrong + main.wrong + cpu.wrong;
  if (wrong != 0)
    std::fprintf(stderr, "WRONG BYTES: %llu (%s)\n", static_cast<unsigned long long>(wrong),
                 (warm.wrong ? warm.first_wrong : main.first_wrong).c_str());
  print_result(wrong == 0, main.attempted, main.failed, m);
  return wrong == 0 ? 0 : 1;
}

// --- traced run: per-layer metrics ------------------------------------------

double hist_sum(const ccomp::obs::Snapshot& snap, const char* name) {
  for (const ccomp::obs::HistogramValue& h : snap.histograms)
    if (h.name == name) return static_cast<double>(h.sum);
  return 0.0;
}

int run_traced(const Args& a) {
  const double bytes_per_block = cache_bytes_per_block();
  const Host host = fingerprint();
  ClientResult warm;
  Workload w = warm_workload(a, build_setup(a.workload, a.seed), warm);
  ccomp::server::ImageServer& srv = *w.setup->server;
  ccomp::obs::Registry::instance().reset();

  // Untraced and traced client windows alternate (and swap order every
  // slice), so the tracing overhead compares like with like; counters cover
  // both.
  CpuReplay cpu(w);
  Tracer tr;
  ClientResult plain, traced;
  ClientOptions opt;
  opt.schedule = true;
  opt.keep_misses = kKeepMisses;
  for (int k = 0; k < kTracedSlices; ++k) {
    for (int half = 0; half < 2; ++half) {
      const bool trace_now = (half == 0) == (k % 2 == 0);
      opt.seconds = (trace_now ? 0.35 : 0.15) * a.seconds / kTracedSlices;
      opt.tracer = trace_now ? &tr : nullptr;
      (trace_now ? traced : plain).merge(run_client(w, opt));
    }
    cpu.round(&tr);
    for (int j = 0; j < kSwapsPerSlice && !w.post_swaps.empty(); ++j)
      standby_swap(w, static_cast<std::size_t>(k * kSwapsPerSlice + j), &tr);
  }
  const ccomp::server::ServerStats ss = srv.stats();
  const ccomp::memsys::BlockCacheStats cs = srv.cache_stats();
  const ccomp::obs::Snapshot snap = ccomp::obs::Registry::instance().snapshot();
  const SimTotals sim = simulate(w, &tr);

  std::vector<std::pair<std::size_t, std::uint32_t>> misses = traced.misses;
  if (misses.size() < 256) misses.insert(misses.end(), warm.misses.begin(), warm.misses.end());
  Metrics m;
  measure_layers(w, misses, m, tr);

  auto p50 = [&](const char* span) {
    const Tracer::Agg* agg = tr.find(span);
    return agg == nullptr ? 0.0 : agg->hist.quantile(0.5);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto count = [](const std::atomic<std::uint64_t>& c) { return static_cast<double>(c.load()); };
  ClientResult all = plain;
  all.merge(traced);
  const RecoveryTotals& rec = all.recovery;

  const double hit_ns = p50("server.fetch.hit");
  const double miss_ns = p50("server.fetch.decode");
  m.set("server.hit_ns", hit_ns, "ns");
  m.set("server.miss_ns", miss_ns, "ns");
  m.set("server.swap_ms", p50("server.swap") / 1e6, "ms");
  m.set("server.scrub_ms", p50("server.scrub_once") / 1e6, "ms");
  m.set("server.decodes", count(ss.decodes), "count");
  m.set("server.retries", count(ss.retries), "count");
  m.set("server.golden_serves", count(ss.golden_serves), "count");
  m.set("server.quarantine_trips", count(ss.quarantine_trips), "count");
  m.set("server.prefetch_issued", count(ss.prefetch_issued), "count");
  m.set("server.prefetch_hit_ratio", ratio(count(ss.prefetch_hits), count(ss.prefetch_issued)),
        "ratio");
  m.set("server.swaps", count(ss.swaps_accepted), "count");
  m.set("server.scrubs", count(ss.scrub_sweeps), "count");
  m.set("server.faults_injected", static_cast<double>(all.faults_injected), "count");
  m.set("cache.hit_ratio", ratio(count(cs.hits), count(cs.lookups)), "ratio");
  m.set("cache.evictions", count(cs.evictions), "count");
  m.set("cache.bytes_per_block", bytes_per_block, "B");
  m.set("selfheal.ecc_corrected", static_cast<double>(rec.ecc_corrected), "count");
  m.set("selfheal.scrub_corrected", static_cast<double>(rec.scrub_corrected), "count");
  m.set("selfheal.refetched", static_cast<double>(rec.refetched + rec.scrub_refetched), "count");
  m.set("selfheal.escalated", static_cast<double>(rec.escalated), "count");
  m.set("functional.refill_ratio",
        ratio(static_cast<double>(cpu.refills()), static_cast<double>(cpu.accesses())), "ratio");
  m.set("sim.miss_rate", ratio(static_cast<double>(sim.misses), static_cast<double>(sim.accesses)),
        "ratio");
  m.set("sim.clb_hit_rate",
        1.0 - ratio(static_cast<double>(sim.clb_misses), static_cast<double>(sim.clb_lookups)),
        "ratio");
  m.set("sim.host_ns_per_fetch", ratio(sim.host_ns, static_cast<double>(sim.accesses)), "ns");
  // Stage decomposition: what the isolated stages leave unexplained.
  m.set("hot.unexplained_ns",
        hit_ns - (m.get("ebr.pin_ns") + m.get("cache.try_get_ns") + m.get("copy.out_ns") +
                  m.get("obs.timer_ns")),
        "ns");
  m.set("cold.unexplained_ns",
        miss_ns > 0 ? miss_ns - (m.get("selfheal.read_block_ns") +
                                 m.get("cache.acquire_publish_ns"))
                    : 0.0,
        "ns");
  m.set("trace.overhead_ns", median(traced.window_p50) - median(plain.window_p50), "ns");
  // Share of demand-fetch time spent in the self-heal refill ladder (decode,
  // CRC, ECC), from the library's own memsys.selfheal.refill_ns histogram
  // over every client window of this run.
  m.set("fetch.refill_share",
        ratio(hist_sum(snap, "memsys.selfheal.refill_ns"), all.latency.sum()),
        "ratio");
  m.set("host.spin_ms", host.spin_ms, "ms");
  m.set("host.parallel_speedup", host.parallel_speedup, "x");
  m.set("host.pace_us", host.pace_us, "us");

  std::printf("traced fetches %llu, untraced %llu; span self times:\n",
              static_cast<unsigned long long>(traced.fetches),
              static_cast<unsigned long long>(plain.fetches));
  tr.print_self_times(stdout);
  m.print_table(stdout);
  if (!a.trace_out.empty() && !tr.write(a.trace_out))
    std::fprintf(stderr, "could not write %s\n", a.trace_out.c_str());

  const std::uint64_t wrong = warm.wrong + all.wrong + cpu.wrong;
  if (wrong != 0)
    std::fprintf(stderr, "WRONG BYTES: %llu (%s)\n", static_cast<unsigned long long>(wrong),
                 (warm.wrong ? warm.first_wrong : all.first_wrong).c_str());
  print_result(wrong == 0, all.attempted, all.failed, m);
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <hot-trace|cold-zipf|churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  try {
    return args.trace ? perfbench::run_traced(args) : perfbench::run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
