// The measured phases: the single closed-loop client against the server,
// the functional CPU-side replay, the cycle simulator, and hot-swaps.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "memsys/functional.h"
#include "workloads.h"

namespace perfbench {

/// RecoveryStats summed over every store a phase touched (churn replaces
/// the store on each swap, so it is harvested before every swap).
struct RecoveryTotals {
  std::uint64_t ecc_corrected = 0;
  std::uint64_t refetched = 0;
  std::uint64_t escalated = 0;
  std::uint64_t scrub_corrected = 0;
  std::uint64_t scrub_refetched = 0;
};

struct ClientResult {
  std::uint64_t attempted = 0;  // fetches and swaps issued
  std::uint64_t failed = 0;     // fetches that threw, swaps rejected
  std::uint64_t wrong = 0;      // fetches that returned wrong bytes
  std::string first_wrong;
  std::uint64_t fetches = 0;
  std::uint64_t decodes = 0;  // fetches this client's own decode served
  LatencyHistogram latency;  // every fetch call, ns
  /// One entry per run_client call (a window): its p50, p99 (ns) and
  /// completed fetches per wall second. merge() appends them.
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  std::vector<double> window_rate;
  double wall_s = 0.0;
  std::vector<double> swap_ms;
  std::uint64_t faults_injected = 0;
  RecoveryTotals recovery;
  /// (image, original block) of demand decodes, in order, capped.
  std::vector<std::pair<std::size_t, std::uint32_t>> misses;

  void merge(const ClientResult& other);
};

struct ClientOptions {
  double seconds = 0.0;         // stop after this long (0 = no limit)
  std::size_t max_fetches = 0;  // stop after this many (0 = no limit)
  bool schedule = false;        // run the workload's swap/scrub/fault schedule
  Tracer* tracer = nullptr;
  std::size_t keep_misses = 0;
};

/// Drive the server from one client thread, checking every served byte.
/// The schedule counts Workload::fetched, so it runs on across calls.
ClientResult run_client(Workload& w, const ClientOptions& options);

/// Zero the self-heal counters of every served store (phase start).
void reset_recovery(Workload& w);

/// FunctionalMemorySystem::fetch over the workload's replay streams, one
/// memory system per stream kept across rounds; every fetched word is
/// compared with the original program.
class CpuReplay {
 public:
  explicit CpuReplay(const Workload& w);

  /// One pass over every stream; records the round's mean ns per fetch.
  void round(Tracer* tracer);

  std::vector<double> round_ns;  // mean ns per fetch of each round
  std::uint64_t fetches = 0;
  std::uint64_t wrong = 0;
  std::uint64_t refills() const;
  std::uint64_t accesses() const;

 private:
  struct Lane {
    const std::vector<std::uint32_t>* addresses;
    std::vector<std::uint32_t> expect;
    std::vector<std::uint32_t> got;
    std::unique_ptr<ccomp::memsys::FunctionalMemorySystem> fms;
  };
  std::vector<Lane> lanes_;
};

struct SimTotals {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t clb_lookups = 0;
  std::uint64_t clb_misses = 0;
  std::uint64_t cycles = 0;
  double host_ns = 0.0;
};

/// simulate_compressed over each replay stream (deterministic).
SimTotals simulate(const Workload& w, Tracer* tracer);

/// Hot-swap the k-th standby image (cycling through Workload::post_swaps)
/// with its own bytes; returns the latency in ms. Throws on a rejection.
double standby_swap(Workload& w, std::size_t k, Tracer* tracer);

}  // namespace perfbench
