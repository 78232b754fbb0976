#include "measure.h"

#include <algorithm>
#include <cstring>
#include <exception>

#include "memsys/selfheal.h"
#include "memsys/sim.h"
#include "support/error.h"

namespace perfbench {

using namespace ccomp;

namespace {

const char* fetch_span_name(server::FetchSource source) {
  switch (source) {
    case server::FetchSource::kCache: return "server.fetch.hit";
    case server::FetchSource::kCoalesced: return "server.fetch.coalesced";
    case server::FetchSource::kDecode: return "server.fetch.decode";
    case server::FetchSource::kGolden: return "server.fetch.golden";
  }
  return "server.fetch";
}

/// Add one store's RecoveryStats to `t` and zero them, so a store that
/// keeps serving is never counted twice.
void harvest(server::ImageServer& srv, const std::string& name, RecoveryTotals& t) {
  srv.with_store(name, [&](memsys::SelfHealingMemorySystem& heal) {
    const memsys::RecoveryStats& s = heal.stats();
    t.ecc_corrected += s.ecc_corrected.load();
    t.refetched += s.refetched.load();
    t.escalated += s.escalated.load();
    t.scrub_corrected += s.scrub_corrected.load();
    t.scrub_refetched += s.scrub_refetched.load();
    heal.reset_stats();
  });
}

std::vector<std::string> served_names(const Workload& w) {
  std::vector<std::string> names;
  for (const std::size_t i : w.current) {
    const std::string& n = w.setup->images[i].name;
    if (std::find(names.begin(), names.end(), n) == names.end()) names.push_back(n);
  }
  return names;
}

}  // namespace

void ClientResult::merge(const ClientResult& o) {
  attempted += o.attempted;
  failed += o.failed;
  if (wrong == 0) first_wrong = o.first_wrong;
  wrong += o.wrong;
  fetches += o.fetches;
  decodes += o.decodes;
  latency.merge(o.latency);
  window_p50.insert(window_p50.end(), o.window_p50.begin(), o.window_p50.end());
  window_p99.insert(window_p99.end(), o.window_p99.begin(), o.window_p99.end());
  window_rate.insert(window_rate.end(), o.window_rate.begin(), o.window_rate.end());
  wall_s += o.wall_s;
  swap_ms.insert(swap_ms.end(), o.swap_ms.begin(), o.swap_ms.end());
  faults_injected += o.faults_injected;
  recovery.ecc_corrected += o.recovery.ecc_corrected;
  recovery.refetched += o.recovery.refetched;
  recovery.escalated += o.recovery.escalated;
  recovery.scrub_corrected += o.recovery.scrub_corrected;
  recovery.scrub_refetched += o.recovery.scrub_refetched;
  misses.insert(misses.end(), o.misses.begin(), o.misses.end());
}

void reset_recovery(Workload& w) {
  RecoveryTotals discard;
  for (const std::string& name : served_names(w)) harvest(*w.setup->server, name, discard);
}

ClientResult run_client(Workload& w, const ClientOptions& options) {
  static const Schedule kNone{};
  const Schedule& sch = options.schedule ? w.schedule : kNone;
  Setup& s = *w.setup;
  server::ImageServer& srv = *s.server;
  Tracer* tr = options.tracer;
  ClientResult out;
  std::uint8_t line[256];

  auto swap = [&] {
    // Churn serves one name; flip it to the other firmware version.
    const std::size_t cur = w.current[0];
    const std::size_t next = (cur + 1) % s.images.size();
    harvest(srv, s.images[cur].name, out.recovery);
    Span span(tr, "server.swap");
    const std::uint64_t t0 = now_ns();
    const server::ImageServer::SwapResult r =
        srv.swap(s.images[next].name, *s.images[next].codec, s.images[next].image);
    out.swap_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    ++out.attempted;
    if (r.accepted) {
      w.current[0] = next;
    } else {
      ++out.failed;
      std::fprintf(stderr, "swap rejected: %s\n", r.error.c_str());
    }
  };
  auto scrub = [&] {
    Span span(tr, "server.scrub_once");
    srv.scrub_once(sch.scrub_blocks);
  };
  auto fault = [&] {
    // Flip one seeded bit in the stored payload of the block the client
    // will ask for 64 requests from now (a refill, right after a swap).
    const Request& r = w.stream[(w.cursor + 64) % w.stream.size()];
    const ServedImage& si = s.images[w.current[r.image]];
    const std::uint32_t slot = si.served_index(r.block % si.blocks);
    Span span(tr, "server.with_store");
    srv.with_store(si.name, [&](memsys::SelfHealingMemorySystem& heal) {
      const std::uint32_t begin = heal.store().block_offset(slot);
      const std::uint32_t end = heal.store().block_offset(slot + 1);
      if (end <= begin) return;
      const std::uint64_t bit = w.fault_rng.next_below(std::uint64_t{end - begin} * 8);
      heal.store_payload()[begin + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ++out.faults_injected;
    });
  };

  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      options.seconds > 0 ? start + static_cast<std::uint64_t>(options.seconds * 1e9) : ~0ull;
  for (;;) {
    if (options.max_fetches != 0 && out.fetches >= options.max_fetches) break;
    if (options.schedule) {
      const std::uint64_t n = w.fetched;
      if (sch.swap_every != 0 && n != 0 && n % sch.swap_every == 0) swap();
      if (sch.scrub_every != 0 && n != 0 && n % sch.scrub_every == 0) scrub();
      if (sch.fault_every != 0 && n % sch.fault_every == 1) fault();
      ++w.fetched;
    }
    const Request& r = w.stream[w.cursor];
    w.cursor = w.cursor + 1 == w.stream.size() ? 0 : w.cursor + 1;
    const std::size_t image = w.current[r.image];
    const ServedImage& si = s.images[image];
    const std::uint32_t orig = r.block % si.blocks;
    ++out.fetches;
    ++out.attempted;
    Span request(tr, "client.request", out.fetches);
    server::FetchResult res;
    bool threw = false;
    const std::uint64_t t0 = now_ns();
    try {
      Span call(tr, "server.fetch", out.fetches);
      res = srv.fetch(si.name, si.served_index(orig));
      call.rename(fetch_span_name(res.source));
    } catch (const std::exception&) {
      threw = true;
    }
    const std::uint64_t t1 = now_ns();
    out.latency.add(t1 - t0);
    if (threw) {
      ++out.failed;
    } else {
      if (res.source == server::FetchSource::kDecode) {
        ++out.decodes;
        if (out.misses.size() < options.keep_misses) out.misses.emplace_back(image, orig);
      }
      // Take the line the way a refill engine would, then check it.
      const std::uint64_t off = si.offsets[orig];
      const std::size_t len = static_cast<std::size_t>(si.offsets[orig + 1] - off);
      const bool ok = res.bytes && res.bytes->size() == len && len <= sizeof line;
      if (ok) std::memcpy(line, res.bytes->data(), len);
      if (!ok || std::memcmp(line, si.code->data() + off, len) != 0) {
        if (out.wrong++ == 0)
          out.first_wrong = si.kind + " block " + std::to_string(orig) + " served wrong bytes";
      }
    }
    if (t1 >= deadline) break;
  }
  out.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  out.window_p50.push_back(out.latency.quantile(0.50));
  out.window_p99.push_back(out.latency.quantile(0.99));
  out.window_rate.push_back(static_cast<double>(out.fetches) / out.wall_s);
  for (const std::string& name : served_names(w)) harvest(srv, name, out.recovery);
  return out;
}

CpuReplay::CpuReplay(const Workload& w) {
  for (const Replay& r : w.replays) {
    const ServedImage& si = w.setup->images[r.image];
    Lane lane{&r.addresses, std::vector<std::uint32_t>(r.addresses.size()),
              std::vector<std::uint32_t>(r.addresses.size()),
              std::make_unique<memsys::FunctionalMemorySystem>(memsys::CacheConfig{}, *si.codec,
                                                               si.image)};
    for (std::size_t i = 0; i < lane.expect.size(); ++i)
      std::memcpy(&lane.expect[i], si.code->data() + r.addresses[i], 4);  // little-endian words
    lanes_.push_back(std::move(lane));
  }
}

void CpuReplay::round(Tracer* tracer) {
  double ns = 0.0;
  std::uint64_t n = 0;
  for (Lane& lane : lanes_) {
    Span span(tracer, "functional.replay");
    const std::vector<std::uint32_t>& addr = *lane.addresses;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < addr.size(); ++i) lane.got[i] = lane.fms->fetch(addr[i]);
    ns += static_cast<double>(now_ns() - t0);
    n += addr.size();
    for (std::size_t i = 0; i < addr.size(); ++i) wrong += lane.got[i] != lane.expect[i];
  }
  fetches += n;
  round_ns.push_back(ns / static_cast<double>(n));
}

std::uint64_t CpuReplay::refills() const {
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) n += lane.fms->refills();
  return n;
}

std::uint64_t CpuReplay::accesses() const {
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) n += lane.fms->cache_stats().accesses.load();
  return n;
}

SimTotals simulate(const Workload& w, Tracer* tracer) {
  SimTotals t;
  for (const Replay& r : w.replays) {
    Span span(tracer, "sim.simulate_compressed");
    const std::uint64_t t0 = now_ns();
    const memsys::SimResult res = memsys::simulate_compressed(memsys::SimConfig{}, r.addresses,
                                                              w.setup->images[r.image].image);
    t.host_ns += static_cast<double>(now_ns() - t0);
    t.accesses += res.accesses;
    t.misses += res.misses;
    t.clb_lookups += res.clb_lookups;
    t.clb_misses += res.clb_misses;
    t.cycles += res.fetch_cycles;
  }
  return t;
}

double standby_swap(Workload& w, std::size_t k, Tracer* tracer) {
  const ServedImage& si = w.setup->images[w.post_swaps[k % w.post_swaps.size()]];
  Span span(tracer, "server.swap");
  const std::uint64_t t0 = now_ns();
  const server::ImageServer::SwapResult r =
      w.setup->server->swap(standby_name(si), *si.codec, si.image);
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  if (!r.accepted) throw Error("swap of " + si.kind + " standby rejected: " + r.error);
  return ms;
}

}  // namespace perfbench
