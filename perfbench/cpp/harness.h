// Measurement plumbing for the end-to-end benchmark: a steady-clock
// time base, an interpolating latency histogram, quantiles, process memory
// readings, an ordered metric list, and the span recorder used by traced
// runs. Nothing here touches the ccomp library.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// FNV-1a over raw bytes: the fingerprint printed for every request stream,
/// so two runs with one seed can be shown to have sent identical requests.
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  }
};

/// Log-linear latency histogram (exact below 2048 ns, then 1024 sub-buckets
/// per power of two, so at most 0.1% relative bucket width). Quantiles
/// interpolate linearly inside the bucket that holds the rank, which keeps
/// them continuous rather than snapped to whole nanoseconds.
class LatencyHistogram {
 public:
  LatencyHistogram() : bins_(kBins, 0) {}

  void add(std::uint64_t ns) {
    ++bins_[index(ns)];
    ++count_;
    sum_ += ns;
  }
  std::uint64_t count() const { return count_; }
  double sum() const { return static_cast<double>(sum_); }
  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < kBins; ++i) bins_[i] += o.bins_[i];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBins; ++i) {
      if (bins_[i] == 0) continue;
      const double c = static_cast<double>(bins_[i]);
      if (cum + c >= target) {
        const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
        return lower(i) + frac * width(i);
      }
      cum += c;
    }
    return lower(kBins - 1);
  }

 private:
  static constexpr std::size_t kExact = 2048;
  static constexpr std::size_t kSub = 1024;
  static constexpr std::size_t kBins = kExact + 40 * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < kExact) return static_cast<std::size_t>(v);
    const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));  // >= 11
    const unsigned shift = e - 10;
    const std::size_t i = kExact + (e - 11) * kSub + static_cast<std::size_t>((v >> shift) - kSub);
    return std::min(i, kBins - 1);
  }
  static double lower(std::size_t i) {
    if (i < kExact) return static_cast<double>(i);
    const std::size_t e = (i - kExact) / kSub + 11;
    const std::size_t sub = (i - kExact) % kSub;
    return std::ldexp(static_cast<double>(sub + kSub), static_cast<int>(e - 10));
  }
  static double width(std::size_t i) {
    if (i < kExact) return 1.0;
    return std::ldexp(1.0, static_cast<int>((i - kExact) / kSub + 1));
  }

  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Quantile with linear interpolation between order statistics (the
/// "inclusive" definition); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// A "Field: <n> kB" line of a /proc/self file in KiB (VmHWM and VmRSS in
/// status); 0 when unreadable.
inline double proc_kib(const char* file, const char* field) {
  std::ifstream in(file);
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':')
      return std::atof(line.c_str() + n + 1);
  }
  return 0.0;
}

/// A fixed piece of work shaped like the server's fetch path: hash probes
/// into a 1 MiB index, 32-byte copies out of a 2 MiB row store, and a
/// table-driven bit-serial loop like an entropy decoder's. Nothing in it
/// calls the ccomp library, so a change to the program never moves it; only
/// the host does. The benchmark times a pass next to every measured slice
/// and reads the slice's figures against it (see main.cpp).
class PaceProbe {
 public:
  PaceProbe()
      : slots_(kSlots, 0), row_of_slot_(kSlots, 0), rows_(kRows * kRowBytes), queries_(kQueries) {
    std::uint64_t state = 0x70ace;
    auto next = [&state] {
      state += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    for (std::uint32_t r = 0; r < kRows; ++r) {
      const std::uint64_t key = next() | 1;
      std::size_t i = slot(key);
      while (slots_[i] != 0) i = (i + 1) & (kSlots - 1);
      slots_[i] = key;
      row_of_slot_[i] = static_cast<std::uint32_t>(next() % kRows);
      if (r < kQueries) queries_[r] = key;
    }
    for (std::uint8_t& b : rows_) b = static_cast<std::uint8_t>(next());
    for (std::uint16_t& t : table_) t = static_cast<std::uint16_t>(next());
  }

  /// One pass over data a first, untimed pass has just brought into the
  /// caches; wall ns. Timing a cold pass would instead measure how much of
  /// the probe the work before it evicted, which differs by workload, and
  /// its figures followed the program's less closely.
  double warm_ns() {
    run_ns();
    return run_ns();
  }

  /// One pass of the fixed work; wall ns.
  double run_ns() {
    const std::uint64_t t0 = now_ns();
    std::uint64_t acc = sink_;
    unsigned char line[kRowBytes];
    for (const std::uint64_t key : queries_) {
      std::size_t i = slot(key);
      while (slots_[i] != key) i = (i + 1) & (kSlots - 1);
      std::memcpy(line, &rows_[row_of_slot_[i] * kRowBytes], kRowBytes);
      std::uint64_t word;
      std::memcpy(&word, line + (acc & 3) * 8, 8);
      acc = (acc ^ word) * 0x100000001b3ull;
    }
    std::uint32_t state = static_cast<std::uint32_t>(acc) | 1;
    for (std::size_t k = 0; k < kDecodeSteps; ++k) {
      const std::uint16_t t = table_[state & (kTable - 1)];
      state = (t & 1) != 0 ? (state >> 1) ^ (std::uint32_t{t} << 15) : (state >> 2) + t;
      acc += state;
    }
    sink_ = acc;
    return static_cast<double>(now_ns() - t0);
  }

 private:
  static constexpr std::size_t kSlots = 1u << 17;     // 8-byte keys: 1 MiB
  static constexpr std::size_t kRows = 1u << 16;      // 32-byte rows: 2 MiB
  static constexpr std::size_t kRowBytes = 32;
  static constexpr std::size_t kQueries = 1u << 14;
  static constexpr std::size_t kTable = 4096;
  static constexpr std::size_t kDecodeSteps = 1u << 16;

  static std::size_t slot(std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 47);
  }

  std::vector<std::uint64_t> slots_;
  std::vector<std::uint32_t> row_of_slot_;
  std::vector<std::uint8_t> rows_;
  std::vector<std::uint64_t> queries_;
  std::uint16_t table_[kTable] = {};
  std::uint64_t sink_ = 0;
};

/// Ordered {name, value, unit} list, printed as the result's metric object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }
  double get(const std::string& name) const {
    for (const Entry& e : entries_)
      if (e.name == name) return e.value;
    return 0.0;
  }
  std::string to_json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }
  void print_table(std::FILE* f) const {
    for (const Entry& e : entries_)
      std::fprintf(f, "  %-28s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// In-memory span recorder for traced runs. A span is one call the benchmark
/// makes into a layer: name, start, end, parent span and request id. Spans
/// nest through an explicit stack (the client is single-threaded), so each
/// layer's self time is its duration minus the time its child spans cover.
/// Every span feeds the per-name aggregates; the first `keep` are also
/// retained verbatim and written out at exit as a chrome://tracing file.
class Tracer {
 public:
  explicit Tracer(std::size_t keep = 50000) : keep_(keep) {}

  /// Open a span; `name` must be a string literal (compared by address).
  void open(const char* name, std::uint64_t request) {
    stack_.push_back({name, now_ns(), 0, next_id_++, request});
  }
  /// Close the innermost span, optionally renaming it (e.g. by the fetch
  /// source learned from the call's result).
  void close(const char* rename = nullptr) {
    const std::uint64_t end = now_ns();
    Frame f = stack_.back();
    stack_.pop_back();
    if (rename != nullptr) f.name = rename;
    const std::uint64_t dur = end - f.start;
    std::uint64_t parent = 0;
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
      parent = stack_.back().id;
    }
    Agg& a = agg(f.name);
    ++a.count;
    a.total_ns += static_cast<double>(dur);
    a.self_ns += static_cast<double>(dur - std::min(dur, f.child_ns));
    a.hist.add(dur);
    if (kept_.size() < keep_) kept_.push_back({f.name, f.start, end, f.id, parent, f.request});
  }

  struct Agg {
    const char* name = nullptr;
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
    LatencyHistogram hist;
  };
  const Agg* find(const char* name) const {
    for (const Agg& a : aggs_)
      if (std::strcmp(a.name, name) == 0) return &a;
    return nullptr;
  }

  void print_self_times(std::FILE* f) const {
    std::fprintf(f, "  %-26s %10s %14s %14s %12s\n", "span", "count", "total_ms", "self_ms",
                 "p50_ns");
    for (const Agg& a : aggs_)
      std::fprintf(f, "  %-26s %10llu %14.3f %14.3f %12.1f\n", a.name,
                   static_cast<unsigned long long>(a.count), a.total_ns / 1e6, a.self_ns / 1e6,
                   a.hist.quantile(0.5));
  }

  /// chrome://tracing JSON of the retained spans plus the per-name
  /// aggregates; returns false when the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::uint64_t t0 = kept_.empty() ? 0 : kept_.front().start;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const Kept& k = kept_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                   "\"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, \"request\": %llu}}",
                   i ? ",\n" : "", k.name, static_cast<double>(k.start - t0) / 1e3,
                   static_cast<double>(k.end - k.start) / 1e3,
                   static_cast<unsigned long long>(k.id), static_cast<unsigned long long>(k.parent),
                   static_cast<unsigned long long>(k.request));
    }
    std::fprintf(f, "\n], \"selfTime\": {");
    for (std::size_t i = 0; i < aggs_.size(); ++i)
      std::fprintf(f, "%s\"%s\": {\"count\": %llu, \"total_ns\": %.0f, \"self_ns\": %.0f}",
                   i ? ", " : "", aggs_[i].name, static_cast<unsigned long long>(aggs_[i].count),
                   aggs_[i].total_ns, aggs_[i].self_ns);
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Frame {
    const char* name;
    std::uint64_t start;
    std::uint64_t child_ns;
    std::uint64_t id;
    std::uint64_t request;
  };
  struct Kept {
    const char* name;
    std::uint64_t start, end, id, parent, request;
  };
  Agg& agg(const char* name) {
    for (Agg& a : aggs_)
      if (a.name == name || std::strcmp(a.name, name) == 0) return a;
    aggs_.emplace_back();
    aggs_.back().name = name;
    return aggs_.back();
  }

  std::size_t keep_;
  std::uint64_t next_id_ = 1;
  std::vector<Frame> stack_;
  std::vector<Agg> aggs_;
  std::vector<Kept> kept_;
};

/// RAII span on an optional tracer (null = untraced run, no clock reads).
class Span {
 public:
  Span(Tracer* t, const char* name, std::uint64_t request = 0) : t_(t) {
    if (t_ != nullptr) t_->open(name, request);
  }
  ~Span() {
    if (t_ != nullptr) t_->close(rename_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void rename(const char* name) { rename_ = name; }

 private:
  Tracer* t_;
  const char* rename_ = nullptr;
};

}  // namespace perfbench
