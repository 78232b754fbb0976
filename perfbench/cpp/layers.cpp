#include "layers.h"

#include <cstring>
#include <map>
#include <memory>

#include "core/mapped.h"
#include "layout/layout.h"
#include "memsys/cache.h"
#include "memsys/ebr.h"
#include "memsys/selfheal.h"
#include "obs/obs.h"
#include "sadc/sadc.h"
#include "samc/samc.h"
#include "support/error.h"
#include "verify/verify.h"

namespace perfbench {

using namespace ccomp;

namespace {

constexpr std::size_t kMicroOps = 1u << 20;
constexpr int kReps = 5;
constexpr std::uint32_t kLine = 32;

/// Keep the optimizer from dropping work whose result is otherwise unused.
template <typename T>
inline void escape(T* p) {
  asm volatile("" : : "g"(p) : "memory");
}

/// Median over `reps` timed passes of `body(pass)`, in ns per op.
template <typename F>
double ns_per_op(std::size_t ops, int reps, F&& body) {
  std::vector<double> per_op;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    body(r);
    per_op.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(ops));
  }
  return median(per_op);
}

/// Median wall time of `reps` calls of `body()`, in seconds.
template <typename F>
double seconds_of(int reps, F&& body) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    body();
    s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(s);
}

memsys::ShardedBlockCache::Bytes line_bytes(std::uint8_t fill) {
  return std::make_shared<const std::vector<std::uint8_t>>(kLine, fill);
}

void fill(memsys::ShardedBlockCache& cache, const memsys::BlockKey& key,
          const memsys::ShardedBlockCache::Bytes& bytes) {
  memsys::ShardedBlockCache::Ticket t = cache.acquire(key);
  if (t.leader) cache.publish(key, t.flight, bytes, false, true);
}

/// One codec configuration decoded over the miss sample.
struct DecodeTarget {
  const char* metric;
  const core::BlockCodec* codec;
  const core::CompressedImage* image;
  const std::vector<std::uint8_t>* code;
};

double decode_ns(const DecodeTarget& t,
                 const std::vector<std::pair<std::size_t, std::uint32_t>>& sample) {
  const bool tiered = t.image->has_layout();
  const std::unique_ptr<core::BlockDecompressor> dec =
      tiered ? layout::make_tier_decompressor(*t.codec, *t.image)
             : t.codec->make_decompressor(*t.image);
  const std::vector<std::uint32_t> slot_of =
      tiered ? layout::plan_from_image(*t.image).slot_of : std::vector<std::uint32_t>{};
  struct Job {
    std::uint32_t index;
    std::uint32_t size;
    std::uint64_t offset;
  };
  std::vector<Job> jobs;
  const auto blocks = static_cast<std::uint32_t>(t.image->block_count());
  for (const auto& [image, orig] : sample) {
    const std::uint32_t o = orig % blocks;
    const std::uint32_t index = tiered ? slot_of[o] : o;
    const std::uint64_t offset =
        tiered ? std::uint64_t{o} * t.image->block_size() : t.image->block_original_offset(o);
    jobs.push_back({index, static_cast<std::uint32_t>(t.image->block_original_size(index)), offset});
  }
  core::DecodeScratch scratch;
  std::vector<std::uint8_t> out(256);
  for (const Job& j : jobs) {
    dec->block_into(j.index, std::span<std::uint8_t>(out.data(), j.size), scratch);
    if (std::memcmp(out.data(), t.code->data() + j.offset, j.size) != 0)
      throw CorruptDataError(std::string(t.metric) + ": block decoded to wrong bytes");
  }
  return ns_per_op(jobs.size(), kReps, [&](int) {
    for (const Job& j : jobs)
      dec->block_into(j.index, std::span<std::uint8_t>(out.data(), j.size), scratch);
    escape(out.data());
  });
}

}  // namespace

double cache_bytes_per_block() {
  const double before_kib = proc_kib("/proc/self/status", "VmRSS");
  memsys::ShardedBlockCache cache{memsys::ShardedCacheConfig{}};
  const auto n = static_cast<std::uint32_t>(memsys::ShardedCacheConfig{}.capacity_bytes / kLine);
  for (std::uint32_t b = 0; b < n; ++b)
    fill(cache, {1, b}, line_bytes(static_cast<std::uint8_t>(b)));
  const double after_kib = proc_kib("/proc/self/status", "VmRSS");
  const double resident = static_cast<double>(cache.resident_bytes()) / kLine;
  return resident > 0 ? (after_kib - before_kib) * 1024.0 / resident : 0.0;
}

void measure_layers(const Workload& w,
                    const std::vector<std::pair<std::size_t, std::uint32_t>>& misses,
                    Metrics& m, Tracer& tr) {
  const Setup& s = *w.setup;
  std::vector<std::pair<std::size_t, std::uint32_t>> sample = misses;
  if (sample.empty()) {
    // No demand decode happened: fall back to the head of the stream.
    for (std::size_t q = 0; q < std::min<std::size_t>(256, w.stream.size()); ++q) {
      const std::size_t image = w.current[w.stream[q].image];
      sample.emplace_back(image, w.stream[q].block % s.images[image].blocks);
    }
  }

  // --- hot-fetch stages ---------------------------------------------------
  {
    Span span(&tr, "layer.ebr_pin");
    m.set("ebr.pin_ns", ns_per_op(kMicroOps, kReps, [](int) {
            for (std::size_t i = 0; i < kMicroOps; ++i) {
              memsys::ebr::Guard guard;
              escape(&guard);
            }
          }), "ns");
  }
  {
    Span span(&tr, "layer.obs_timer");
    m.set("obs.timer_ns", ns_per_op(kMicroOps, kReps, [](int) {
            for (std::size_t i = 0; i < kMicroOps; ++i) {
              CCOMP_TIMER("perfbench.obs_timer_ns");
              escape(&i);
            }
          }), "ns");
  }
  {
    Span span(&tr, "layer.copy_out");
    std::vector<std::uint8_t> src(64 * 1024, 0x5A);
    std::uint8_t dst[kLine];
    m.set("copy.out_ns", ns_per_op(kMicroOps, kReps, [&](int) {
            for (std::size_t i = 0; i < kMicroOps; ++i) {
              std::memcpy(dst, src.data() + ((i * kLine) & 0xFFFF), kLine);
              escape(dst);
            }
          }), "ns");
  }
  {
    // A warm standalone cache holding the keys of the stream's head.
    Span span(&tr, "layer.cache_try_get");
    memsys::ShardedBlockCache cache{memsys::ShardedCacheConfig{}};
    const memsys::ShardedBlockCache::Bytes bytes = line_bytes(0);
    std::vector<memsys::BlockKey> keys;
    for (std::size_t q = 0; q < std::min<std::size_t>(1u << 16, w.stream.size()); ++q) {
      const std::size_t image = w.current[w.stream[q].image];
      const ServedImage& si = s.images[image];
      keys.push_back({image + 1, si.served_index(w.stream[q].block % si.blocks)});
    }
    for (const memsys::BlockKey& k : keys) fill(cache, k, bytes);
    m.set("cache.try_get_ns", ns_per_op(keys.size(), kReps, [&](int) {
            for (const memsys::BlockKey& k : keys) {
              memsys::ShardedBlockCache::Bytes b = cache.try_get(k);
              escape(&b);
            }
          }), "ns");
  }
  {
    // A cache filled to the workload's budget; every timed acquire misses
    // (fresh epoch per pass) and leads, and every publish evicts one entry.
    Span span(&tr, "layer.cache_acquire_publish");
    memsys::ShardedCacheConfig cfg;
    cfg.capacity_bytes = s.cache_bytes;
    memsys::ShardedBlockCache cache{cfg};
    const memsys::ShardedBlockCache::Bytes bytes = line_bytes(0);
    for (std::uint32_t b = 0; b < s.cache_bytes / kLine; ++b) fill(cache, {99, b}, bytes);
    constexpr std::uint32_t kOps = 1u << 16;
    m.set("cache.acquire_publish_ns", ns_per_op(kOps, kReps, [&](int pass) {
            for (std::uint32_t b = 0; b < kOps; ++b)
              fill(cache, {static_cast<std::uint64_t>(100 + pass), b}, bytes);
          }), "ns");
  }

  // --- cold-fetch stages --------------------------------------------------
  {
    Span span(&tr, "layer.selfheal_read_block");
    std::map<std::size_t, std::unique_ptr<memsys::SelfHealingMemorySystem>> heals;
    for (const auto& [image, orig] : sample) {
      if (heals.count(image) == 0)
        heals[image] = std::make_unique<memsys::SelfHealingMemorySystem>(
            memsys::SelfHealingMemorySystem::Options{}, *s.images[image].codec,
            s.images[image].image);
    }
    std::vector<std::uint8_t> out;
    for (const auto& [image, orig] : sample) {
      const ServedImage& si = s.images[image];
      heals[image]->read_block_into(si.served_index(orig), out);
      if (out.size() != si.offsets[orig + 1] - si.offsets[orig] ||
          std::memcmp(out.data(), si.code->data() + si.offsets[orig], out.size()) != 0)
        throw CorruptDataError("selfheal read_block_into returned wrong bytes");
    }
    m.set("selfheal.read_block_ns", ns_per_op(sample.size(), kReps, [&](int) {
            for (const auto& [image, orig] : sample)
              heals[image]->read_block_into(s.images[image].served_index(orig), out);
          }), "ns");
  }

  // --- codecs, layout, container, verifier over this workload's program ---
  const Program& mips_prog = *s.programs[0];
  const Program x86_prog = x86_program(w.seed);
  const samc::SamcCodec k1(samc::mips_defaults());
  samc::SamcOptions rans_opt = samc::mips_defaults();
  rans_opt.entropy_streams = 4;
  rans_opt.entropy_coder = samc::EntropyCoder::kRans;
  const samc::SamcCodec rans(rans_opt);
  const sadc::SadcMipsCodec sadc_mips;
  const sadc::SadcX86Codec sadc_x86;
  core::CompressedImage img_k1, img_rans, img_sadc, img_x86, img_tiered;
  {
    Span span(&tr, "layer.compress");
    m.set("compress.samc_s", seconds_of(3, [&] { img_k1 = k1.compress(mips_prog.code); }), "s");
    img_rans = rans.compress(mips_prog.code);
    m.set("compress.sadc_s",
          seconds_of(1, [&] { img_sadc = sadc_mips.compress(mips_prog.code); }), "s");
    img_x86 = sadc_x86.compress(x86_prog.code);
  }
  {
    Span span(&tr, "layer.layout_build");
    const std::vector<std::uint32_t> train = training_trace(mips_prog, w.seed, 0);
    const std::uint32_t bs = samc::mips_defaults().block_size;
    const std::size_t blocks = (mips_prog.code.size() + bs - 1) / bs;
    m.set("layout.build_s", seconds_of(3, [&] {
            const layout::AccessProfile access =
                layout::AccessProfile::from_trace(train, bs, blocks);
            img_tiered = layout::build_tiered_image(
                k1, mips_prog.code,
                layout::optimize_layout(access, mips_prog.code.size(), bs,
                                        layout::LayoutOptions{}));
          }), "s");
  }
  {
    Span span(&tr, "layer.mapped_open");
    ByteSink sink;
    core::serialize_aligned(img_x86, sink);
    const std::vector<std::uint8_t> bytes = sink.take();
    m.set("mapped.open_ms", 1e3 * seconds_of(21, [&] {
            const core::MappedImage mapped{std::span<const std::uint8_t>(bytes)};
            core::CompressedImage view = mapped.view_image();
            escape(&view);
          }), "ms");
  }
  {
    Span span(&tr, "layer.verify_image");
    const core::CompressedImage& served = s.images[0].image;
    m.set("verify.image_ms", 1e3 * seconds_of(kReps, [&] {
            if (!verify::verify_image(served).ok())
              throw CorruptDataError("verify_image rejected a served image");
          }), "ms");
  }
  {
    Span span(&tr, "layer.decode");
    const DecodeTarget targets[] = {
        {"decode.samc_range_k1_ns", &k1, &img_k1, &mips_prog.code},
        {"decode.samc_rans_k4_ns", &rans, &img_rans, &mips_prog.code},
        {"decode.sadc_mips_ns", &sadc_mips, &img_sadc, &mips_prog.code},
        {"decode.sadc_x86_ns", &sadc_x86, &img_x86, &x86_prog.code},
        {"decode.tiered_ns", &k1, &img_tiered, &mips_prog.code},
    };
    for (const DecodeTarget& t : targets) m.set(t.metric, decode_ns(t, sample), "ns");
  }
}

}  // namespace perfbench
