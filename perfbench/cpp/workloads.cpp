#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "core/mapped.h"
#include "harness.h"
#include "isa/mips/mips.h"
#include "layout/layout.h"
#include "sadc/sadc.h"
#include "samc/samc.h"
#include "support/error.h"
#include "support/rng.h"
#include "workload/mips_gen.h"
#include "workload/trace.h"
#include "workload/x86_gen.h"

namespace perfbench {

using namespace ccomp;

namespace {

// Seed tags: each generated input draws from its own stream.
constexpr std::uint64_t kProgramTag = 1;
constexpr std::uint64_t kTraceTag = 2;
constexpr std::uint64_t kZipfTag = 3;
constexpr std::uint64_t kFaultTag = 4;
constexpr std::uint64_t kTrainTag = 20;  // + version: layout training traces

constexpr std::size_t kTraceLength = 1'000'000;     // instructions per trace
constexpr std::size_t kColdWarmup = 200'000;
constexpr std::size_t kZipfRequests = 1u << 20;     // cold-zipf request stream
constexpr std::size_t kZipfReplayRequests = 1u << 16;  // prefix replayed by the CPU models
constexpr double kZipfExponent = 0.8;
constexpr std::size_t kColdCacheBytes = 64 * 1024;

/// An independent 64-bit seed for one purpose.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + tag;
  splitmix64(state);
  return splitmix64(state);
}

/// The program every workload serves: SPEC95 "go" (288 KB), seeded.
workload::Profile program_profile(std::uint64_t seed, std::uint64_t tag) {
  workload::Profile p = *workload::find_profile("go");
  p.seed = derive_seed(seed, tag);
  return p;
}

Program& add_mips_program(Setup& s, const workload::Profile& profile) {
  workload::MipsProgram prog = workload::generate_mips_program(profile);
  auto p = std::make_unique<Program>();
  p->code = mips::words_to_bytes(prog.words);
  p->function_starts = std::move(prog.function_starts);
  s.programs.push_back(std::move(p));
  return *s.programs.back();
}

template <typename Codec, typename... Args>
const Codec& add_codec(Setup& s, Args&&... args) {
  auto c = std::make_unique<Codec>(std::forward<Args>(args)...);
  const Codec& ref = *c;
  s.codecs.push_back(std::move(c));
  return ref;
}

/// Decode the whole image back to original order and compare: set-up never
/// hands the server an image that does not round-trip.
void check_round_trip(const core::BlockCodec& codec, const core::CompressedImage& image,
                      const std::vector<std::uint8_t>& code, const std::string& what) {
  const std::vector<std::uint8_t> back = image.has_layout()
                                             ? layout::decompress_image(codec, image)
                                             : codec.decompress_all(image);
  if (back != code) throw CorruptDataError("set-up: " + what + " does not round-trip");
}

ServedImage make_served(std::string name, std::string kind, const core::BlockCodec& codec,
                        core::CompressedImage image, const Program& program) {
  ServedImage si;
  si.name = std::move(name);
  si.kind = std::move(kind);
  si.codec = &codec;
  si.code = &program.code;
  si.blocks = static_cast<std::uint32_t>(image.block_count());
  si.offsets.resize(si.blocks + 1);
  for (std::uint32_t b = 0; b < si.blocks; ++b)
    si.offsets[b] = image.has_variable_blocks()
                        ? image.block_original_offset(b)
                        : std::min<std::uint64_t>(std::uint64_t{b} * image.block_size(),
                                                  program.code.size());
  si.offsets[si.blocks] = program.code.size();
  if (image.has_layout()) si.slot_of = layout::plan_from_image(image).slot_of;
  si.image = std::move(image);
  return si;
}

std::vector<std::uint32_t> trace_for(const Program& program, const workload::Profile& profile) {
  workload::TraceOptions opt;
  opt.length = kTraceLength;
  return workload::generate_trace(profile, program.function_starts, program.code.size() / 4,
                                  opt);
}

std::unique_ptr<Setup> setup_hot_trace(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  const Program& prog = add_mips_program(*s, program_profile(seed, kProgramTag));
  const auto& codec = add_codec<samc::SamcCodec>(*s, samc::mips_defaults());
  core::CompressedImage image = codec.compress(prog.code);
  check_round_trip(codec, image, prog.code, "samc_range_k1");
  s->images.push_back(make_served("go", "samc_range_k1", codec, std::move(image), prog));
  s->cache_bytes = memsys::ShardedCacheConfig{}.capacity_bytes;
  s->server = std::make_unique<server::ImageServer>();
  s->server->load("go", codec, s->images[0].image);
  s->server->load(standby_name(s->images[0]), codec, s->images[0].image);
  return s;
}

std::unique_ptr<Setup> setup_cold_zipf(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  const workload::Profile profile = program_profile(seed, kProgramTag);
  const Program& mips_prog = add_mips_program(*s, profile);
  s->programs.push_back(std::make_unique<Program>(x86_program(seed)));
  const Program& x86_prog = *s->programs.back();

  samc::SamcOptions rans = samc::mips_defaults();
  rans.entropy_streams = 4;
  rans.entropy_coder = samc::EntropyCoder::kRans;
  const core::BlockCodec* codecs[4] = {
      &add_codec<samc::SamcCodec>(*s, samc::mips_defaults()),
      &add_codec<samc::SamcCodec>(*s, rans),
      &add_codec<sadc::SadcMipsCodec>(*s),
      &add_codec<sadc::SadcX86Codec>(*s),
  };
  const char* kinds[4] = {"samc_range_k1", "samc_rans_k4", "sadc_mips", "sadc_x86"};
  for (int i = 0; i < 4; ++i) {
    const Program& prog = i == 3 ? x86_prog : mips_prog;
    core::CompressedImage image = codecs[i]->compress(prog.code);
    check_round_trip(*codecs[i], image, prog.code, kinds[i]);
    s->images.push_back(make_served(kinds[i], kinds[i], *codecs[i], std::move(image), prog));
  }
  // The x86 image is served from a v3.1 page-aligned container.
  ByteSink sink;
  core::serialize_aligned(s->images[3].image, sink);
  s->aligned = sink.take();
  core::MappedImage mapped{std::span<const std::uint8_t>(s->aligned)};

  server::ImageServer::Options options;
  options.cache.capacity_bytes = kColdCacheBytes;
  s->cache_bytes = options.cache.capacity_bytes;
  s->server = std::make_unique<server::ImageServer>(options);
  for (int i = 0; i < 3; ++i) s->server->load(kinds[i], *codecs[i], s->images[i].image);
  s->server->load(kinds[3], *codecs[3], std::move(mapped));
  for (int i = 0; i < 4; ++i)
    s->server->load(standby_name(s->images[i]), *codecs[i], s->images[i].image);
  return s;
}

std::unique_ptr<Setup> setup_churn(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  const auto& codec = add_codec<samc::SamcCodec>(*s, samc::mips_defaults());
  for (std::uint64_t v = 0; v < 2; ++v) {
    // Version v of the firmware; its layout plan is trained on a trace
    // drawn with another seed than the one the client replays.
    const Program& prog = add_mips_program(*s, program_profile(seed + v, kProgramTag));
    const std::vector<std::uint32_t> train = training_trace(prog, seed, v);
    const std::uint32_t block_size = samc::mips_defaults().block_size;
    const std::size_t blocks = (prog.code.size() + block_size - 1) / block_size;
    const layout::AccessProfile access =
        layout::AccessProfile::from_trace(train, block_size, blocks);
    core::CompressedImage image = layout::build_tiered_image(
        codec, prog.code,
        layout::optimize_layout(access, prog.code.size(), block_size, layout::LayoutOptions{}));
    check_round_trip(codec, image, prog.code, "tiered v" + std::to_string(v));
    s->images.push_back(
        make_served("fw", "tiered_v" + std::to_string(v), codec, std::move(image), prog));
  }
  s->cache_bytes = memsys::ShardedCacheConfig{}.capacity_bytes;
  s->server = std::make_unique<server::ImageServer>();
  s->server->load("fw", codec, s->images[0].image);
  return s;
}

/// Requests at every block transition of the trace (what an I-cache with
/// one-block lines would miss on if it held a single line).
std::vector<Request> transitions(const std::vector<std::uint32_t>& trace,
                                 std::uint32_t block_size) {
  std::vector<Request> out;
  std::uint32_t last = ~0u;
  for (const std::uint32_t a : trace) {
    const std::uint32_t b = a / block_size;
    if (b != last) out.push_back({0, b});
    last = b;
  }
  return out;
}

/// Zipf(s) over a seeded permutation of each image's blocks, image drawn
/// uniformly per request.
std::vector<Request> zipf_stream(const Setup& s, Rng& rng) {
  const std::size_t n_images = s.images.size();
  std::vector<std::vector<std::uint32_t>> perm(n_images);
  std::vector<std::vector<double>> cdf(n_images);
  for (std::size_t i = 0; i < n_images; ++i) {
    const std::uint32_t n = s.images[i].blocks;
    perm[i].resize(n);
    for (std::uint32_t b = 0; b < n; ++b) perm[i][b] = b;
    for (std::uint32_t b = n; b-- > 1;)
      std::swap(perm[i][b], perm[i][static_cast<std::uint32_t>(rng.next_below(b + 1))]);
    cdf[i].resize(n);
    double total = 0.0;
    for (std::uint32_t r = 0; r < n; ++r) cdf[i][r] = total += std::pow(r + 1.0, -kZipfExponent);
    for (double& c : cdf[i]) c /= total;
  }
  std::vector<Request> out(kZipfRequests);
  for (Request& r : out) {
    r.image = static_cast<std::uint32_t>(rng.next_below(n_images));
    const std::vector<double>& c = cdf[r.image];
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(c.begin(), c.end(), rng.next_double()) - c.begin());
    r.block = perm[r.image][std::min(rank, c.size() - 1)];
  }
  return out;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "hot-trace" || name == "cold-zipf" || name == "churn";
}

std::string standby_name(const ServedImage& image) { return image.name + ".standby"; }

Program x86_program(std::uint64_t seed) {
  Program p;
  p.code = workload::generate_x86_program(program_profile(seed, kProgramTag)).bytes;
  return p;
}

std::vector<std::uint32_t> training_trace(const Program& program, std::uint64_t seed,
                                          std::uint64_t version) {
  return trace_for(program, program_profile(seed + version, kTrainTag + version));
}

std::unique_ptr<Setup> build_setup(const std::string& workload, std::uint64_t seed) {
  if (workload == "hot-trace") return setup_hot_trace(seed);
  if (workload == "cold-zipf") return setup_cold_zipf(seed);
  if (workload == "churn") return setup_churn(seed);
  throw ConfigError("unknown workload '" + workload + "'");
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::unique_ptr<Setup> setup) {
  Workload w;
  w.seed = seed;
  w.setup = std::move(setup);
  w.fault_rng = Rng(derive_seed(seed, kFaultTag));
  Setup& s = *w.setup;
  if (name == "cold-zipf") {
    Rng rng(derive_seed(seed, kZipfTag));
    w.stream = zipf_stream(s, rng);
    w.current = {0, 1, 2, 3};
    // The CPU models replay the requests that hit uniform-block images,
    // one instruction word at a time.
    for (std::size_t i = 0; i < 3; ++i) {
      Replay r{i, {}};
      const std::uint32_t bs = s.images[i].image.block_size();
      const std::size_t size = s.images[i].code->size();
      for (std::size_t q = 0; q < kZipfReplayRequests; ++q) {
        if (w.stream[q].image != i) continue;
        for (std::uint32_t a = w.stream[q].block * bs; a < (w.stream[q].block + 1) * bs; a += 4)
          if (a + 4 <= size) r.addresses.push_back(a);
      }
      w.replays.push_back(std::move(r));
    }
    w.post_swaps = {0, 1, 2, 3};
    w.warmup_fetches = kColdWarmup;
    return w;
  }
  // hot-trace and churn replay one measured trace of the (first) program.
  const Program& prog = *s.programs[0];
  const std::vector<std::uint32_t> trace = trace_for(prog, program_profile(seed, kTraceTag));
  w.stream = transitions(trace, s.images[0].image.block_size());
  w.warmup_fetches = w.stream.size();
  w.current = {0};
  w.replays.push_back({0, trace});
  if (name == "hot-trace") {
    w.post_swaps = {0};
  } else {
    const auto size1 = static_cast<std::uint32_t>(s.images[1].code->size());
    Replay second{1, trace};
    for (std::uint32_t& a : second.addresses) a %= size1;
    w.replays.push_back(std::move(second));
    // A swap every 7.5k fetches puts about 2% of fetches on the refill
    // path, so p99 lands well inside the refill population. Near 1% (a swap
    // every 15k) it straddled the hit and refill modes from seed to seed.
    w.schedule = Schedule{7500, 3000, 7500, 256};
  }
  return w;
}

std::uint64_t stream_hash(const Workload& w) {
  Fnv64 h;
  for (const Request& r : w.stream) {
    h.add(&r.image, sizeof r.image);
    h.add(&r.block, sizeof r.block);
  }
  for (const Replay& r : w.replays) h.add(r.addresses.data(), r.addresses.size() * 4);
  return h.h;
}

}  // namespace perfbench
