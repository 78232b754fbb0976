// The benchmark's three workloads. Each builds its images from a seed (the
// program under test only ever sees the generated inputs), loads them into
// one ImageServer, and hands the single closed-loop client a request stream
// plus the instruction-address streams the functional and cycle models
// replay.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/codec.h"
#include "core/image.h"
#include "server/server.h"
#include "support/rng.h"

namespace perfbench {

/// One image the server holds, with what the client needs to check it.
struct ServedImage {
  std::string name;   // server-side name (both churn versions share one)
  std::string kind;   // codec configuration, e.g. "samc_range_k1"
  const ccomp::core::BlockCodec* codec = nullptr;
  ccomp::core::CompressedImage image;  // owned copy (swaps, replays, layers)
  const std::vector<std::uint8_t>* code = nullptr;  // original program bytes
  /// Original byte offset of each ORIGINAL block (size blocks + 1).
  std::vector<std::uint64_t> offsets;
  /// Original block -> index the server is asked for (empty = identity;
  /// layout images serve physical slots).
  std::vector<std::uint32_t> slot_of;
  std::uint32_t blocks = 0;

  std::uint32_t served_index(std::uint32_t orig) const {
    return slot_of.empty() ? orig : slot_of[orig];
  }
};

/// A generated program: its bytes and (for MIPS) the function entry words
/// the trace generator walks.
struct Program {
  std::vector<std::uint8_t> code;
  std::vector<std::uint32_t> function_starts;
};

/// Everything set-up builds; timed as a whole for setup_s. Member order is
/// destruction order in reverse: the server goes first, while the codecs,
/// programs and the aligned-container bytes it references still exist.
struct Setup {
  std::vector<std::unique_ptr<ccomp::core::BlockCodec>> codecs;
  std::vector<std::unique_ptr<Program>> programs;
  std::vector<std::uint8_t> aligned;  // backing bytes of the mapped image
  std::vector<ServedImage> images;
  std::size_t cache_bytes = 0;  // the server's block-cache budget
  std::unique_ptr<ccomp::server::ImageServer> server;
};

/// One client request: an image slot and an ORIGINAL block index. The slot
/// resolves through Workload::current (churn flips it on every hot-swap).
struct Request {
  std::uint32_t image = 0;
  std::uint32_t block = 0;
};

/// An instruction-address stream replayed on one uniform-block image.
struct Replay {
  std::size_t image = 0;  // index into Setup::images
  std::vector<std::uint32_t> addresses;
};

/// Churn's fixed fetch-count schedule (all zero elsewhere).
struct Schedule {
  std::uint64_t swap_every = 0;
  std::uint64_t scrub_every = 0;
  std::uint64_t fault_every = 0;
  std::size_t scrub_blocks = 0;
};

struct Workload {
  std::unique_ptr<Setup> setup;
  std::vector<Request> stream;
  std::vector<std::size_t> current;  // request slot -> Setup::images index
  std::vector<Replay> replays;
  Schedule schedule;
  /// Images whose standby copy is hot-swapped between measurement windows
  /// on the workloads whose schedule holds no swaps. The standby is loaded
  /// under its own name and never fetched, so swapping it leaves the served
  /// working set resident.
  std::vector<std::size_t> post_swaps;
  std::uint64_t seed = 0;
  /// Unmeasured fetches before the first measured phase.
  std::size_t warmup_fetches = 0;
  /// Client position in `stream`; successive phases continue from it.
  std::size_t cursor = 0;
  /// Scheduled fetches issued so far (drives the churn schedule).
  std::uint64_t fetched = 0;
  /// Picks the bit each scheduled store fault flips.
  ccomp::Rng fault_rng{0};
};

bool known_workload(const std::string& name);

/// Server name of an image's never-fetched standby copy.
std::string standby_name(const ServedImage& image);

/// The x86 build of the workload program (SADC-x86 is served from it).
Program x86_program(std::uint64_t seed);

/// The trace a layout plan of firmware version `version` is trained on; its
/// seed differs from the trace the client replays.
std::vector<std::uint32_t> training_trace(const Program& program, std::uint64_t seed,
                                          std::uint64_t version);

/// Build the images and the loaded server (the timed set-up).
std::unique_ptr<Setup> build_setup(const std::string& workload, std::uint64_t seed);

/// Attach the request stream, replays and schedule to a finished set-up.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::unique_ptr<Setup> setup);

/// FNV-1a of the request stream and replay addresses.
std::uint64_t stream_hash(const Workload& w);

}  // namespace perfbench
