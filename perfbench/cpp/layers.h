// Per-layer measurements for the traced run: each layer's public entry
// point timed in isolation, from outside the library, over the workload's
// own blocks.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

/// Resident-set growth per block of a standalone ShardedBlockCache filled to
/// its default 4 MiB budget. Run it first in the process, before other
/// allocations leave free heap behind that would hide the growth.
double cache_bytes_per_block();

/// Time every isolated layer and record it into `m`:
///   ebr.pin_ns, obs.timer_ns, copy.out_ns, cache.try_get_ns,
///   cache.acquire_publish_ns, selfheal.read_block_ns, decode.*_ns,
///   compress.samc_s, compress.sadc_s, layout.build_s, mapped.open_ms,
///   verify.image_ms.
/// `misses` are the (image, original block) pairs the client decoded; the
/// decode and self-heal layers replay them. Throws on any wrong byte.
void measure_layers(const Workload& w,
                    const std::vector<std::pair<std::size_t, std::uint32_t>>& misses,
                    Metrics& m, Tracer& tracer);

}  // namespace perfbench
