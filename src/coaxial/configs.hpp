// Named system configurations (Tables II and III).
//
// The paper simulates a 12-core slice of the 144-core server: 1 DDR5-4800
// channel for the baseline, and 2/4/5 CXL channels (or 4 CXL-asym channels
// with 2 DDR channels each) for the COAXIAL variants. LLC is 2 MB/core for
// the baseline and COAXIAL-2x/-5x, 1 MB/core for COAXIAL-4x/-asym.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/replacement.hpp"
#include "coaxial/calm.hpp"
#include "coaxial/memory_system.hpp"
#include "dram/timing.hpp"
#include "common/units.hpp"
#include "fabric/topology.hpp"
#include "link/lane_config.hpp"
#include "placement/tier_config.hpp"
#include "pool/pool_config.hpp"
#include "ras/fault_plan.hpp"

namespace coaxial::sys {

enum class Topology : std::uint8_t { kDirectDdr, kCxl };

struct MicroarchConfig {
  std::uint32_t cores = 12;
  std::uint32_t active_cores = 12;
  std::uint32_t rob_entries = 256;
  std::uint32_t fetch_width = 4;
  std::uint32_t retire_width = 4;
  std::uint32_t store_buffer = 16;

  std::uint32_t l1_kb = 32;
  std::uint32_t l1_ways = 8;
  Cycle l1_latency = 4;
  std::uint32_t l1_mshrs = 16;

  std::uint32_t l2_kb = 512;
  std::uint32_t l2_ways = 8;
  Cycle l2_latency = 8;
  std::uint32_t l2_mshrs = 32;

  std::uint32_t llc_mb_per_core = 2;
  std::uint32_t llc_ways = 16;
  Cycle llc_latency = 20;
  std::uint32_t llc_mshrs_per_slice = 64;

  Cycle noc_cycles_per_hop = 3;

  /// L2 stream prefetcher: lines fetched ahead per stream advance
  /// (0 disables the prefetcher; 2 matches a ChampSim-style default).
  std::uint32_t prefetch_degree = 2;
  std::uint32_t prefetch_streams = 16;  ///< Tracked streams per core.

  /// LLC replacement policy (L1/L2 stay LRU; the LLC is where policy
  /// interacts with COAXIAL's halved capacity — see bench_ablations).
  cache::ReplacementPolicy llc_replacement = cache::ReplacementPolicy::kLru;
};

struct SystemConfig {
  std::string name;
  MicroarchConfig uarch;

  Topology topology = Topology::kDirectDdr;
  std::uint32_t ddr_channels = 1;       ///< Direct-DDR topology.
  std::uint32_t cxl_channels = 4;       ///< CXL topology.
  std::uint32_t ddr_per_device = 1;     ///< DDR channels per Type-3 device.
  bool asym_lanes = false;
  double cxl_port_ns = 12.5;            ///< 12.5 => 50 ns premium; 17.5 => 70 ns.

  /// CXL fabric beyond the root ports: direct point-to-point by default;
  /// star/tree presets put switches (and a cross-device interleaving
  /// policy) between `cxl_channels` root ports and `fabric.devices`
  /// Type-3 devices.
  fabric::FabricConfig fabric;

  calm::CalmConfig calm;

  /// DRAM substrate knobs (timings, geometry, permutation interleave,
  /// idle-precharge) — defaults match the paper; see bench_ablations.
  dram::Timing dram_timing;
  dram::Geometry dram_geometry;

  /// RAS fault-injection plan (DESIGN.md §7). Inert by default; applies to
  /// the CXL topologies only (direct-DDR has no serial links to fault).
  ras::FaultPlan fault_plan;

  /// Tiered placement (DESIGN.md §10). Disabled by default — the memory
  /// system is then the plain topology above behind its stage-2 Router,
  /// byte-identical to the pre-tiering model. When enabled,
  /// `tiering.fast_ddr_channels` local DDR channels become tier 0 and the
  /// topology above becomes the capacity tier behind hot-page migration.
  placement::TierConfig tiering;

  /// Construct the memory system this configuration describes. `scope`,
  /// when valid, is the registry subtree the memory system registers into.
  std::unique_ptr<mem::MemorySystem> make_memory(obs::Scope scope = {}) const;

  /// Aggregate DRAM-side peak bandwidth (GB/s).
  double peak_memory_gbps() const;

  /// Type-3 device count the fabric resolves to (== cxl_channels when
  /// direct or unset).
  std::uint32_t cxl_devices() const {
    return fabric.devices != 0 ? fabric.devices : cxl_channels;
  }
};

/// Table II/III configurations, scaled to the simulated 12-core slice.
/// All COAXIAL variants default to CALM_70% as in the paper (§IV-C).
SystemConfig baseline_ddr();
SystemConfig coaxial_2x();
SystemConfig coaxial_4x();   ///< "COAXIAL" without qualifier.
SystemConfig coaxial_5x();   ///< Iso-pin variant (17% extra die area).
SystemConfig coaxial_asym();

/// Switched COAXIAL: `devices` Type-3 devices behind one shared CXL switch
/// reached through `host_links` x8 root ports (scales device count past the
/// pin budget at a 2x25 ns per-hop premium). Per-page cross-device
/// interleaving keeps spatial locality device-local.
SystemConfig coaxial_star(std::uint32_t devices = 8, std::uint32_t host_links = 4);

/// Two-level switched fabric: root ports -> spine switch -> `leaf_switches`
/// leaf switches -> `devices` devices (two hop premiums each way).
SystemConfig coaxial_tree(std::uint32_t devices = 8, std::uint32_t host_links = 4,
                          std::uint32_t leaf_switches = 2);

/// Tiered COAXIAL: one fast local DDR5 channel (tier 0) in front of the
/// COAXIAL-4x CXL substrate (tier 1), with `fast_pages` 4 KiB frames of
/// migration headroom and the given hot-page policy sampling every
/// `epoch_cycles` (DESIGN.md §10).
SystemConfig coaxial_tiered(
    placement::PolicyKind policy = placement::PolicyKind::kHotnessLru,
    std::uint64_t fast_pages = 4096, Cycle epoch_cycles = 10'000);

/// All five evaluated configurations in Table II order.
std::vector<SystemConfig> all_configs();

/// Multi-host pooled COAXIAL (DESIGN.md §12): `n_hosts` host slices, each
/// with `private_devices` private Type-3 devices, sharing `shared_devices`
/// pooled devices guarded by per-device coherence directories. Every host
/// redirects `share_fraction` of its memory ops into the shared window
/// (hot-subset skewed), which is what generates directory traffic.
pool::PoolConfig coaxial_pooled(std::uint32_t n_hosts = 2,
                                double share_fraction = 0.5,
                                std::uint32_t shared_devices = 2,
                                std::uint32_t private_devices = 1);

/// Switched variant: each host reaches its devices through a shared CXL
/// switch, so back-invalidations and recall acks pay the switch hops too.
pool::PoolConfig coaxial_pooled_switched(std::uint32_t n_hosts = 2,
                                         double share_fraction = 0.5,
                                         std::uint32_t shared_devices = 4,
                                         std::uint32_t private_devices = 1);

// ---- Named RAS fault presets (assign to SystemConfig::fault_plan) ----

/// Uniform CRC bit-error noise on every fabric segment, absorbed by
/// link-layer retry (poison only at extreme BER).
ras::FaultPlan ras_crc_noise(double bit_error_rate = 1e-5);

/// One device that periodically stops accepting requests; the host-side
/// watchdog reissues timed-out reads with capped exponential backoff.
ras::FaultPlan ras_flaky_device(std::uint32_t device = 0);

/// A link that down-trains mid-run to half goodput (graceful degradation).
ras::FaultPlan ras_downtrain(Cycle at_cycle = 100'000);

/// Everything at once: bursty CRC noise, a flaky device, a mid-run
/// down-train, and the watchdog — the bench/CI stress scenario.
ras::FaultPlan ras_stress();

/// Planned surprise removal (DESIGN.md §13): `device` vanishes at
/// `at_cycle`; in-flight and future accesses complete poisoned.
ras::FaultPlan ras_device_loss(std::uint32_t device = 1, Cycle at_cycle = 60'000);

/// Planned failing device: an escalating read-error rate trips the health
/// monitor, which evacuates the device's pages and then retires it.
/// Meaningful with the tiered topology (the placement layer owns
/// evacuation).
ras::FaultPlan ras_failing_evac(std::uint32_t device = 1, Cycle at_cycle = 30'000);

/// Tiered COAXIAL with a planned capacity-device failure: page-granular
/// capacity interleave (each page homes on one device) plus the failure
/// preset for `mode` — the bench_availability scenario.
SystemConfig coaxial_tiered_failover(
    ras::FailureMode mode = ras::FailureMode::kFailing, Cycle at_cycle = 30'000);

/// Pooled COAXIAL under fire: CRC noise on every host head plus a planned
/// surprise removal of shared device 1 (directory recovery, lost-dirty
/// accounting, refused transactions — DESIGN.md §13).
pool::PoolConfig coaxial_pooled_faulty(std::uint32_t n_hosts = 2,
                                       Cycle at_cycle = 40'000);

}  // namespace coaxial::sys
