// Synthetic workload generator.
//
// The paper replays recorded SPEC2017 / LIGRA / PARSEC / STREAM / masstree /
// kmeans traces. Those traces are not redistributable, so each workload is
// replaced by a stationary stochastic generator whose parameters reproduce
// the first-order memory behaviour that drives the paper's results: memory
// intensity (ops/instruction), store share, spatial locality (sequential
// streams vs random), a three-tier reuse structure (hot set ~ L2-resident,
// mid set ~ LLC-resident, cold set ~ memory-resident), and load->load
// dependencies (=> memory-level parallelism). Calibration targets are
// Table IV's published (IPC, LLC MPKI) pairs; see
// `bench_tab04_workload_metrics` and EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace coaxial::workload {

enum class InstrKind : std::uint8_t { kAlu, kLoad, kStore };

struct Instr {
  InstrKind kind = InstrKind::kAlu;
  Addr addr = 0;        ///< Byte address (loads/stores).
  Addr pc = 0;          ///< Synthetic PC, used by the MAP-I predictor.
  bool depends_on_prev_load = false;  ///< Pointer-chase dependency.
};

struct WorkloadParams {
  std::string name;
  std::string suite;  ///< SPEC / LIGRA / STREAM / PARSEC / KVS.

  double mem_fraction = 0.25;    ///< Memory ops per instruction.
  double store_fraction = 0.25;  ///< Stores among memory ops.
  double seq_prob = 0.5;         ///< P(mem op continues a sequential stream).
  std::uint32_t streams = 4;     ///< Concurrent sequential streams.

  // Random-access reuse tiers. The random component (1 - seq_prob of memory
  // ops) picks hot with p_hot, mid with p_mid, else cold.
  std::uint32_t hot_kb = 128;     ///< Private-cache-resident tier.
  std::uint32_t mid_kb = 1024;    ///< LLC-resident tier.
  std::uint32_t cold_kb = 65536;  ///< Memory-resident tier (per core).
  double p_hot = 0.3;
  double p_mid = 0.2;

  double dep_prob = 0.1;  ///< P(load depends on the previous load).
  double max_ipc = 3.0;   ///< Front-end/ILP ceiling (no-miss IPC).

  // Cold-tier page skew, for tiered-placement studies (DESIGN.md §10):
  // a `cold_hot_fraction` subset of the cold tier's 4 KiB pages (scattered
  // across the tier, so no contiguous range covers them) absorbs
  // `cold_hot_prob` of the cold random accesses. Both default to 0, which
  // draws nothing from the RNG and leaves legacy streams byte-identical.
  double cold_hot_fraction = 0.0;
  double cold_hot_prob = 0.0;

  /// Temporal burstiness in [0,1): the generator alternates memory-intense
  /// bursts (1/3 of instructions, mem_fraction*(1+2b)) with quieter gaps
  /// (mem_fraction*(1-b)), preserving the average. Real traces are phased;
  /// burstiness drives queuing at moderate utilisation (paper Fig. 2).
  double burstiness = 0.8;

  // Published baseline measurements (Table IV) used as calibration targets.
  double paper_ipc = 0.0;
  double paper_llc_mpki = 0.0;
};

/// Address-tier layout of one core's private region. Exposed so the
/// simulator can pre-warm caches with steady-state content (the substitute
/// for trace checkpoint warmup; see DESIGN.md).
struct Regions {
  Addr hot_base = 0;
  Addr hot_bytes = 0;
  Addr mid_base = 0;
  Addr mid_bytes = 0;
  Addr cold_base = 0;
  Addr cold_bytes = 0;
};

/// Tier layout for `core_id` under `params` (deterministic).
Regions region_layout(const WorkloadParams& params, std::uint32_t core_id);

/// Per-core instance: cores run disjoint address regions (the paper runs
/// one workload instance per core, rate-style).
class Generator {
 public:
  Generator(const WorkloadParams& params, std::uint32_t core_id, std::uint64_t seed);

  /// Produce the next instruction of the stream.
  Instr next();

  /// Chunked synthesis: write the next `n` instructions into `out` in
  /// place. Exactly equivalent to `n` next() calls (same RNG draws in the
  /// same order), with no call and no Instr copy per instruction.
  std::size_t next_batch(Instr* out, std::size_t n);

  const WorkloadParams& params() const { return params_; }

 private:
  /// Draw one instruction into `out`, overwriting every field.
  void draw(Instr& out);

  WorkloadParams params_;
  Rng rng_;
  Rng phase_rng_;  ///< Seeded without the core id: phases align across
                   ///< cores, like rate-mode replay of one trace (burst
                   ///< alignment is what loads the shared controllers).
  Addr base_hot_, base_mid_, base_cold_;
  Addr hot_bytes_, mid_bytes_, cold_bytes_;
  Addr warm_pages_ = 0;      ///< Skewed cold subset size (0 = no skew).
  Addr cold_page_mask_ = 0;  ///< Pow2-1 page mask for the scatter bijection.
  std::vector<Addr> stream_pos_;  ///< Byte offsets into the cold tier.
  double mem_frac_burst_ = 0;  ///< min(0.9, mem_fraction*(1+2b)), hoisted.
  double mem_frac_calm_ = 0;   ///< min(0.9, mem_fraction*(1-b)), hoisted.
  std::uint32_t next_stream_ = 0;
  bool saw_load_ = false;
  bool in_burst_ = false;
  std::uint32_t phase_left_ = 0;  ///< Instructions left in the current phase.
};

}  // namespace coaxial::workload
