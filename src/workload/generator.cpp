#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>

namespace coaxial::workload {

namespace {
// Synthetic PC layout. Distinct PCs per access class give the MAP-I
// predictor a learnable signal: stream and cold accesses (LLC-hostile)
// carry different PCs than hot/mid accesses (LLC-friendly).
constexpr Addr kPcAlu = 0x400000;
constexpr Addr kPcStreamBase = 0x401000;
constexpr Addr kPcHotBase = 0x402000;
constexpr Addr kPcMidBase = 0x403000;
constexpr Addr kPcColdBase = 0x404000;
constexpr std::uint32_t kPcsPerClass = 8;

Addr kb_to_bytes(std::uint32_t kb) {
  const Addr b = static_cast<Addr>(kb) * 1024;
  return std::max<Addr>(b & ~static_cast<Addr>(kLineBytes - 1), kLineBytes);
}
}  // namespace

Regions region_layout(const WorkloadParams& params, std::uint32_t core_id) {
  // Disjoint 4 GB-aligned region per core so instances never share lines
  // (rate-mode execution); tiers are disjoint sub-ranges within the region.
  const Addr region = (static_cast<Addr>(core_id) + 1) << 32;
  Regions r;
  r.hot_base = region;
  r.hot_bytes = kb_to_bytes(params.hot_kb);
  r.mid_base = region + (1ull << 28);
  r.mid_bytes = kb_to_bytes(params.mid_kb);
  r.cold_base = region + (1ull << 29);
  r.cold_bytes = kb_to_bytes(params.cold_kb);
  return r;
}

Generator::Generator(const WorkloadParams& params, std::uint32_t core_id, std::uint64_t seed)
    : params_(params),
      rng_(seed * 0x9e3779b97f4a7c15ull + core_id + 1),
      phase_rng_(seed * 0x9e3779b97f4a7c15ull + 0x5eed) {
  const Regions r = region_layout(params, core_id);
  hot_bytes_ = r.hot_bytes;
  mid_bytes_ = r.mid_bytes;
  cold_bytes_ = r.cold_bytes;
  base_hot_ = r.hot_base;
  base_mid_ = r.mid_base;
  base_cold_ = r.cold_base;

  const double b = params_.burstiness;
  mem_frac_burst_ = std::min(0.9, params_.mem_fraction * (1.0 + 2.0 * b));
  mem_frac_calm_ = std::min(0.9, params_.mem_fraction * (1.0 - b));

  if (params_.cold_hot_fraction > 0 && params_.cold_hot_prob > 0) {
    const Addr cold_pages = cold_bytes_ / 4096;
    warm_pages_ = static_cast<Addr>(params_.cold_hot_fraction *
                                    static_cast<double>(cold_pages));
    // Scatter domain: largest power of two <= cold_pages, so the odd-
    // multiplier hash below is a bijection over it.
    Addr pow2 = 1;
    while (pow2 * 2 <= cold_pages) pow2 *= 2;
    cold_page_mask_ = pow2 - 1;
    if (cold_pages == 0 || warm_pages_ == 0) warm_pages_ = 0;
  }

  const std::uint32_t n_streams = std::max<std::uint32_t>(1, params_.streams);
  stream_pos_.reserve(n_streams);
  for (std::uint32_t s = 0; s < n_streams; ++s) {
    stream_pos_.push_back(rng_.next_below(cold_bytes_) & ~static_cast<Addr>(7));
  }
}

// The whole draw, inlined into both entry points: next_batch() writes each
// instruction straight into the caller's buffer (the core's fetch buffer),
// with no call and no by-value Instr per instruction. `out` is a reused
// slot, so every field is written, once, after the draws.
[[gnu::always_inline]] inline void Generator::draw(Instr& out) {
  // Burst/gap phase machine: mean burst 3000 instructions, mean gap 6000,
  // so bursts cover 1/3 of instructions.
  if (phase_left_ == 0) {
    in_burst_ = !in_burst_;
    const double mean = in_burst_ ? 3000.0 : 6000.0;
    phase_left_ =
        1 + static_cast<std::uint32_t>(-mean * std::log(1.0 - phase_rng_.next_double()));
  }
  --phase_left_;
  const double mem_frac = in_burst_ ? mem_frac_burst_ : mem_frac_calm_;

  if (!rng_.chance(mem_frac)) {
    out.kind = InstrKind::kAlu;
    out.addr = 0;
    out.pc = kPcAlu;
    out.depends_on_prev_load = false;
    return;
  }

  const bool is_store = rng_.chance(params_.store_fraction);
  Addr addr, pc;
  bool skewed = false;

  if (rng_.chance(params_.seq_prob)) {
    // Sequential stream through the cold tier, 8-byte word granularity.
    const std::uint32_t s = next_stream_;
    next_stream_ = (next_stream_ + 1) % static_cast<std::uint32_t>(stream_pos_.size());
    Addr pos = stream_pos_[s] + 8;
    if (pos >= cold_bytes_) pos = 0;
    stream_pos_[s] = pos;
    addr = base_cold_ + pos;
    pc = kPcStreamBase + 8 * (s % kPcsPerClass);
  } else {
    const double r = rng_.next_double();
    Addr base, span, pc_base;
    if (r < params_.p_hot) {
      base = base_hot_;
      span = hot_bytes_;
      pc_base = kPcHotBase;
    } else if (r < params_.p_hot + params_.p_mid) {
      base = base_mid_;
      span = mid_bytes_;
      pc_base = kPcMidBase;
    } else {
      base = base_cold_;
      span = cold_bytes_;
      pc_base = kPcColdBase;
      // Skewed cold access: pick one of the warm pages and scatter it over
      // the cold tier with an odd-multiplier bijection, so the warm set is
      // page-sparse (a tiering policy must track pages, not ranges, to
      // capture it).
      skewed = warm_pages_ > 0 && rng_.chance(params_.cold_hot_prob);
    }
    if (skewed) {
      const Addr widx = rng_.next_below(warm_pages_);
      const Addr page = (widx * 0x9e3779b97f4a7c15ull) & cold_page_mask_;
      addr = base_cold_ + page * 4096 + (rng_.next_below(4096) & ~static_cast<Addr>(7));
    } else {
      addr = base + (rng_.next_below(span) & ~static_cast<Addr>(7));
    }
    pc = pc_base + 8 * rng_.next_below(kPcsPerClass);
  }

  // Pointer-chase dependency: the load consumes the most recent load's
  // result (intervening ALU work does not break the chain).
  bool dep = false;
  if (!is_store) {
    dep = saw_load_ && rng_.chance(params_.dep_prob);
    saw_load_ = true;
  }
  out.kind = is_store ? InstrKind::kStore : InstrKind::kLoad;
  out.addr = addr;
  out.pc = pc;
  out.depends_on_prev_load = dep;
}

Instr Generator::next() {
  Instr ins;
  draw(ins);
  return ins;
}

std::size_t Generator::next_batch(Instr* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) draw(out[i]);
  return n;
}

}  // namespace coaxial::workload
