#include "coaxial/configs.hpp"

#include <utility>
#include <vector>

#include "placement/tiered_memory.hpp"

namespace coaxial::sys {

namespace {
/// The capacity side of the address space: the plain (non-tiered) topology
/// a SystemConfig describes. CxlMemory builds its own stage-2 Router from
/// the fabric, so every address-to-device decision goes through it.
std::unique_ptr<mem::MemorySystem> make_flat_memory(const SystemConfig& cfg,
                                                    obs::Scope scope) {
  if (cfg.topology == Topology::kDirectDdr) {
    return std::make_unique<mem::DirectDdrMemory>(cfg.ddr_channels, cfg.dram_timing,
                                                  cfg.dram_geometry, scope);
  }
  const link::LaneConfig lanes = cfg.asym_lanes ? link::LaneConfig::x8_asym(cfg.cxl_port_ns)
                                                : link::LaneConfig::x8(cfg.cxl_port_ns);
  return std::make_unique<mem::CxlMemory>(cfg.fabric, cfg.cxl_channels, cfg.ddr_per_device,
                                          lanes, cfg.dram_timing, cfg.dram_geometry, scope,
                                          cfg.fault_plan);
}
}  // namespace

std::unique_ptr<mem::MemorySystem> SystemConfig::make_memory(obs::Scope scope) const {
  if (!tiering.enabled) return make_flat_memory(*this, scope);
  tiering.validate();
  auto fast = std::make_unique<mem::DirectDdrMemory>(
      tiering.fast_ddr_channels, dram_timing, dram_geometry, scope.sub("tier0"));
  return std::make_unique<placement::TieredMemory>(
      tiering, std::move(fast), make_flat_memory(*this, scope.sub("tier1")), scope,
      fault_plan);
}

double SystemConfig::peak_memory_gbps() const {
  const std::uint32_t ddr =
      topology == Topology::kDirectDdr ? ddr_channels : cxl_devices() * ddr_per_device;
  return ddr * dram::kChannelPeakGBps;
}

namespace {
SystemConfig coaxial_base(const char* name, std::uint32_t cxl_channels,
                          std::uint32_t llc_mb_per_core) {
  SystemConfig c;
  c.name = name;
  c.topology = Topology::kCxl;
  c.cxl_channels = cxl_channels;
  c.uarch.llc_mb_per_core = llc_mb_per_core;
  c.calm.policy = calm::Policy::kRegulated;
  c.calm.r_fraction = 0.70;
  return c;
}
}  // namespace

SystemConfig baseline_ddr() {
  SystemConfig c;
  c.name = "DDR-baseline";
  c.topology = Topology::kDirectDdr;
  c.ddr_channels = 1;
  c.uarch.llc_mb_per_core = 2;
  c.calm.policy = calm::Policy::kNone;
  return c;
}

SystemConfig coaxial_2x() { return coaxial_base("COAXIAL-2x", 2, 2); }

SystemConfig coaxial_4x() { return coaxial_base("COAXIAL-4x", 4, 1); }

SystemConfig coaxial_5x() { return coaxial_base("COAXIAL-5x", 5, 2); }

SystemConfig coaxial_asym() {
  SystemConfig c = coaxial_base("COAXIAL-asym", 4, 1);
  c.ddr_per_device = 2;
  c.asym_lanes = true;
  return c;
}

SystemConfig coaxial_star(std::uint32_t devices, std::uint32_t host_links) {
  SystemConfig c = coaxial_base(
      ("COAXIAL-star" + std::to_string(devices) + "x" + std::to_string(host_links)).c_str(),
      host_links, 1);
  c.fabric = fabric::FabricConfig::star(devices, host_links);
  c.fabric.interleave = fabric::Interleave::kPage;
  return c;
}

SystemConfig coaxial_tree(std::uint32_t devices, std::uint32_t host_links,
                          std::uint32_t leaf_switches) {
  SystemConfig c = coaxial_base(
      ("COAXIAL-tree" + std::to_string(devices) + "x" + std::to_string(host_links)).c_str(),
      host_links, 1);
  c.fabric = fabric::FabricConfig::tree(devices, host_links, leaf_switches);
  c.fabric.interleave = fabric::Interleave::kPage;
  return c;
}

SystemConfig coaxial_tiered(placement::PolicyKind policy, std::uint64_t fast_pages,
                            Cycle epoch_cycles) {
  SystemConfig c = coaxial_4x();
  c.name = std::string("COAXIAL-tiered-") + placement::policy_name(policy);
  c.tiering.enabled = true;
  c.tiering.policy = policy;
  c.tiering.fast_ddr_channels = 1;
  c.tiering.fast_capacity_pages = fast_pages;
  c.tiering.epoch_cycles = epoch_cycles;
  // A sweep-friendly migration posture: promote on a handful of touches in
  // one epoch (the tiered-hotcold warm pages average ~9 accesses/epoch, so
  // genuinely warm pages clear this while one-off cold pages do not), and
  // cap migration traffic at 16 page copies (~2k line-ops) per 10k-cycle
  // epoch so the copies never swamp demand bandwidth — a few-hundred-page
  // warm set still turns over within the first fifth of a standard run.
  c.tiering.promote_threshold = 4;
  c.tiering.max_migrations_per_epoch = 16;
  return c;
}

std::vector<SystemConfig> all_configs() {
  return {baseline_ddr(), coaxial_5x(), coaxial_2x(), coaxial_4x(), coaxial_asym()};
}

pool::PoolConfig coaxial_pooled(std::uint32_t n_hosts, double share_fraction,
                                std::uint32_t shared_devices,
                                std::uint32_t private_devices) {
  pool::PoolConfig c;
  c.name = "COAXIAL-pooled" + std::to_string(n_hosts) + "h";
  c.n_hosts = n_hosts;
  c.shared_devices = shared_devices;
  c.private_devices = private_devices;
  c.share_fraction = share_fraction;
  return c;
}

pool::PoolConfig coaxial_pooled_switched(std::uint32_t n_hosts,
                                         double share_fraction,
                                         std::uint32_t shared_devices,
                                         std::uint32_t private_devices) {
  pool::PoolConfig c =
      coaxial_pooled(n_hosts, share_fraction, shared_devices, private_devices);
  c.name = "COAXIAL-pooled" + std::to_string(n_hosts) + "h-sw";
  c.fabric_kind = fabric::TopologyKind::kStar;
  return c;
}

ras::FaultPlan ras_crc_noise(double bit_error_rate) {
  ras::FaultPlan p;
  p.bit_error_rate = bit_error_rate;
  return p;
}

ras::FaultPlan ras_flaky_device(std::uint32_t device) {
  ras::FaultPlan p;
  p.stall_period_cycles = 20'000;
  p.stall_len_cycles = 2'000;
  p.stall_device = device;
  p.timeout_cycles = 4'000;
  p.max_reissues = 4;
  p.backoff_cap_cycles = 64'000;
  return p;
}

ras::FaultPlan ras_downtrain(Cycle at_cycle) {
  ras::FaultPlan p;
  p.downtrain_at_cycle = at_cycle;
  return p;
}

ras::FaultPlan ras_stress() {
  ras::FaultPlan p = ras_flaky_device(0);
  p.bit_error_rate = 3e-5;
  p.burst_multiplier = 10.0;
  p.burst_period_cycles = 50'000;
  p.burst_len_cycles = 5'000;
  p.downtrain_at_cycle = 100'000;
  return p;
}

ras::FaultPlan ras_device_loss(std::uint32_t device, Cycle at_cycle) {
  ras::FaultPlan p;
  p.fail_mode = ras::FailureMode::kSurpriseRemoval;
  p.fail_device = device;
  p.fail_at_cycle = at_cycle;
  return p;
}

ras::FaultPlan ras_failing_evac(std::uint32_t device, Cycle at_cycle) {
  ras::FaultPlan p;
  p.fail_mode = ras::FailureMode::kFailing;
  p.fail_device = device;
  p.fail_at_cycle = at_cycle;
  // Ramp to a 2% read-error rate over 10k cycles; the EWMA (half-weight on
  // the newest 2k-cycle window) crosses the 0.2% threshold a window or two
  // into the ramp. 2% keeps evacuation feasible: a 64-line page copy is
  // clean with probability 0.98^64 ~ 0.27, so aborted jobs converge over
  // retries instead of livelocking the offline handshake.
  p.fail_error_rate = 0.02;
  p.fail_ramp_cycles = 10'000;
  p.health_period_cycles = 2'000;
  p.health_ewma_alpha = 0.5;
  p.health_threshold = 0.002;
  p.evac_pages_per_epoch = 8;
  return p;
}

SystemConfig coaxial_tiered_failover(ras::FailureMode mode, Cycle at_cycle) {
  SystemConfig c = coaxial_tiered();
  c.name = "COAXIAL-tiered-failover";
  // Page-granular capacity interleave: a tier page homes on exactly one
  // device — the precondition for per-device evacuation and retirement.
  c.fabric.interleave = fabric::Interleave::kPage;
  c.fabric.page_lines = c.tiering.page_lines;
  c.fault_plan = mode == ras::FailureMode::kSurpriseRemoval
                     ? ras_device_loss(1, at_cycle)
                     : ras_failing_evac(1, at_cycle);
  return c;
}

pool::PoolConfig coaxial_pooled_faulty(std::uint32_t n_hosts, Cycle at_cycle) {
  pool::PoolConfig c = coaxial_pooled(n_hosts);
  c.name = "COAXIAL-pooled" + std::to_string(n_hosts) + "h-faulty";
  c.fault_plan = ras_device_loss(1, at_cycle);
  c.fault_plan.bit_error_rate = 1e-5;  // CRC noise on every host head too.
  return c;
}

}  // namespace coaxial::sys
