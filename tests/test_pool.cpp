// Multi-host pooling and coherence-directory tests (DESIGN.md §12):
// directory protocol transitions, invalidation conservation, scheduler-mode
// byte-equivalence under active ping-pong, run determinism, and noisy-
// neighbour isolation of a non-sharing victim host.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "obs/stats_json.hpp"
#include "placement/address_map.hpp"
#include "pool/directory.hpp"
#include "pool/pool_config.hpp"
#include "sim/pooled_system.hpp"
#include "sim/runner.hpp"

namespace coaxial {
namespace {

using pool::Directory;
using pool::PageState;

// ---------------------------------------------------------------- Directory

TEST(Directory, InsertTracksReaderAsSharer) {
  Directory d(/*capacity=*/8, /*n_hosts=*/4);
  const Directory::Decision dd = d.access(/*page=*/5, /*host=*/2, /*write=*/false);
  EXPECT_FALSE(dd.blocked);
  EXPECT_FALSE(dd.needs_txn);
  const Directory::Entry* e = d.find(5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, PageState::kShared);
  EXPECT_EQ(e->sharers, std::uint64_t{1} << 2);
  EXPECT_EQ(d.occupancy(), 1u);
  EXPECT_EQ(d.inserts(), 1u);
}

TEST(Directory, SoleSharerUpgradesSilently) {
  Directory d(8, 4);
  d.access(5, 0, false);
  const Directory::Decision dd = d.access(5, 0, true);
  EXPECT_FALSE(dd.needs_txn);
  EXPECT_TRUE(dd.upgrade_silent);
  const Directory::Entry* e = d.find(5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, PageState::kModified);
  EXPECT_EQ(e->owner, 0u);
  EXPECT_FALSE(e->locked);
}

TEST(Directory, RemoteWriteBackInvalidatesSharers) {
  Directory d(8, 4);
  d.access(5, 0, false);
  d.access(5, 1, false);
  d.access(5, 2, false);
  // Host 1 writes: hosts 0 and 2 must be invalidated (clean — no data back).
  const Directory::Decision dd = d.access(5, 1, true);
  EXPECT_TRUE(dd.needs_txn);
  EXPECT_EQ(dd.clean_mask, (std::uint64_t{1} << 0) | (std::uint64_t{1} << 2));
  EXPECT_EQ(dd.dirty_mask, 0u);
  EXPECT_FALSE(dd.pingpong);
  const Directory::Entry* e = d.find(5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, PageState::kModified);
  EXPECT_EQ(e->owner, 1u);
  EXPECT_EQ(e->sharers, std::uint64_t{1} << 1);
  EXPECT_TRUE(e->locked);
  // Same-page traffic is blocked until the transaction completes…
  EXPECT_TRUE(d.access(5, 3, false).blocked);
  d.unlock(5);
  // …then flows again.
  EXPECT_FALSE(d.access(5, 3, false).blocked);
}

TEST(Directory, RemoteWriteOfModifiedPageHandsOffOwnership) {
  Directory d(8, 4);
  d.access(5, 0, true);  // Insert directly in M (owner 0).
  const Directory::Decision dd = d.access(5, 1, true);
  EXPECT_TRUE(dd.needs_txn);
  EXPECT_TRUE(dd.pingpong);
  EXPECT_EQ(dd.dirty_mask, std::uint64_t{1} << 0);  // Recall with data.
  EXPECT_EQ(dd.clean_mask, 0u);
  const Directory::Entry* e = d.find(5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, PageState::kModified);
  EXPECT_EQ(e->owner, 1u);
}

TEST(Directory, RemoteReadOfModifiedPageDowngradesToShared) {
  Directory d(8, 4);
  d.access(5, 0, true);
  const Directory::Decision dd = d.access(5, 1, false);
  EXPECT_TRUE(dd.needs_txn);
  EXPECT_FALSE(dd.pingpong);
  EXPECT_EQ(dd.dirty_mask, std::uint64_t{1} << 0);
  const Directory::Entry* e = d.find(5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, PageState::kShared);
  EXPECT_EQ(e->sharers, (std::uint64_t{1} << 0) | (std::uint64_t{1} << 1));
}

TEST(Directory, OwnerRereadingItsOwnModifiedPageIsFree) {
  Directory d(8, 4);
  d.access(5, 0, true);
  const Directory::Decision dd = d.access(5, 0, false);
  EXPECT_FALSE(dd.needs_txn);
  EXPECT_EQ(d.find(5)->state, PageState::kModified);
}

TEST(Directory, CapacityEvictionRecallsLruVictim) {
  Directory d(/*capacity=*/2, /*n_hosts=*/4);
  d.access(10, 0, true);   // M, owner 0.
  d.access(20, 1, false);  // S, sharer 1.
  d.access(10, 0, false);  // Touch 10: page 20 becomes the LRU.
  const Directory::Decision dd = d.access(30, 2, false);
  EXPECT_TRUE(dd.evicted);
  EXPECT_EQ(dd.evicted_page, 20u);
  EXPECT_TRUE(dd.needs_txn);
  EXPECT_EQ(dd.clean_mask, std::uint64_t{1} << 1);  // 20 was clean-shared.
  EXPECT_EQ(d.find(20), nullptr);
  ASSERT_NE(d.find(30), nullptr);
  EXPECT_TRUE(d.find(30)->locked);
  EXPECT_EQ(d.evictions(), 1u);
  EXPECT_EQ(d.occupancy(), 2u);
}

TEST(Directory, EvictingModifiedVictimRecallsDirtyData) {
  Directory d(/*capacity=*/1, /*n_hosts=*/4);
  d.access(10, 3, true);  // M, owner 3.
  const Directory::Decision dd = d.access(11, 0, false);
  EXPECT_TRUE(dd.evicted);
  EXPECT_EQ(dd.evicted_page, 10u);
  EXPECT_EQ(dd.dirty_mask, std::uint64_t{1} << 3);
  EXPECT_EQ(dd.clean_mask, 0u);
}

TEST(Directory, FullyLockedSetBlocksInsertion) {
  Directory d(/*capacity=*/1, /*n_hosts=*/4);
  d.access(10, 0, true);
  ASSERT_TRUE(d.access(10, 1, true).needs_txn);  // Locks the only entry.
  const Directory::Decision dd = d.access(11, 2, false);
  EXPECT_TRUE(dd.blocked);  // No evictable victim.
  d.unlock(10);
  EXPECT_FALSE(d.access(11, 2, false).blocked);
}

// ------------------------------------------------------------- Pooled runs

pool::PoolConfig small_pool(std::uint32_t hosts) {
  pool::PoolConfig c = sys::coaxial_pooled(hosts, /*share_fraction=*/0.5);
  // Shrink footprints so short test runs still collide on the hot pages.
  c.private_pages = 1 << 12;
  c.shared_pages = 256;
  c.shared_hot_pages = 4;
  c.shared_hot_prob = 0.9;
  return c;
}

pool::PoolConfig hot_page_pool(std::uint32_t hosts) {
  pool::PoolConfig c = small_pool(hosts);
  c.name = "hot-page";
  c.share_fraction = 0.9;
  c.shared_hot_pages = 1;
  c.shared_hot_prob = 1.0;
  return c;
}

pool::PoolConfig tiny_directory_pool(std::uint32_t hosts) {
  pool::PoolConfig c = small_pool(hosts);
  c.name = "tiny-directory";
  c.directory_entries = 2;
  return c;
}

/// A one-slot read window: every load waits out the previous load's slot,
/// so window stalls dominate the slices' stall cycles.
pool::PoolConfig window_bound_pool() {
  pool::PoolConfig c = small_pool(3);
  c.name = "window-bound";
  c.host_window = 1;
  return c;
}

/// Four hosts streaming copies through 64-slot windows outrun the pool's
/// admission: the slices stall on a full window and on backpressure.
pool::PoolConfig stream_backpressure_pool() {
  pool::PoolConfig c = small_pool(4);
  c.name = "stream-backpressure";
  c.workload = "stream-copy";
  c.host_window = 64;
  return c;
}

std::string pooled_document(const pool::PoolConfig& cfg, bool forced,
                            sim::PooledStats* out = nullptr) {
  sim::PooledSystem s(cfg, /*seed=*/7);
  if (forced) s.set_tick_every_cycle(true);
  const sim::PooledStats st = s.run(/*warmup_instr=*/300, /*measure_instr=*/1500);
  if (out != nullptr) *out = st;
  return obs::json::snapshot_to_json(s.metrics().snapshot());
}

TEST(PooledSystem, PingPongGeneratesAndConservesInvalidations) {
  sim::PooledSystem s(small_pool(2), /*seed=*/7);
  const sim::PooledStats st = s.run(300, 1500);
  // Two hosts writing the same hot pages must bounce ownership.
  EXPECT_GT(st.pool.invals_sent, 0u);
  EXPECT_GT(st.pool.pingpong_transitions, 0u);
  EXPECT_GT(st.pool.recalls_dirty, 0u);
  // Exactly-once delivery: at quiescence every invalidation put on a wire
  // was acked, every dirty recall wrote its line back, and the hosts saw
  // exactly the invalidations the devices sent.
  EXPECT_EQ(st.pool.invals_sent, st.pool.invals_acked);
  EXPECT_EQ(st.pool.recall_writebacks, st.pool.recalls_dirty);
  std::uint64_t received = 0, acked = 0;
  for (std::uint32_t h = 0; h < 2; ++h) {
    received += s.memory().host_counters(h).invals_received;
    acked += s.memory().host_counters(h).acks_sent;
  }
  EXPECT_EQ(received, st.pool.invals_sent);
  EXPECT_EQ(acked, st.pool.invals_sent);
  // Both hosts made window progress.
  ASSERT_EQ(st.host_ipc.size(), 2u);
  EXPECT_GT(st.host_ipc[0], 0.0);
  EXPECT_GT(st.host_ipc[1], 0.0);
  EXPECT_GT(st.window_cycles, 0u);
}

/// Event-driven and lockstep runs of every config in `cfgs` must emit the
/// same document, under real coherence load, and conserve invalidations.
void expect_modes_identical(const std::vector<pool::PoolConfig>& cfgs) {
  for (const pool::PoolConfig& cfg : cfgs) {
    SCOPED_TRACE(cfg.name);
    sim::PooledStats ev, fo;
    const std::string a = pooled_document(cfg, /*forced=*/false, &ev);
    const std::string b = pooled_document(cfg, /*forced=*/true, &fo);
    EXPECT_GT(ev.pool.invals_sent, 0u);  // The equivalence is under real load.
    EXPECT_EQ(ev.pool.invals_sent, ev.pool.invals_acked);
    EXPECT_EQ(ev.window_cycles, fo.window_cycles);
    EXPECT_EQ(ev.total_cycles, fo.total_cycles);
    EXPECT_EQ(a, b);
  }
}

/// `cfg` with every host head on `kind`. A tree splits its devices over
/// two leaves, so it gets an even device count: 2 shared + 2 private.
pool::PoolConfig on_fabric(pool::PoolConfig cfg, fabric::TopologyKind kind) {
  cfg.fabric_kind = kind;
  if (kind == fabric::TopologyKind::kTree) cfg.private_devices = 2;
  return cfg;
}

/// The identity inputs on `kind`: the shrunk ping-pong pool; one hot page
/// every host hammers, so demands park behind its lock; a two-entry
/// directory, so inserts find every entry locked and no victim; a one-slot
/// window and a backpressured stream, so slices sleep through window stalls
/// and step through backpressure; and the unshrunk 4-host presets, whose
/// drain tails once outran a wake bound (a switched send after the plane
/// ticked, an undrained completion on a sleeping host shard).
std::vector<pool::PoolConfig> identity_inputs(fabric::TopologyKind kind) {
  std::vector<pool::PoolConfig> cfgs = {small_pool(2), hot_page_pool(3),
                                        tiny_directory_pool(3), window_bound_pool(),
                                        stream_backpressure_pool()};
  if (kind == fabric::TopologyKind::kDirect) {
    cfgs.push_back(sys::coaxial_pooled(4));
    cfgs.push_back(sys::coaxial_pooled_faulty(4, /*at_cycle=*/4'000));
  } else {
    cfgs.push_back(sys::coaxial_pooled_switched(4));
  }
  for (pool::PoolConfig& c : cfgs) c = on_fabric(c, kind);
  return cfgs;
}

TEST(PooledSystem, SchedulerModesAreByteIdenticalDirect) {
  expect_modes_identical(identity_inputs(fabric::TopologyKind::kDirect));
}

TEST(PooledSystem, SchedulerModesAreByteIdenticalSwitched) {
  expect_modes_identical(identity_inputs(fabric::TopologyKind::kStar));
}

TEST(PooledSystem, SchedulerModesAreByteIdenticalTree) {
  expect_modes_identical(identity_inputs(fabric::TopologyKind::kTree));
}

struct StallCycles {
  std::uint64_t dep = 0, window = 0, bp = 0;
};

/// The per-host stall counters of an event-driven run of `cfg` on `kind`,
/// summed over hosts.
StallCycles stall_cycles(const pool::PoolConfig& cfg, fabric::TopologyKind kind) {
  sim::PooledSystem s(on_fabric(cfg, kind), /*seed=*/7);
  s.run(/*warmup_instr=*/300, /*measure_instr=*/1500);
  StallCycles st;
  const auto ends_with = [](const std::string& path, const std::string& leaf) {
    return path.size() >= leaf.size() &&
           path.compare(path.size() - leaf.size(), leaf.size(), leaf) == 0;
  };
  for (const auto& [path, value] : s.metrics().snapshot()) {
    if (path.rfind("pool/host/", 0) != 0) continue;
    const auto n = static_cast<std::uint64_t>(value.as_double());
    if (ends_with(path, "/dep_stall_cycles")) st.dep += n;
    if (ends_with(path, "/window_stall_cycles")) st.window += n;
    if (ends_with(path, "/bp_stall_cycles")) st.bp += n;
  }
  return st;
}

TEST(PooledSystem, StallInputsExerciseWindowAndBackpressureStalls) {
  // The identity pins above hold a sleeping slice's stall accounting to
  // lockstep only where the inputs stall the way they are meant to: the
  // one-slot window mostly on its window, the stream on its window and on
  // backpressure (the 4-host presets record no backpressure at all).
  for (const fabric::TopologyKind kind :
       {fabric::TopologyKind::kDirect, fabric::TopologyKind::kStar,
        fabric::TopologyKind::kTree}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const StallCycles one_slot = stall_cycles(window_bound_pool(), kind);
    EXPECT_GT(one_slot.window, 0u);
    EXPECT_GT(one_slot.window, one_slot.dep);
    const StallCycles stream = stall_cycles(stream_backpressure_pool(), kind);
    EXPECT_GT(stream.window, 0u);
    EXPECT_GT(stream.bp, 0u);
  }
}

TEST(PooledMemory, PendingWorkNamesTheStructuresHoldingWork) {
  // The lost-wake diagnostic: an idle pool reports nothing, a pool holding
  // an admitted read names its in-flight slot and where the demand is. A
  // direct link delivers at send time, so the demand is already mail to
  // the pool shard; a switched head holds it in the host's switch plane
  // until a tick forwards it.
  const auto admitted_read = [](const pool::PoolConfig& cfg) {
    pool::PooledMemory m(cfg);
    EXPECT_TRUE(m.quiescent());
    EXPECT_EQ(m.pending_work(), "");
    EXPECT_TRUE(m.can_accept(1, pool::kPoolSharedBaseLine, false, 0));
    m.access(1, pool::kPoolSharedBaseLine, false, 0, /*token=*/0);
    EXPECT_FALSE(m.quiescent());
    return m.pending_work();
  };
  EXPECT_EQ(admitted_read(small_pool(2)), "inflight_reads=1, mail=1");
  EXPECT_EQ(admitted_read(on_fabric(small_pool(2), fabric::TopologyKind::kStar)),
            "inflight_reads=1, fabric_msgs=1");
}

TEST(PooledSystem, RepeatedRunsAreByteIdentical) {
  const std::string a = pooled_document(small_pool(3), false);
  const std::string b = pooled_document(small_pool(3), false);
  EXPECT_EQ(a, b);
}

TEST(PooledSystem, DirectoryEvictionsRecallUnderPressure) {
  pool::PoolConfig cfg = small_pool(2);
  // A directory far smaller than the shared footprint, with mostly-uniform
  // pool traffic, must evict (and recall) constantly — and still conserve.
  cfg.directory_entries = 16;
  cfg.shared_hot_prob = 0.1;
  sim::PooledSystem s(cfg, /*seed=*/11);
  const sim::PooledStats st = s.run(300, 1500);
  EXPECT_GT(st.pool.dir_evictions, 0u);
  EXPECT_EQ(st.pool.invals_sent, st.pool.invals_acked);
  for (std::uint32_t d = 0; d < cfg.shared_devices; ++d) {
    EXPECT_LE(s.memory().directory(d).occupancy(), cfg.directory_entries);
  }
}

TEST(PooledSystem, NonSharingVictimIsIsolatedFromNoisyNeighbour) {
  // Host 0 never touches the pool; hosts beyond it hammer it. Host 0's
  // private path (own fabric head, own devices, own DRAM) and its whole
  // instruction stream are independent, so its per-host counters must be
  // byte-identical whether the bully shares aggressively or not at all.
  auto run_victim = [](double bully_share) {
    pool::PoolConfig cfg = small_pool(2);
    cfg.share_fraction_per_host = {0.0, bully_share};
    sim::PooledSystem s(cfg, /*seed=*/7);
    const sim::PooledStats st = s.run(300, 1500);
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>(
        s.memory().host_counters(0).reads, s.memory().host_counters(0).writes,
        st.pool.private_reads + st.pool.private_writes);
  };
  const auto quiet = run_victim(0.0);
  const auto noisy = run_victim(0.9);
  EXPECT_EQ(std::get<0>(quiet), std::get<0>(noisy));
  EXPECT_EQ(std::get<1>(quiet), std::get<1>(noisy));
}

TEST(PooledSystem, PoolSubtreeRegistersAndCountsHosts) {
  sim::PooledSystem s(small_pool(2), /*seed=*/7);
  s.run(100, 400);
  const obs::Snapshot snap = s.metrics().snapshot();
  bool saw_hosts = false, saw_dir = false, saw_host0 = false;
  for (const auto& [path, value] : snap) {
    if (path == "pool/hosts") {
      saw_hosts = true;
      EXPECT_EQ(value.as_double(), 2.0);
    }
    saw_dir = saw_dir || path == "pool/dir/occupancy";
    saw_host0 = saw_host0 || path == "pool/host/00/instructions";
  }
  EXPECT_TRUE(saw_hosts);
  EXPECT_TRUE(saw_dir);
  EXPECT_TRUE(saw_host0);
}

TEST(PooledRunner, DispatchesPooledRequests) {
  sim::RunRequest req;
  req.pool = small_pool(2);
  req.warmup_instr = 200;
  req.measure_instr = 800;
  req.seed = 7;
  const sim::RunResult res = sim::run_one(req);
  EXPECT_EQ(res.config_name, req.pool.name);
  EXPECT_EQ(res.workload_name, "pool-pingpong");
  EXPECT_FALSE(res.open_loop);
  EXPECT_EQ(res.pooled.host_ipc.size(), 2u);
  EXPECT_GT(res.pooled.instructions, 0u);
  // The snapshot rides along for statdiff's pool/* rules.
  bool saw_pool = false;
  for (const auto& [path, value] : res.metrics) {
    (void)value;
    saw_pool = saw_pool || path.rfind("pool/", 0) == 0;
  }
  EXPECT_TRUE(saw_pool);
}

// Satellite of the pooling work: the stage-2 decode now carries the fabric
// device count as a debug bound, so a topology/interleave mismatch throws
// at translate time instead of silently indexing past per-device state.
// This TU compiles with COAXIAL_DEVICE_BOUND_CHECK, so the (header-inline)
// guard is active regardless of the library build type.
TEST(AddressMapDeviceBound, MismatchedFabricCountThrowsAtTranslate) {
  placement::AddressMap m = placement::AddressMap::passthrough(
      fabric::Interleave::kLine, /*devices=*/8, /*subs_per_device=*/2,
      /*page_lines=*/64, /*contiguous_lines=*/1ull << 24);
  // The fabric only wired 4 devices: lines decoding to devices 0..3 pass,
  // anything past the bound is a programming error, not a hardware state.
  // kLine with 2 subs/device: line -> sub (line % 16) -> device (sub / 2).
  m.set_device_bound(4);
  EXPECT_NO_THROW(m.route(7));  // Sub 7 -> device 3, inside the bound.
  EXPECT_THROW(m.route(8), std::logic_error);   // Sub 8 -> device 4.
  EXPECT_THROW(m.device_of(15), std::logic_error);  // Sub 15 -> device 7.
  // Matching counts never trip.
  m.set_device_bound(8);
  for (Addr line = 0; line < 64; ++line) EXPECT_NO_THROW(m.route(line));
}

TEST(PoolConfig, ValidateRejectsBadShapes) {
  pool::PoolConfig c = sys::coaxial_pooled(2);
  c.share_fraction = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = sys::coaxial_pooled(2);
  c.shared_hot_pages = c.shared_pages + 1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = sys::coaxial_pooled(0);
  c.share_fraction = 7.0;  // Ignored: disabled configs validate vacuously.
  EXPECT_NO_THROW(c.validate());
}

}  // namespace
}  // namespace coaxial
