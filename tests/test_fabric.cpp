// CXL fabric subsystem tests: topology construction + validation, the
// cross-device interleaving policies, deterministic round-robin switch
// arbitration and its cached head bound, per-hop latency additivity in
// exact cycle math, and byte-identical fabric/* metrics across repeated
// runs.
#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "coaxial/configs.hpp"
#include "coaxial/memory_system.hpp"
#include "common/rng.hpp"
#include "fabric/fabric.hpp"
#include "fabric/router.hpp"
#include "fabric/switch.hpp"
#include "fabric/topology.hpp"
#include "link/lane_config.hpp"
#include "obs/stats_json.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace coaxial::fabric {
namespace {

// ---------------------------------------------------------------- topology

TEST(Topology, DirectShape) {
  const Topology t = Topology::build(resolve(FabricConfig::direct(), 4));
  EXPECT_EQ(t.n_devices, 4u);
  EXPECT_EQ(t.host_links, 4u);
  EXPECT_EQ(t.n_switches, 0u);
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(t.hops(d), 0u);
    EXPECT_EQ(t.root_port_of(d), d);
    EXPECT_EQ(t.nodes[t.device_node(d)].parent, 0);
  }
}

TEST(Topology, StarShape) {
  const Topology t = Topology::build(FabricConfig::star(8, 4));
  EXPECT_EQ(t.n_devices, 8u);
  EXPECT_EQ(t.host_links, 4u);
  EXPECT_EQ(t.n_switches, 1u);
  for (std::uint32_t d = 0; d < 8; ++d) {
    EXPECT_EQ(t.hops(d), 1u);
    EXPECT_EQ(t.root_port_of(d), d % 4);
  }
}

TEST(Topology, TreeShape) {
  const Topology t = Topology::build(FabricConfig::tree(8, 4, 2));
  EXPECT_EQ(t.n_switches, 3u);  // Spine + 2 leaves.
  for (std::uint32_t d = 0; d < 8; ++d) EXPECT_EQ(t.hops(d), 2u);
  // Devices 0-3 hang off leaf switch 1, devices 4-7 off leaf switch 2.
  EXPECT_EQ(t.nodes[t.device_node(0)].parent, static_cast<std::int32_t>(t.switch_node(1)));
  EXPECT_EQ(t.nodes[t.device_node(7)].parent, static_cast<std::int32_t>(t.switch_node(2)));
}

TEST(Topology, ResolveFillsDefaults) {
  const FabricConfig direct = resolve(FabricConfig::direct(), 5);
  EXPECT_EQ(direct.devices, 5u);
  EXPECT_EQ(direct.host_links, 5u);
  FabricConfig star;
  star.kind = TopologyKind::kStar;
  const FabricConfig r = resolve(star, 4);
  EXPECT_EQ(r.devices, 4u);
  EXPECT_EQ(r.host_links, 4u);
}

TEST(Topology, BuildRejectsBadConfigs) {
  EXPECT_THROW(Topology::build(FabricConfig::star(0, 2)), std::invalid_argument);
  EXPECT_THROW(Topology::build(FabricConfig::star(8, 0)), std::invalid_argument);
  // More root ports than devices: some host links would dangle.
  EXPECT_THROW(Topology::build(FabricConfig::star(2, 4)), std::invalid_argument);
  // Devices must distribute evenly across leaf switches.
  EXPECT_THROW(Topology::build(FabricConfig::tree(8, 4, 3)), std::invalid_argument);
  EXPECT_THROW(Topology::build(FabricConfig::tree(8, 4, 0)), std::invalid_argument);
  // Direct fabric is strictly one link per device.
  FabricConfig direct;
  direct.devices = 4;
  direct.host_links = 2;
  EXPECT_THROW(Topology::build(direct), std::invalid_argument);
}

TEST(Topology, ValidateRejectsDanglingPortsAndCycles) {
  // Hand-built host + 2 switches + 1 device so validate() sees raw graphs.
  const auto base = [] {
    Topology t;
    t.host_links = 1;
    t.n_switches = 2;
    t.n_devices = 1;
    t.nodes = {{Topology::NodeKind::kHost, -1},
               {Topology::NodeKind::kSwitch, 0},
               {Topology::NodeKind::kSwitch, 1},
               {Topology::NodeKind::kDevice, 2}};
    return t;
  };
  EXPECT_NO_THROW(base().validate());

  Topology dangling_parent = base();
  dangling_parent.nodes[3].parent = 9;  // Parent port out of range.
  EXPECT_THROW(dangling_parent.validate(), std::invalid_argument);

  Topology childless = base();
  childless.nodes[3].parent = 1;  // Switch 2 loses its only child.
  EXPECT_THROW(childless.validate(), std::invalid_argument);

  Topology cycle = base();
  cycle.nodes[1].parent = 2;  // Switches parent each other.
  cycle.nodes[2].parent = 1;
  EXPECT_THROW(cycle.validate(), std::invalid_argument);

  Topology device_parent = base();
  device_parent.nodes[2].parent = 3;  // A device cannot be a parent.
  EXPECT_THROW(device_parent.validate(), std::invalid_argument);

  Topology two_hosts = base();
  two_hosts.nodes[1] = {Topology::NodeKind::kHost, 0};
  EXPECT_THROW(two_hosts.validate(), std::invalid_argument);
}

// ------------------------------------------------------------------ router

TEST(Router, LineInterleaveMatchesLegacyWiring) {
  // 4 devices x 2 sub-channels: the legacy mapping was
  // sub = line % 8, dev = sub / 2, local = line / 8.
  const Router r(Interleave::kLine, 4, 2, 64, 1 << 20);
  for (Addr line = 0; line < 1000; ++line) {
    const Router::Route route = r.route(line);
    EXPECT_EQ(route.sub, line % 8);
    EXPECT_EQ(route.device, (line % 8) / 2);
    EXPECT_EQ(route.local, line / 8);
  }
}

TEST(Router, PageInterleaveRoundRobinsPagesAcrossDevices) {
  const Router r(Interleave::kPage, 4, 2, /*page_lines=*/4, 1 << 20);
  // Pages of 4 lines: lines 0-3 -> dev0, 4-7 -> dev1, ..., 16-19 -> dev0.
  const std::uint32_t expected[] = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
                                    3, 3, 3, 3, 0, 0, 0, 0};
  for (Addr line = 0; line < 20; ++line) {
    EXPECT_EQ(r.route(line).device, expected[line]) << "line " << line;
  }
  // Within a device, consecutive local lines stripe across its sub-channels.
  EXPECT_EQ(r.route(0).sub, 0u);
  EXPECT_EQ(r.route(1).sub, 1u);
  EXPECT_EQ(r.route(2).sub, 0u);
  EXPECT_EQ(r.route(4).sub, 2u);  // Device 1 owns global subs 2 and 3.
  EXPECT_EQ(r.route(5).sub, 3u);
}

TEST(Router, ContiguousInterleaveCarvesExtents) {
  const Router r(Interleave::kContiguous, 2, 2, 64, /*contiguous_lines=*/8);
  for (Addr line = 0; line < 8; ++line) EXPECT_EQ(r.route(line).device, 0u);
  for (Addr line = 8; line < 16; ++line) EXPECT_EQ(r.route(line).device, 1u);
  for (Addr line = 16; line < 24; ++line) EXPECT_EQ(r.route(line).device, 0u);
}

TEST(Router, AllPoliciesAreInjective) {
  // Distinct lines must land on distinct (sub, local) slots — a collision
  // would silently alias two addresses onto one DRAM location.
  for (const Interleave policy :
       {Interleave::kLine, Interleave::kPage, Interleave::kContiguous}) {
    const Router r(policy, 4, 2, 4, 8);
    std::set<std::pair<std::uint32_t, Addr>> seen;
    for (Addr line = 0; line < 4096; ++line) {
      const Router::Route route = r.route(line);
      EXPECT_EQ(route.sub / 2, route.device);
      EXPECT_TRUE(seen.insert({route.sub, route.local}).second)
          << "aliased line " << line;
    }
  }
}

// ------------------------------------------------------------------ switch

TEST(Switch, RoundRobinAlternatesBetweenContendingInputs) {
  // Two ingress ports contending for one egress: forwarding must alternate
  // 0,1,0,1,... regardless of enqueue order.
  Switch sw(2, 1, /*goodput=*/26.0, /*fixed=*/10, /*backlog=*/10000, /*depth=*/64);
  for (int i = 0; i < 4; ++i) {
    sw.enqueue(0, {/*ready=*/0, /*dest=*/0, /*bytes=*/64, /*payload=*/0});
    sw.enqueue(1, {/*ready=*/0, /*dest=*/0, /*bytes=*/64, /*payload=*/1});
  }
  std::vector<std::uint64_t> order;
  sw.tick(
      100, [](const FabricMsg&) { return 0u; }, [](std::uint32_t) { return true; },
      [&order](std::uint32_t, const FabricMsg& m, Cycle) { order.push_back(m.payload); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 0, 1, 0, 1, 0, 1}));
}

TEST(Switch, EgressBacklogBoundsForwardingAndWakes) {
  // Egress backlog of 12 cycles fits two 6-cycle messages per burst; the
  // rest stay queued and the wake bound asks for an immediate retry.
  Switch sw(1, 1, /*goodput=*/26.0, /*fixed=*/10, /*backlog=*/12, /*depth=*/64);
  for (int i = 0; i < 5; ++i) sw.enqueue(0, {0, 0, 64, static_cast<std::uint64_t>(i)});
  int delivered = 0;
  const Cycle wake = sw.tick(
      100, [](const FabricMsg&) { return 0u; }, [](std::uint32_t) { return true; },
      [&delivered](std::uint32_t, const FabricMsg&, Cycle) { ++delivered; });
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(wake, 101u);
}

TEST(Switch, FutureHeadSetsWakeToItsArrival) {
  Switch sw(1, 1, 26.0, 10, 10000, 64);
  sw.enqueue(0, {/*ready=*/500, 0, 64, 0});
  int delivered = 0;
  const Cycle wake = sw.tick(
      100, [](const FabricMsg&) { return 0u; }, [](std::uint32_t) { return true; },
      [&delivered](std::uint32_t, const FabricMsg&, Cycle) { ++delivered; });
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(wake, 500u);
}

TEST(Switch, IdleTicksBetweenTrafficChangeNothing) {
  // Three ingress ports contend for two egresses in bursts, under a tight
  // egress backlog. Ticking every cycle (idle ticks in every gap) must
  // forward the same messages, in the same round-robin order, at the same
  // cycles, with the same egress stats as ticking only at the wake bounds.
  struct Forward {
    std::uint32_t out;
    std::uint64_t payload;
    Cycle arrival;
    bool operator==(const Forward&) const = default;
  };
  const auto drive = [](bool every_cycle, std::vector<Forward>& got) {
    Switch sw(3, 2, /*goodput=*/26.0, /*fixed=*/10, /*backlog=*/12, /*depth=*/64);
    Cycle wake = kNoCycle;
    for (Cycle now = 0; now < 3000; ++now) {
      if (now == 100 || now == 700 || now == 701 || now == 1500) {
        for (std::uint32_t p = 0; p < 3; ++p) {
          for (std::uint32_t k = 0; k < 4; ++k) {
            const Cycle ready = now + 5 + 3 * k + p;
            sw.enqueue(p, {ready, (p + k) % 2, 64, now * 100 + p * 10 + k});
            wake = std::min(wake, ready);
          }
        }
      }
      if (!every_cycle && now < wake) continue;
      wake = sw.tick(
          now, [](const FabricMsg& m) { return m.dest; },
          [](std::uint32_t) { return true; },
          [&got](std::uint32_t out, const FabricMsg& m, Cycle at) {
            got.push_back({out, m.payload, at});
          });
    }
    std::vector<link::DirectionStats> egress;
    for (std::uint32_t o = 0; o < sw.out_ports(); ++o) egress.push_back(sw.egress(o).stats());
    return egress;
  };
  std::vector<Forward> sparse, dense;
  const auto sparse_stats = drive(/*every_cycle=*/false, sparse);
  const auto dense_stats = drive(/*every_cycle=*/true, dense);
  EXPECT_EQ(sparse.size(), 48u);
  EXPECT_EQ(sparse, dense);
  ASSERT_EQ(sparse_stats.size(), dense_stats.size());
  for (std::size_t o = 0; o < sparse_stats.size(); ++o) {
    EXPECT_EQ(sparse_stats[o].messages, dense_stats[o].messages);
    EXPECT_EQ(sparse_stats[o].bytes, dense_stats[o].bytes);
    EXPECT_EQ(sparse_stats[o].busy_cycles, dense_stats[o].busy_cycles);
    EXPECT_EQ(sparse_stats[o].queue_delay_sum, dense_stats[o].queue_delay_sum);
  }
}

TEST(Switch, CachedHeadBoundMatchesFreshMinimumUnderRandomTraffic) {
  // Seeded interleaving of enqueues (onto empty and non-empty ports, with
  // random arrival cycles) and ticks under random downstream readiness and
  // a tight egress backlog. After every operation the O(1) head bound must
  // equal a fresh minimum over the ingress fronts, and every tick must
  // return the wake that bound implies.
  constexpr std::uint32_t kIn = 4, kOut = 3;
  Rng rng(2024);
  Switch sw(kIn, kOut, /*goodput=*/26.0, /*fixed=*/10, /*backlog=*/12, /*depth=*/6);
  std::vector<std::uint32_t> occupancy(kIn, 0);
  std::uint64_t fills_empty = 0, fills_busy = 0, forwarded = 0;
  Cycle now = 0;
  for (int op = 0; op < 20000; ++op) {
    if (rng.chance(0.4)) {
      const auto p = static_cast<std::uint32_t>(rng.next_below(kIn));
      if (!sw.can_enqueue(p)) continue;
      ++(occupancy[p] == 0 ? fills_empty : fills_busy);
      ++occupancy[p];
      sw.enqueue(p, {now + rng.next_below(40), static_cast<std::uint32_t>(rng.next_below(kOut)),
                     64, p});
    } else {
      const Cycle wake = sw.tick(
          now, [](const FabricMsg& m) { return m.dest; },
          [&rng](std::uint32_t) { return rng.chance(0.6); },
          [&](std::uint32_t, const FabricMsg& m, Cycle) {
            --occupancy[m.payload];
            ++forwarded;
          });
      ASSERT_EQ(wake, std::max(sw.earliest_head(), now + 1)) << "op " << op;
      now += rng.next_below(8);
    }
    ASSERT_EQ(sw.check_head(), "") << "op " << op;
  }
  EXPECT_GT(fills_empty, 1000u);
  EXPECT_GT(fills_busy, 1000u);
  EXPECT_GT(forwarded, 1000u);
}

// ------------------------------------------------- latency additivity

/// Tick the fabric every cycle until `out` has a delivery; returns it.
Delivery run_until_delivery(Fabric& f, std::vector<Delivery>& out, Cycle start) {
  for (Cycle now = start; now < start + 100000; ++now) {
    f.tick(now);
    if (!out.empty()) {
      const Delivery d = out.front();
      out.clear();
      return d;
    }
  }
  ADD_FAILURE() << "no delivery";
  return {};
}

TEST(Fabric, OneSwitchPathAddsTwoPortTraversalsPlusReserialisation) {
  // Unloaded 1-switch latency = direct + 2 switch-port traversals + one
  // store-and-forward re-serialisation (the switch must receive the whole
  // message before it re-serialises it onto the next segment).
  const link::LaneConfig lanes = link::LaneConfig::x8();
  const Cycle S = FabricConfig().switch_port_cycles();

  Fabric direct(FabricConfig::direct(), 1, lanes);
  Fabric star(FabricConfig::star(1, 1), 1, lanes);

  const Cycle t0 = 1000;
  direct.post_tx(0, link::kReadRequestBytes, t0, 0);
  const Cycle direct_arrival =
      run_until_delivery(direct, direct.tx_deliveries(), t0).arrival;
  const Cycle ser = serialization_cycles(lanes.tx_goodput_gbps, link::kReadRequestBytes);
  EXPECT_EQ(direct_arrival, t0 + ser + 2 * lanes.port_latency_cycles());

  star.post_tx(0, link::kReadRequestBytes, t0, 7);
  const Delivery d = run_until_delivery(star, star.tx_deliveries(), t0);
  EXPECT_EQ(d.payload, 7u);
  EXPECT_EQ(d.arrival, direct_arrival + 2 * S + ser);

  // The advertised unloaded latencies agree with the measured path.
  EXPECT_EQ(star.unloaded_tx_cycles(link::kReadRequestBytes),
            direct.unloaded_tx_cycles(link::kReadRequestBytes) + 2 * S + ser);
  EXPECT_EQ(d.arrival, t0 + star.unloaded_tx_cycles(link::kReadRequestBytes));
}

TEST(Fabric, TwoLevelPathAddsOneMoreHopExactly) {
  const link::LaneConfig lanes = link::LaneConfig::x8();
  const Cycle S = FabricConfig().switch_port_cycles();
  const Cycle ser = serialization_cycles(lanes.rx_goodput_gbps, link::kReadResponseBytes);

  Fabric star(FabricConfig::star(2, 1), 2, lanes);
  Fabric tree(FabricConfig::tree(2, 1, 2), 2, lanes);

  const Cycle t0 = 500;
  star.post_rx(0, link::kReadResponseBytes, t0, 1);
  tree.post_rx(0, link::kReadResponseBytes, t0, 1);
  const Cycle star_arrival = run_until_delivery(star, star.rx_deliveries(), t0).arrival;
  const Cycle tree_arrival = run_until_delivery(tree, tree.rx_deliveries(), t0).arrival;
  EXPECT_EQ(tree_arrival, star_arrival + 2 * S + ser);
  EXPECT_EQ(star_arrival, t0 + star.unloaded_rx_cycles(link::kReadResponseBytes));
  EXPECT_EQ(tree_arrival, t0 + tree.unloaded_rx_cycles(link::kReadResponseBytes));
}

TEST(CxlMemoryFabric, UnloadedReadLatencyIsDirectPlusHopPremiums) {
  // End-to-end through CxlMemory: a single unloaded read over a 1-device
  // star must complete exactly (ser_tx + 2S) + (ser_rx + 2S) cycles after
  // the equivalent direct read.
  const link::LaneConfig lanes = link::LaneConfig::x8();
  const Cycle S = FabricConfig().switch_port_cycles();
  const Cycle ser_tx = serialization_cycles(lanes.tx_goodput_gbps, link::kReadRequestBytes);
  const Cycle ser_rx = serialization_cycles(lanes.rx_goodput_gbps, link::kReadResponseBytes);

  const auto run_one = [&](const FabricConfig& fab) {
    mem::CxlMemory m(fab, 1, 1, lanes);
    m.access(0, false, 10, 1);
    for (Cycle now = 10; now < 5000; ++now) {
      m.tick(now);
      for (const auto& comp : m.completions()) {
        if (comp.token == 1) return comp.done;
      }
      m.completions().clear();
    }
    return kNoCycle;
  };

  const Cycle direct_done = run_one(FabricConfig::direct());
  const Cycle star_done = run_one(FabricConfig::star(1, 1));
  ASSERT_NE(direct_done, kNoCycle);
  ASSERT_NE(star_done, kNoCycle);
  EXPECT_EQ(star_done, direct_done + (ser_tx + 2 * S) + (ser_rx + 2 * S));

  mem::CxlMemory direct_mem(FabricConfig::direct(), 1, 1, lanes);
  mem::CxlMemory star_mem(FabricConfig::star(1, 1), 1, 1, lanes);
  EXPECT_EQ(star_mem.read_interface_cycles(),
            direct_mem.read_interface_cycles() + ser_tx + ser_rx + 4 * S);
}

// ----------------------------------------------- end-to-end + determinism

TEST(CxlMemoryFabric, RandomReadsCompleteAcrossStarAndTree) {
  for (const auto& fab : {FabricConfig::star(8, 4), FabricConfig::tree(8, 4, 2)}) {
    mem::CxlMemory m(fab, 4, 1, link::LaneConfig::x8());
    EXPECT_EQ(m.devices(), 8u);
    EXPECT_EQ(m.ports(), 4u);
    EXPECT_EQ(m.subchannels(), 16u);
    std::uint64_t issued = 0, completed = 0;
    Addr line = 0;
    for (Cycle now = 10; now < 60000; ++now) {
      if (issued < 200 && m.can_accept(line, false, now)) {
        m.access(line, false, now, issued);
        ++issued;
        line += 37;  // Co-prime stride, touches every device.
      }
      m.tick(now);
      completed += m.completions().size();
      m.completions().clear();
    }
    EXPECT_EQ(issued, 200u);
    EXPECT_EQ(completed, 200u);
    EXPECT_EQ(m.snapshot().reads, 200u);
  }
}

TEST(CxlMemoryFabric, PortOfFollowsRouterAndRootAssignment) {
  FabricConfig fab = FabricConfig::star(8, 4);
  fab.interleave = Interleave::kPage;
  fab.page_lines = 4;
  mem::CxlMemory m(fab, 4, 1, link::LaneConfig::x8());
  // Page p lands on device p%8, which enters through root port (p%8)%4.
  for (Addr line = 0; line < 64; ++line) {
    EXPECT_EQ(m.port_of(line), ((line / 4) % 8) % 4) << "line " << line;
  }
}

std::string run_star_system(const std::string& wl) {
  sys::SystemConfig cfg = sys::coaxial_star(8, 4);
  std::vector<workload::WorkloadParams> per_core(cfg.uarch.cores,
                                                 workload::find_workload(wl));
  sim::System s(cfg, per_core, /*seed=*/13);
  s.run(/*warmup_instr=*/300, /*measure_instr=*/1500);
  return obs::json::snapshot_to_json(s.metrics().snapshot());
}

TEST(CxlMemoryFabric, FabricMetricsAreByteIdenticalAcrossRuns) {
  // Round-robin arbitration is deterministic: identical seeds must produce
  // identical documents, including every fabric/* subtree, byte for byte.
  const std::string a = run_star_system("lbm");
  const std::string b = run_star_system("lbm");
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"fabric\""), std::string::npos);
  EXPECT_NE(a.find("\"sw00\""), std::string::npos);
  // Switched topologies must not register the direct-link metric paths.
  EXPECT_EQ(a.find("cxl/link"), std::string::npos);
}

}  // namespace
}  // namespace coaxial::fabric
