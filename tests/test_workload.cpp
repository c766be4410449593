#include <map>
#include "workload/catalog.hpp"
#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace coaxial::workload {
namespace {

TEST(Catalog, HasThirtyFiveWorkloads) {
  // Table IV lists 35 workloads (the artifact appendix confirms 35).
  EXPECT_EQ(all_workloads().size(), 35u);
}

TEST(Catalog, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& w : all_workloads()) {
    EXPECT_TRUE(names.insert(w.name).second) << "duplicate " << w.name;
  }
}

TEST(Catalog, SuitesMatchPaperCounts) {
  std::map<std::string, int> counts;
  for (const auto& w : all_workloads()) ++counts[w.suite];
  EXPECT_EQ(counts["SPEC"], 12);
  EXPECT_EQ(counts["LIGRA"], 12);
  EXPECT_EQ(counts["STREAM"], 4);
  EXPECT_EQ(counts["KVS"], 2);
  EXPECT_EQ(counts["PARSEC"], 5);
}

TEST(Catalog, FindWorksAndThrows) {
  EXPECT_EQ(find_workload("lbm").name, "lbm");
  EXPECT_EQ(find_workload("stream-triad").suite, "STREAM");
  EXPECT_THROW(find_workload("no-such-workload"), std::out_of_range);
}

TEST(Catalog, MixesAreDeterministicAndSized) {
  const auto a = make_mixes(10, 12, 7);
  const auto b = make_mixes(10, 12, 7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 10u);
  for (const auto& mix : a) {
    EXPECT_EQ(mix.size(), 12u);
    for (const auto& name : mix) EXPECT_NO_THROW(find_workload(name));
  }
  EXPECT_NE(make_mixes(10, 12, 8), a);  // Different seed differs.
}

TEST(Catalog, InterleaveStressIsCatalogExternal) {
  // The fabric stress preset resolves by name but must NOT join the Table IV
  // catalog (that would perturb make_mixes sampling and the suite counts).
  const WorkloadParams& p = interleave_stress();
  EXPECT_EQ(p.name, "xdev-stride");
  EXPECT_EQ(find_workload("xdev-stride").name, p.name);
  EXPECT_EQ(all_workloads().size(), 35u);
  for (const auto& w : all_workloads()) EXPECT_NE(w.name, p.name);
  // Miss-heavy and wide: the point is many pages in flight at once.
  EXPECT_GE(p.mem_fraction, 0.05);
  EXPECT_EQ(p.streams, 16u);

  const auto mix = interleave_stress_mix(12);
  EXPECT_EQ(mix.size(), 12u);
  EXPECT_EQ(mix[0].name, "xdev-stride");
  EXPECT_EQ(mix[4].name, "xdev-stride");  // Rotation wraps every 4 cores.
  EXPECT_EQ(mix[1].name, "stream-add");
}

class PerWorkload : public ::testing::TestWithParam<std::string> {
 protected:
  const WorkloadParams& params() { return find_workload(GetParam()); }
};

TEST_P(PerWorkload, ParametersAreInValidRanges) {
  const auto& p = params();
  EXPECT_GT(p.mem_fraction, 0.0);
  EXPECT_LE(p.mem_fraction, 0.6);
  EXPECT_GE(p.store_fraction, 0.0);
  EXPECT_LE(p.store_fraction, 0.55);
  EXPECT_GE(p.seq_prob, 0.0);
  EXPECT_LE(p.seq_prob, 1.0);
  EXPECT_LE(p.p_hot + p.p_mid, 1.0);
  EXPECT_GE(p.dep_prob, 0.0);
  EXPECT_LE(p.dep_prob, 0.95);
  EXPECT_GT(p.max_ipc, 0.1);
  EXPECT_LE(p.max_ipc, 4.0);
  EXPECT_GT(p.paper_ipc, 0.0);
  EXPECT_GT(p.paper_llc_mpki, 0.0);
  EXPECT_GT(p.cold_kb, p.mid_kb);  // Cold tier must dwarf the LLC tier.
}

TEST_P(PerWorkload, GeneratorIsDeterministic) {
  Generator a(params(), 0, 42), b(params(), 0, 42);
  for (int i = 0; i < 2000; ++i) {
    const Instr x = a.next(), y = b.next();
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.addr, y.addr);
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.depends_on_prev_load, y.depends_on_prev_load);
  }
}

TEST_P(PerWorkload, MemFractionApproximatelyRealized) {
  Generator g(params(), 0, 42);
  // Burst/gap phases are thousands of instructions long; sample enough
  // phase pairs for the average to converge.
  const int n = 600000;
  int mem = 0;
  for (int i = 0; i < n; ++i) {
    if (g.next().kind != InstrKind::kAlu) ++mem;
  }
  EXPECT_NEAR(static_cast<double>(mem) / n, params().mem_fraction,
              0.12 * params().mem_fraction + 0.01);
}

TEST_P(PerWorkload, StoreFractionApproximatelyRealized) {
  Generator g(params(), 0, 42);
  int mem = 0, stores = 0;
  for (int i = 0; i < 80000; ++i) {
    const Instr ins = g.next();
    if (ins.kind == InstrKind::kAlu) continue;
    ++mem;
    if (ins.kind == InstrKind::kStore) ++stores;
  }
  ASSERT_GT(mem, 0);
  EXPECT_NEAR(static_cast<double>(stores) / mem, params().store_fraction, 0.05);
}

TEST_P(PerWorkload, AddressesStayWithinTheCoreRegion) {
  const std::uint32_t core = 3;
  const Regions r = region_layout(params(), core);
  Generator g(params(), core, 42);
  for (int i = 0; i < 20000; ++i) {
    const Instr ins = g.next();
    if (ins.kind == InstrKind::kAlu) continue;
    const bool in_hot = ins.addr >= r.hot_base && ins.addr < r.hot_base + r.hot_bytes;
    const bool in_mid = ins.addr >= r.mid_base && ins.addr < r.mid_base + r.mid_bytes;
    const bool in_cold = ins.addr >= r.cold_base && ins.addr < r.cold_base + r.cold_bytes;
    EXPECT_TRUE(in_hot || in_mid || in_cold) << "addr " << std::hex << ins.addr;
    EXPECT_EQ(ins.addr % 8, 0u);  // Word-aligned.
  }
}

TEST_P(PerWorkload, DependenciesOnlyOnLoads) {
  Generator g(params(), 0, 42);
  for (int i = 0; i < 20000; ++i) {
    const Instr ins = g.next();
    if (ins.depends_on_prev_load) {
      EXPECT_EQ(ins.kind, InstrKind::kLoad);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PerWorkload,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Generator, CoresUseDisjointRegions) {
  const auto& p = find_workload("lbm");
  const Regions a = region_layout(p, 0);
  const Regions b = region_layout(p, 1);
  EXPECT_GE(b.hot_base, a.cold_base + a.cold_bytes);
}

TEST(Generator, SequentialStreamAdvancesByWords) {
  WorkloadParams p;
  p.seq_prob = 1.0;
  p.mem_fraction = 1.0;
  p.store_fraction = 0.0;
  p.streams = 1;
  p.burstiness = 0.0;
  Generator g(p, 0, 1);
  // Note: even with mem_fraction=1, the burst machine caps the effective
  // fraction at 0.9, so skip the occasional ALU instruction.
  auto next_mem = [&] {
    for (;;) {
      const Instr ins = g.next();
      if (ins.kind != InstrKind::kAlu) return ins.addr;
    }
  };
  Addr prev = next_mem();
  for (int i = 0; i < 1000; ++i) {
    const Addr cur = next_mem();
    if (cur > prev) {
      EXPECT_EQ(cur - prev, 8u);
    }  // Else: wrapped at region end.
    prev = cur;
  }
}

TEST(Generator, HotTierIsSkewedWhenConfigured) {
  WorkloadParams p;
  p.seq_prob = 0.0;
  p.mem_fraction = 1.0;
  p.p_hot = 0.9;
  p.p_mid = 0.0;
  p.burstiness = 0.0;
  Generator g(p, 0, 1);
  const Regions r = region_layout(p, 0);
  int hot = 0, mem = 0;
  for (int i = 0; i < 40000; ++i) {
    const Instr ins = g.next();
    if (ins.kind == InstrKind::kAlu) continue;
    ++mem;
    if (ins.addr >= r.hot_base && ins.addr < r.hot_base + r.hot_bytes) ++hot;
  }
  ASSERT_GT(mem, 0);
  EXPECT_NEAR(static_cast<double>(hot) / mem, 0.9, 0.02);
}

TEST(Generator, BurstinessPreservesAverageMemFraction) {
  WorkloadParams p;
  p.mem_fraction = 0.3;
  p.burstiness = 0.9;
  Generator g(p, 0, 77);
  int mem = 0;
  const int n = 1'000'000;
  for (int i = 0; i < n; ++i) {
    if (g.next().kind != InstrKind::kAlu) ++mem;
  }
  EXPECT_NEAR(static_cast<double>(mem) / n, 0.3, 0.04);
}

TEST(Generator, DistinctSeedsGiveDistinctStreams) {
  const auto& p = find_workload("pagerank");
  Generator a(p, 0, 1), b(p, 0, 2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next().addr == b.next().addr) ++same;
  }
  EXPECT_LT(same, 900);
}

TEST(Generator, NextBatchMatchesNext) {
  // next_batch() writes in place into a reused buffer (the core's fetch
  // buffer), so every field must be overwritten; burst/gap phases flip
  // every few thousand draws, and the twins must stay in lockstep across
  // them for every chunk size.
  constexpr std::size_t kDraws = 24'000;
  for (const char* name : {"canneal", "lbm", "tiered-hotcold", "stream-copy"}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      SCOPED_TRACE(std::string(name) + " chunk " + std::to_string(chunk));
      const WorkloadParams& p = find_workload(name);
      Generator batch(p, 3, 11), single(p, 3, 11);
      std::vector<Instr> buf(chunk);
      // Poison the buffer so a field the batch path leaves unwritten shows.
      for (Instr& in : buf) {
        in.kind = InstrKind::kStore;
        in.addr = ~Addr{0};
        in.pc = ~Addr{0};
        in.depends_on_prev_load = true;
      }
      std::size_t mismatches = 0;
      for (std::size_t done = 0; done < kDraws; done += chunk) {
        ASSERT_EQ(batch.next_batch(buf.data(), chunk), chunk);
        for (std::size_t i = 0; i < chunk; ++i) {
          const Instr want = single.next();
          const Instr& got = buf[i];
          if (got.kind != want.kind || got.addr != want.addr || got.pc != want.pc ||
              got.depends_on_prev_load != want.depends_on_prev_load) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u);
    }
  }
}

}  // namespace
}  // namespace coaxial::workload
