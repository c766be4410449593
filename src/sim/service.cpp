#include "sim/service.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/validate.hpp"

namespace coaxial::sim {

void ServiceConfig::validate() const {
  constexpr const char* kOwner = "sim::ServiceConfig";
  validate::require_nonzero(kOwner, "measure_cycles", measure_cycles);
  validate::require_nonzero(kOwner, "hist_bucket_cycles", hist_bucket_cycles);
  validate::require_nonzero(kOwner, "hist_buckets", hist_buckets);
  if (regulate) {
    validate::require_positive(kOwner, "reg_fraction", reg_fraction);
    validate::require_nonzero(kOwner, "reg_burst_cycles", reg_burst_cycles);
  }
  for (const ServiceTenant& t : tenants) {
    t.arrival.validate();
    for (const SloTarget& s : t.slo) {
      validate::require_in_range(kOwner, "slo.quantile", s.quantile, 0.0, 1.0);
      validate::require_positive(kOwner, "slo.target_ns", s.target_ns);
    }
  }
}

ServiceDriver::ServiceDriver(const sys::SystemConfig& cfg, const ServiceConfig& svc,
                             std::uint64_t seed)
    : cfg_(cfg),
      svc_(svc),
      seed_(seed),
      all_lat_(svc.hist_bucket_cycles, svc.hist_buckets) {
  svc_.validate();
  if (!svc_.enabled()) {
    throw std::invalid_argument("ServiceDriver needs at least one tenant");
  }
  horizon_ = svc_.warmup_cycles + svc_.measure_cycles;

  memory_ = cfg_.make_memory(obs::Scope(&metrics_, "mem"));

  const double peak_bpc = bytes_per_cycle(memory_->peak_gbps());
  const std::uint32_t n = static_cast<std::uint32_t>(svc_.tenants.size());
  if (svc_.regulate) {
    regulator_ = std::make_unique<calm::BandwidthRegulator>(
        peak_bpc, n, svc_.reg_fraction, svc_.reg_burst_cycles);
  }

  tenants_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TenantState& t = tenants_.emplace_back(svc_.hist_bucket_cycles, svc_.hist_buckets);
    const workload::ArrivalConfig& a = svc_.tenants[i].arrival;
    const double rate = a.offered_load * peak_bpc / kLineBytes;
    t.gen = std::make_unique<workload::ArrivalGenerator>(a, rate, i, seed_);
    t.next = t.gen->next();
    t.exhausted = t.next.at >= horizon_;
  }

  register_metrics();
}

void ServiceDriver::register_metrics() {
  // Everything lives under svc/*, behind the shared feature-gated Scope
  // (obs::Scope::sub(name, enabled)); the subtree exists only when an
  // open-loop config was supplied, which is what keeps the closed-loop
  // golden stats tree byte-identical (the golden-inertness test).
  const obs::Scope svc = obs::Scope(&metrics_, "").sub("svc", svc_.enabled());
  svc.expose_counter("horizon_cycles", [this] { return horizon_; });
  svc.expose_counter("warmup_cycles", [this] { return svc_.warmup_cycles; });
  svc.expose_counter("tenants", [this] {
    return static_cast<std::uint64_t>(tenants_.size());
  });

  auto sum = [this](std::uint64_t TenantState::* field) {
    std::uint64_t v = 0;
    for (const TenantState& t : tenants_) v += t.*field;
    return v;
  };
  const obs::Scope all = svc.sub("all");
  all.expose_counter("generated", [sum] { return sum(&TenantState::generated); });
  all.expose_counter("admitted", [sum] { return sum(&TenantState::admitted); });
  all.expose_counter("completed", [sum] { return sum(&TenantState::completed); });
  all.expose_counter("reg_stall_cycles",
                     [sum] { return sum(&TenantState::reg_stall_cycles); });
  all.expose_counter("bp_stall_cycles",
                     [sum] { return sum(&TenantState::bp_stall_cycles); });
  all.expose_counter("backlog_at_end", [this] {
    std::uint64_t v = 0;
    for (const TenantState& t : tenants_) v += t.queue.size();
    return v;
  });
  all.expose_fixed_histogram("lat", all_lat_);

  for (std::uint32_t i = 0; i < tenants_.size(); ++i) {
    // tenants_ is fully built before this loop and never resized after, so
    // the captured element pointers stay valid for the registry's lifetime.
    const TenantState* t = &tenants_[i];
    const obs::Scope tn = svc.sub("tenant/" + obs::idx(i));
    tn.expose_counter("generated", [t] { return t->generated; });
    tn.expose_counter("admitted", [t] { return t->admitted; });
    tn.expose_counter("reads", [t] { return t->reads; });
    tn.expose_counter("writes", [t] { return t->writes; });
    tn.expose_counter("completed", [t] { return t->completed; });
    tn.expose_counter("reg_stall_cycles", [t] { return t->reg_stall_cycles; });
    tn.expose_counter("bp_stall_cycles", [t] { return t->bp_stall_cycles; });
    tn.expose_counter("backlog_at_end", [t] {
      return static_cast<std::uint64_t>(t->queue.size());
    });
    tn.expose_fixed_histogram("lat", t->lat);
  }
}

void ServiceDriver::step(Cycle now) {
  // Phase 1: move due arrivals into the per-tenant injection queues.
  // Arrivals are generated only for cycles inside [0, horizon); the
  // pre-drawn first request at/past the horizon is discarded uncounted.
  for (TenantState& t : tenants_) {
    while (!t.exhausted && t.next.at <= now) {
      ++t.generated;
      t.queue.push_back({t.next.at, t.next.line, t.next.is_write});
      t.next = t.gen->next();
      if (t.next.at >= horizon_) t.exhausted = true;
    }
  }

  // Phase 2: admission, tenants in index order, head-of-line per tenant.
  // A blocked head charges exactly one stall cycle to whichever resource
  // denied it (regulation credit vs memory backpressure). Attempt cycles —
  // every cycle a queue is non-empty before the horizon — are identical in
  // event-driven and lockstep modes, which keeps the regulator's lazy
  // credit accrual byte-identical across modes.
  if (now < horizon_) {
    for (std::uint32_t i = 0; i < tenants_.size(); ++i) {
      TenantState& t = tenants_[i];
      while (!t.queue.empty()) {
        const Queued& head = t.queue.front();
        if (regulator_ != nullptr &&
            !regulator_->has_credit(i, kLineBytes, now)) {
          ++t.reg_stall_cycles;
          break;
        }
        if (!memory_->can_accept(head.line, head.is_write, now)) {
          ++t.bp_stall_cycles;
          break;
        }
        if (regulator_ != nullptr) regulator_->consume(i, kLineBytes, now);
        ++t.admitted;
        if (head.is_write) {
          ++t.writes;
          memory_->access(head.line, /*is_write=*/true, now, /*token=*/0);
        } else {
          ++t.reads;
          std::uint32_t slot;
          if (!free_slots_.empty()) {
            slot = free_slots_.back();
            free_slots_.pop_back();
          } else {
            slot = static_cast<std::uint32_t>(inflight_.size());
            inflight_.emplace_back();
          }
          inflight_[slot] = {i, head.at, true};
          ++inflight_count_;
          memory_->access(head.line, /*is_write=*/false, now, slot);
        }
        t.queue.pop_front();
      }
    }
  }

  // Phase 3: advance the memory system (after admission, so the wake bound
  // accounts for the accesses just issued).
  mem_wake_ = memory_->tick(now);

  // Phase 4: drain read completions. Latency is arrival-to-`done` — both
  // endpoints are mode-invariant, so the histograms never see which cycle
  // the host happened to drain on.
  auto& comps = memory_->completions();
  for (const mem::MemCompletion& c : comps) {
    Inflight& fl = inflight_[static_cast<std::size_t>(c.token)];
    TenantState& t = tenants_[fl.tenant];
    ++t.completed;
    if (fl.at >= svc_.warmup_cycles) t.lat.add(c.done - fl.at);
    fl.used = false;
    free_slots_.push_back(static_cast<std::uint32_t>(c.token));
    --inflight_count_;
  }
  comps.clear();
}

Cycle ServiceDriver::next_event_after(Cycle now) const {
  Cycle next = kNoCycle;
  for (const TenantState& t : tenants_) {
    if (!t.exhausted) next = std::min(next, t.next.at);
    // A non-empty queue retries admission every cycle until the horizon.
    if (!t.queue.empty() && now + 1 < horizon_) next = std::min(next, now + 1);
  }
  if (mem_wake_ != kNoCycle) next = std::min(next, mem_wake_);
  return next;
}

void ServiceDriver::run() {
  memory_->set_force_tick(tick_every_cycle_);

  Cycle now = 0;
  while (now < horizon_ || inflight_count_ > 0) {
    step(now);
    if (tick_every_cycle_) {
      ++now;
      continue;
    }
    const Cycle next = next_event_after(now);
    if (next == kNoCycle) {
      if (inflight_count_ > 0) {
        throw std::logic_error(
            "ServiceDriver: memory went idle with reads inflight");
      }
      if (now >= horizon_) break;
      now = horizon_;  // Nothing can happen before the horizon: idle out.
    } else {
      now = std::max(next, now + 1);
    }
  }

  // Merge order is fixed (tenant index), though any order would produce
  // identical bytes — merge is associative and commutative.
  all_lat_.reset();
  for (const TenantState& t : tenants_) all_lat_.merge(t.lat);
  evaluate_slos();

  stats_ = {};
  stats_.cycles = svc_.measure_cycles;
  for (const TenantState& t : tenants_) {
    stats_.generated += t.generated;
    stats_.admitted += t.admitted;
    stats_.completed += t.completed;
    stats_.backlog_at_end += t.queue.size();
    stats_.reg_stall_cycles += t.reg_stall_cycles;
    stats_.bp_stall_cycles += t.bp_stall_cycles;
  }
  // Offered/achieved rates are over the full arrival horizon (warmup only
  // gates what the histograms record).
  const double horizon_ns = cycles_to_ns(horizon_);
  stats_.offered_gbps = static_cast<double>(stats_.generated) * kLineBytes / horizon_ns;
  stats_.achieved_gbps = static_cast<double>(stats_.admitted) * kLineBytes / horizon_ns;
  stats_.p50_ns = cycles_to_ns(all_lat_.percentile(0.50));
  stats_.p90_ns = cycles_to_ns(all_lat_.percentile(0.90));
  stats_.p99_ns = cycles_to_ns(all_lat_.percentile(0.99));
  stats_.p999_ns = cycles_to_ns(all_lat_.percentile(0.999));
  stats_.max_ns = cycles_to_ns(all_lat_.max());
  stats_.mean_ns = all_lat_.mean() * kNsPerCycle;
  stats_.mem = memory_->snapshot();
}

void ServiceDriver::evaluate_slos() {
  slo_.clear();
  for (std::uint32_t i = 0; i < tenants_.size(); ++i) {
    const std::vector<SloTarget>& targets = svc_.tenants[i].slo;
    for (std::uint32_t j = 0; j < targets.size(); ++j) {
      SloCheck c;
      c.tenant = i;
      c.quantile = targets[j].quantile;
      c.target_ns = targets[j].target_ns;
      c.achieved_ns = cycles_to_ns(tenants_[i].lat.percentile(c.quantile));
      c.pass = c.achieved_ns <= c.target_ns;
      slo_.push_back(c);

      const std::string base =
          "svc/tenant/" + obs::idx(i) + "/slo/" + obs::idx(j);
      metrics_.gauge(base + "/quantile").set(c.quantile);
      metrics_.gauge(base + "/target_ns").set(c.target_ns);
      metrics_.gauge(base + "/achieved_ns").set(c.achieved_ns);
      metrics_.counter(base + "/pass").set(c.pass ? 1 : 0);
    }
  }
}

}  // namespace coaxial::sim
