// One directional plane of a CXL switch.
//
// A physical switch carries two independent directional planes (host->device
// "down" and device->host "up"); fabric::Fabric instantiates one Switch per
// plane. Each plane has per-input-port FIFO ingress queues (bounded message
// count) feeding per-output-port store-and-forward egress pipes that reuse
// the LaneConfig goodput math via link::SerialPipe. Arbitration across
// input ports contending for the same egress is deterministic round-robin:
// the per-egress cursor advances past each forwarded port, so the order is
// a pure function of prior traffic — no host state, no randomness.
//
// Wake-bound contract (same as CxlLink/dram::Controller): tick() returns a
// conservative lower bound on the next cycle any queued message could move,
// so the event-driven scheduler can skip the cycles in between and stay
// byte-identical with lockstep ticking (RunRequest::tick_every_cycle).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "link/serial_pipe.hpp"
#include "obs/metrics.hpp"
#include "ras/fault_plan.hpp"

namespace coaxial::fabric {

/// One message traversing the fabric. `ready` is the cycle the message has
/// fully arrived at the current node; `payload` is an opaque caller cookie
/// carried end to end.
struct FabricMsg {
  Cycle ready = 0;
  std::uint32_t dest = 0;  ///< Destination device id.
  std::uint32_t bytes = 0;
  std::uint64_t payload = 0;
  bool poisoned = false;   ///< Sticky: set by any faulting segment en route.
};

class Switch {
 public:
  /// `scope`, when valid, registers per-ingress-port queue counters under
  /// `inNN/` and per-egress-port pipe traffic under `outNN/`. `name` is the
  /// switch plane's canonical identity (e.g. "fabric/sw00/down") used for
  /// fault-stream keying and timing-abort diagnostics; it defaults to the
  /// scope prefix, or "switch" when that is empty.
  Switch(std::uint32_t in_ports, std::uint32_t out_ports, double egress_goodput_gbps,
         Cycle egress_fixed_latency, Cycle egress_max_backlog,
         std::uint32_t queue_depth, obs::Scope scope = {}, std::string name = {})
      : in_ports_(in_ports), out_ports_(out_ports), queue_depth_(queue_depth),
        in_q_(in_ports), enqueued_(in_ports, 0), queue_high_water_(in_ports, 0),
        rr_(out_ports, 0) {
    if (name.empty()) name = scope.prefix().empty() ? "switch" : scope.prefix();
    pipes_.reserve(out_ports);
    for (std::uint32_t o = 0; o < out_ports; ++o) {
      pipes_.emplace_back(egress_goodput_gbps, egress_fixed_latency, egress_max_backlog,
                          name + "/out" + obs::idx(o));
    }
    if (scope.valid()) {
      for (std::uint32_t p = 0; p < in_ports_; ++p) {
        const obs::Scope in = scope.sub("in" + obs::idx(p));
        in.expose_counter("enqueued", [this, p] { return enqueued_[p]; });
        in.expose_counter("queue_high_water", [this, p] { return queue_high_water_[p]; });
      }
      for (std::uint32_t o = 0; o < out_ports_; ++o) {
        pipes_[o].register_stats(scope.sub("out" + obs::idx(o)));
      }
    }
  }

  std::uint32_t in_ports() const { return in_ports_; }
  std::uint32_t out_ports() const { return out_ports_; }

  /// Arm deterministic fault injection on every egress pipe (no-op for a
  /// plan without link faults).
  void arm_faults(const ras::FaultPlan& plan) {
    for (link::SerialPipe& p : pipes_) p.arm_faults(plan);
  }

  /// True if ingress port `p` has room for another message. Occupancy
  /// counts in-flight messages (enqueued with a future `ready`), so the
  /// bound caps buffering plus wire, like the device ingress queues.
  bool can_enqueue(std::uint32_t p) const { return in_q_[p].size() < queue_depth_; }

  void enqueue(std::uint32_t p, const FabricMsg& msg) {
    // Only a message that becomes a front can lower the head bound.
    if (in_q_[p].empty() && msg.ready < head_) head_ = msg.ready;
    in_q_[p].push_back(msg);
    ++enqueued_[p];
    if (in_q_[p].size() > queue_high_water_[p]) {
      queue_high_water_[p] = in_q_[p].size();
    }
  }

  const link::SerialPipe& egress(std::uint32_t o) const { return pipes_[o]; }

  /// Messages buffered over every ingress port (in flight toward one
  /// included).
  std::size_t queued() const {
    std::size_t n = 0;
    for (const std::deque<FabricMsg>& q : in_q_) n += q.size();
    return n;
  }

  /// Earliest arrival over the ingress heads (kNoCycle when every queue is
  /// empty). Only a head can move, so this bounds the plane's next forward.
  /// O(1): enqueue() lowers the cached bound when it fills an empty queue,
  /// and tick() recomputes it in its pass over the fronts.
  Cycle earliest_head() const { return head_; }

  /// Test hook: audits the cached head bound against a fresh minimum over
  /// the ingress fronts. Returns "" when they agree, else the mismatch.
  std::string check_head() const {
    Cycle fresh = kNoCycle;
    for (const std::deque<FabricMsg>& q : in_q_) {
      if (!q.empty() && q.front().ready < fresh) fresh = q.front().ready;
    }
    if (fresh == head_) return "";
    return "head bound " + std::to_string(head_) + ", fresh minimum " +
           std::to_string(fresh);
  }

  /// Forward ready ingress heads through their egress pipes.
  /// `out_port_of(msg)` maps a message to its egress port;
  /// `downstream_ready(out)` gates on room at the next hop;
  /// `deliver(out, msg, arrival)` consumes the forwarded message. Each
  /// egress keeps forwarding while it has serialisation credit and the
  /// downstream hop has room; a head parked for a different egress never
  /// blocks this one, but does block later messages on its own input port
  /// (input-queued head-of-line blocking). Returns a conservative wake
  /// bound over all still-queued messages.
  ///
  /// Idle contract: while no head has arrived (earliest_head() > now), a
  /// tick forwards nothing, mutates nothing and returns earliest_head() —
  /// so it returns that after one O(1) read of the cached bound, and idle
  /// ticks interleaved with traffic never perturb arbitration.
  template <class OutPortOf, class DownstreamReady, class Deliver>
  Cycle tick(Cycle now, OutPortOf&& out_port_of, DownstreamReady&& downstream_ready,
             Deliver&& deliver) {
    if (head_ > now) return head_;
    for (std::uint32_t out = 0; out < out_ports_; ++out) {
      bool open = pipes_[out].can_send(now) && downstream_ready(out);
      bool progress = true;
      while (open && progress) {
        progress = false;
        std::uint32_t p = rr_[out];
        for (std::uint32_t k = 0; k < in_ports_; ++k, p = next_port(p)) {
          std::deque<FabricMsg>& q = in_q_[p];
          if (q.empty() || q.front().ready > now || out_port_of(q.front()) != out) {
            continue;
          }
          FabricMsg msg = q.front();
          q.pop_front();
          const link::SendResult res = pipes_[out].send(msg.bytes, now);
          msg.poisoned = msg.poisoned || res.poisoned;
          deliver(out, msg, res.at);
          rr_[out] = next_port(p);
          progress = true;
          break;
        }
        if (progress) open = pipes_[out].can_send(now) && downstream_ready(out);
      }
    }
    // Recompute the head bound over the fronts forwarding left. Conservative
    // wake: a future head wakes at its arrival; a ready head that could not
    // move (egress backlog or downstream full) retries next cycle — the
    // blocking state may change at any downstream drain.
    head_ = kNoCycle;
    for (const std::deque<FabricMsg>& q : in_q_) {
      if (!q.empty() && q.front().ready < head_) head_ = q.front().ready;
    }
    return std::max(head_, now + 1);
  }

  void reset_stats() {
    for (link::SerialPipe& p : pipes_) p.reset_stats();
    enqueued_.assign(in_ports_, 0);
    queue_high_water_.assign(in_ports_, 0);
  }

  /// RAS events across all egress pipes (all-zero when faults are unarmed).
  ras::RasCounters ras_counters() const {
    ras::RasCounters c;
    for (const link::SerialPipe& p : pipes_)
      if (const ras::RasCounters* r = p.ras()) c += *r;
    return c;
  }

  /// Sum of egress-pipe protocol violations (always zero when the fabric
  /// gates on can_send/can_enqueue).
  std::uint64_t violations() const {
    std::uint64_t n = 0;
    for (const link::SerialPipe& p : pipes_) n += p.violations();
    return n;
  }

 private:
  std::uint32_t next_port(std::uint32_t p) const { return p + 1 == in_ports_ ? 0 : p + 1; }

  std::uint32_t in_ports_;
  std::uint32_t out_ports_;
  std::size_t queue_depth_;
  std::vector<std::deque<FabricMsg>> in_q_;
  std::vector<std::uint64_t> enqueued_;
  std::vector<std::size_t> queue_high_water_;
  std::vector<std::uint32_t> rr_;  ///< Per-egress round-robin cursor.
  std::vector<link::SerialPipe> pipes_;
  Cycle head_ = kNoCycle;  ///< Minimum `ready` over the ingress fronts.
};

}  // namespace coaxial::fabric
