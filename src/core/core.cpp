#include "core/core.hpp"

#include <algorithm>

#include "obs/profiler.hpp"

namespace coaxial::core {

namespace {
/// Max stalled issues replayed per cycle: bounds both issue bandwidth to the
/// L1 and per-cycle simulation work.
constexpr std::size_t kReplayWidth = 2;
}  // namespace

Core::Core(std::uint32_t id, const sys::MicroarchConfig& cfg,
           std::unique_ptr<workload::InstrSource> source, double max_ipc)
    : id_(id),
      cfg_(cfg),
      max_ipc_(max_ipc),
      source_(std::move(source)),
      rob_(cfg.rob_entries) {}

Core::Core(std::uint32_t id, const sys::MicroarchConfig& cfg, workload::Generator generator)
    : id_(id),
      cfg_(cfg),
      max_ipc_(generator.params().max_ipc),  // Read before the move below.
      source_(std::make_unique<workload::GeneratorSource>(std::move(generator))),
      rob_(cfg.rob_entries) {}

void Core::tick(Cycle now, MemoryPort& port) {
  COAXIAL_PROF_SCOPE(kCoreTick);
  // Cycles the scheduler skipped still accrue fetch credit. Replay the
  // per-cycle accumulation (rather than multiplying) because repeated FP
  // adds are order-dependent and the bucket must stay bit-identical to a
  // tick-every-cycle run; once the bucket is full, further adds are no-ops.
  const double cap = static_cast<double>(cfg_.fetch_width) * 2.0;
  for (Cycle gap = now - last_tick_; gap > 1 && fetch_credit_ < cap; --gap) {
    fetch_credit_ = std::min(fetch_credit_ + max_ipc_, cap);
  }
  last_tick_ = now;
  retire(now);
  replay(now, port);
  fetch(now, port);
}

Cycle Core::next_wake(Cycle now) const {
  Cycle wake = kNoCycle;
  // Retirement: the head's completion cycle is known (pending loads keep
  // done_cycle == kNoCycle; on_load_complete re-arms the wake instead).
  if (rob_count_ > 0) {
    const Cycle done = rob_[rob_head_].done_cycle;
    if (done != kNoCycle) wake = std::min(wake, std::max(done, now + 1));
  }
  // Stalled issue stream: the front entry gates everything behind it.
  if (!pending_.empty()) {
    const PendingIssue& p = pending_.front();
    const RobEntry& dep = rob_[p.dep_slot == kNoSlot ? 0 : p.dep_slot];
    const bool dep_live = p.dep_slot != kNoSlot && dep.seq == p.dep_seq;
    if (dep_live && dep.done_cycle == kNoCycle) {
      // Producer still in flight: on_load_complete re-arms the wake.
    } else if (dep_live && dep.done_cycle > now) {
      wake = std::min(wake, dep.done_cycle);
    } else if (p.is_store && store_buffer_used_ >= cfg_.store_buffer) {
      // Store buffer full: on_store_complete re-arms the wake.
    } else {
      wake = std::min(wake, now + 1);  // Issueable (or retrying) next cycle.
    }
  }
  // Fetch: count credit-accrual cycles until the bucket reaches one token.
  // The same min(add, cap) sequence is replayed by tick()'s catch-up, so
  // waking exactly then reproduces the bucket bit-for-bit.
  if (max_ipc_ > 0 && !rob_full() && pending_.size() < kPendingBound) {
    const double cap = static_cast<double>(cfg_.fetch_width) * 2.0;
    double credit = fetch_credit_;
    Cycle k = 0;
    do {
      credit = std::min(credit + max_ipc_, cap);
      ++k;
    } while (credit < 1.0 && k < 64);
    wake = std::min(wake, now + k);
  }
  return wake;
}

void Core::retire(Cycle now) {
  for (std::uint32_t i = 0; i < cfg_.retire_width; ++i) {
    if (rob_count_ == 0) return;
    RobEntry& head = rob_[rob_head_];
    if (head.done_cycle == kNoCycle || head.done_cycle > now) return;
    if (++rob_head_ == cfg_.rob_entries) rob_head_ = 0;
    --rob_count_;
    ++retired_;
  }
}

bool Core::dep_satisfied(const PendingIssue& p, Cycle now) const {
  if (p.dep_slot == kNoSlot) return true;
  const RobEntry& dep = rob_[p.dep_slot];
  if (dep.seq != p.dep_seq) return true;  // Producer already retired.
  return dep.done_cycle != kNoCycle && dep.done_cycle <= now;
}

void Core::replay(Cycle now, MemoryPort& port) {
  std::size_t issued = 0;
  std::size_t inspected = 0;
  const std::size_t limit = pending_.size();
  while (issued < kReplayWidth && inspected < limit && !pending_.empty()) {
    PendingIssue p = pending_.front();
    ++inspected;
    if (!dep_satisfied(p, now)) break;  // In-order issue of the stalled stream.
    if (p.is_store) {
      if (store_buffer_used_ >= cfg_.store_buffer) break;
      const IssueResult r =
          port.issue_store(id_, p.addr, p.pc, make_store_waiter(id_), now);
      if (r == IssueResult::kRetry) break;
      if (r == IssueResult::kAccepted) ++store_buffer_used_;
      pending_.pop_front();
      ++issued;
    } else {
      const IssueResult r = port.issue_load(
          id_, p.addr, p.pc, make_load_waiter(id_, p.rob_slot), now);
      if (r == IssueResult::kRetry) break;
      if (r == IssueResult::kHitL1) {
        rob_[p.rob_slot].done_cycle = now + cfg_.l1_latency;
      }
      pending_.pop_front();
      ++issued;
    }
  }
}

const workload::Instr& Core::next_instr() {
  if (instr_buf_pos_ == instr_buf_len_) {
    COAXIAL_PROF_SCOPE(kWorkloadGen);
    instr_buf_len_ = source_->next_batch(instr_buf_, kInstrBufCap);
    instr_buf_pos_ = 0;
    if (instr_buf_len_ == 0) {  // Defensive: sources are infinite today.
      instr_buf_[0] = workload::Instr{};
      instr_buf_len_ = 1;
    }
  }
  return instr_buf_[instr_buf_pos_++];
}

void Core::fetch(Cycle now, MemoryPort& port) {
  fetch_credit_ = std::min(fetch_credit_ + max_ipc_,
                           static_cast<double>(cfg_.fetch_width) * 2.0);
  std::uint32_t fetched = 0;
  while (fetched < cfg_.fetch_width && fetch_credit_ >= 1.0 && !rob_full() &&
         pending_.size() < kPendingBound) {
    const workload::Instr& ins = next_instr();
    const std::uint32_t slot = rob_tail_;
    if (++rob_tail_ == cfg_.rob_entries) rob_tail_ = 0;
    ++rob_count_;
    rob_[slot].seq = next_seq_++;
    fetch_credit_ -= 1.0;
    ++fetched;

    switch (ins.kind) {
      case workload::InstrKind::kAlu:
        rob_[slot].done_cycle = now + 1;
        break;
      case workload::InstrKind::kStore: {
        // Stores complete architecturally at once; the write (and RFO on
        // miss) proceeds in the background via the store buffer.
        rob_[slot].done_cycle = now + 1;
        PendingIssue p;
        p.addr = ins.addr;
        p.pc = ins.pc;
        p.rob_slot = slot;
        p.is_store = true;
        pending_.push_back(p);
        break;
      }
      case workload::InstrKind::kLoad: {
        rob_[slot].done_cycle = kNoCycle;
        PendingIssue p;
        p.addr = ins.addr;
        p.pc = ins.pc;
        p.rob_slot = slot;
        if (ins.depends_on_prev_load && last_load_slot_ != kNoSlot) {
          p.dep_slot = last_load_slot_;
          p.dep_seq = last_load_seq_;
        }
        last_load_slot_ = slot;
        last_load_seq_ = rob_[slot].seq;
        // Try to issue immediately if nothing is queued ahead of it.
        if (pending_.empty() && dep_satisfied(p, now)) {
          const IssueResult r =
              port.issue_load(id_, p.addr, p.pc, make_load_waiter(id_, slot), now);
          if (r == IssueResult::kHitL1) {
            rob_[slot].done_cycle = now + cfg_.l1_latency;
          } else if (r == IssueResult::kRetry) {
            pending_.push_back(p);
          }
        } else {
          pending_.push_back(p);
        }
        break;
      }
    }
  }
}

void Core::on_load_complete(std::uint64_t waiter, Cycle now) {
  const std::uint32_t slot = waiter_slot(waiter);
  rob_[slot].done_cycle = now;
}

void Core::on_store_complete(Cycle /*now*/) {
  if (store_buffer_used_ > 0) --store_buffer_used_;
}

}  // namespace coaxial::core
