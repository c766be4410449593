// Per-bank DRAM state machine bookkeeping.
//
// Each bank tracks its open row and the earliest cycle at which each command
// class may next be issued to it. Cross-bank constraints (tRRD, tFAW, tCCD,
// bus turnaround) live in the controller, which also mirrors `open`/`row`
// into a compact per-bank open-row array for its scheduling scans.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace coaxial::dram {

struct Bank {
  bool open = false;
  std::uint32_t row = 0;

  Cycle next_act = 0;  ///< Earliest ACT (after tRP from PRE, or tRC from ACT).
  Cycle next_rd = 0;   ///< Earliest read CAS (after tRCD).
  Cycle next_wr = 0;   ///< Earliest write CAS (after tRCD).
  Cycle next_pre = 0;  ///< Earliest PRE (after tRAS / tRTP / tWR).
};

}  // namespace coaxial::dram
