// 2D-mesh NoC latency model (Table III: 3 cycles per hop).
//
// Twelve tiles (4 columns x 3 rows) each host a core and an LLC slice.
// Memory-controller ports sit on the mesh perimeter and are assigned
// round-robin to edge tiles. The model is latency-only: hop count is the
// Manhattan distance (XY routing); link contention is not modelled (queuing
// is captured at the memory controllers and CXL links — see DESIGN.md §5).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace coaxial::noc {

class Mesh {
 public:
  Mesh(std::uint32_t cols = 4, std::uint32_t rows = 3, Cycle cycles_per_hop = 3)
      : cols_(cols), rows_(rows), per_hop_(cycles_per_hop) {}

  std::uint32_t tiles() const { return cols_ * rows_; }

  /// Manhattan distance between two tiles under XY routing.
  std::uint32_t hops(std::uint32_t a, std::uint32_t b) const {
    const std::int32_t ax = static_cast<std::int32_t>(a % cols_);
    const std::int32_t ay = static_cast<std::int32_t>(a / cols_);
    const std::int32_t bx = static_cast<std::int32_t>(b % cols_);
    const std::int32_t by = static_cast<std::int32_t>(b / cols_);
    return static_cast<std::uint32_t>((ax > bx ? ax - bx : bx - ax) +
                                      (ay > by ? ay - by : by - ay));
  }

  Cycle latency(std::uint32_t a, std::uint32_t b) const { return per_hop_ * hops(a, b); }

  /// Home LLC slice for a line: static address-interleaved hash.
  std::uint32_t home_tile(Addr line) const {
    // Mix upper bits so strided streams spread across slices.
    const std::uint64_t h = (line ^ (line >> 7) ^ (line >> 13)) * 0x9e3779b97f4a7c15ull;
    return static_cast<std::uint32_t>(h >> 32) % tiles();
  }

  /// Tile hosting memory port `port` of `total_ports`, spread evenly over
  /// the perimeter so average core-to-MC distance is realistic.
  std::uint32_t memory_tile(std::uint32_t port, std::uint32_t total_ports) const {
    const std::vector<std::uint32_t> edge = edge_tiles();
    if (total_ports == 0) total_ports = 1;
    const std::size_t idx =
        (static_cast<std::size_t>(port) * edge.size() / total_ports) % edge.size();
    return edge[idx];
  }

  Cycle per_hop() const { return per_hop_; }

  /// Latency between the two farthest tiles.
  Cycle diameter() const { return per_hop_ * (cols_ - 1 + rows_ - 1); }

 private:
  std::vector<std::uint32_t> edge_tiles() const {
    std::vector<std::uint32_t> e;
    for (std::uint32_t t = 0; t < tiles(); ++t) {
      const std::uint32_t x = t % cols_;
      const std::uint32_t y = t / cols_;
      if (x == 0 || y == 0 || x == cols_ - 1 || y == rows_ - 1) e.push_back(t);
    }
    return e;
  }

  std::uint32_t cols_;
  std::uint32_t rows_;
  Cycle per_hop_;
};

}  // namespace coaxial::noc
