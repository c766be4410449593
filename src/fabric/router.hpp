// Cross-device address interleaving (fabric routing function).
//
// Maps a physical line address to (device, global sub-channel, device-local
// line) under a pluggable policy. Within a device, lines always stripe
// across its sub-channels at line granularity; the policy decides how the
// global address space is distributed across devices:
//
//   kLine        lines stripe across ALL sub-channels of all devices —
//                bit-identical to the legacy one-link-per-device wiring.
//   kPage        fixed-size pages (default 4 KiB) round-robin across
//                devices, keeping spatial locality device-local.
//   kContiguous  large contiguous extents per device (capacity-mode NUMA
//                placement), round-robin at extent granularity.
//
// The Router is stage 2 of the two-stage translation (DESIGN.md §10):
// stage 1 (placement::AddressMap) picks a tier, and each memory system's
// Router spreads the tier-local address space across its devices.
#pragma once

#include "common/units.hpp"
#include "fabric/topology.hpp"

namespace coaxial::fabric {

class Router {
 public:
  struct Route {
    std::uint32_t device = 0;
    std::uint32_t sub = 0;  ///< Global sub-channel index (device-major).
    Addr local = 0;         ///< Line index local to the sub-channel.
  };

  Router(Interleave policy, std::uint32_t devices, std::uint32_t subs_per_device,
         std::uint32_t page_lines, std::uint64_t contiguous_lines)
      : policy_(policy), devices_(devices), spd_(subs_per_device),
        n_sub_(devices * subs_per_device),
        page_lines_(page_lines == 0 ? 1 : page_lines),
        contiguous_lines_(contiguous_lines == 0 ? 1 : contiguous_lines) {}

  Route route(Addr line) const {
    switch (policy_) {
      case Interleave::kPage:
        return split(line / page_lines_, line % page_lines_, page_lines_);
      case Interleave::kContiguous:
        return split(line / contiguous_lines_, line % contiguous_lines_,
                     contiguous_lines_);
      case Interleave::kLine:
      default: {
        // Legacy striping: the device owns a contiguous run of the global
        // sub-channel index space.
        const std::uint32_t sub = static_cast<std::uint32_t>(line % n_sub_);
        return {sub / spd_, sub, line / n_sub_};
      }
    }
  }

  std::uint32_t device_of(Addr line) const { return route(line).device; }
  Interleave policy() const { return policy_; }

 private:
  /// Common round-robin-at-`grain` split: block index chooses the device;
  /// the device-local flat line then stripes across its sub-channels.
  Route split(Addr block, Addr offset, Addr grain) const {
    const std::uint32_t dev = static_cast<std::uint32_t>(block % devices_);
    const Addr local_flat = (block / devices_) * grain + offset;
    return {dev, dev * spd_ + static_cast<std::uint32_t>(local_flat % spd_),
            local_flat / spd_};
  }

  Interleave policy_;
  std::uint32_t devices_;
  std::uint32_t spd_;
  std::uint64_t n_sub_;
  Addr page_lines_;
  Addr contiguous_lines_;
};

}  // namespace coaxial::fabric
