#pragma once
// Typed indices for the STA graph arena.  Every entity the timing engine
// touches on its hot path -- gate instances (nodes), nets and levelization
// levels -- is a dense 32-bit index into contiguous per-kind arrays owned by
// sta::Netlist or its schedule.  The tag types make the three index spaces
// mutually unassignable at compile time while keeping the runtime
// representation a bare uint32_t.
//
// Strings (net and instance names) are interned exactly once, when an entity
// is added; everything after construction -- levelization, arc evaluation,
// arrival storage -- is ID-only (see DESIGN.md section 10).

#include <cstdint>
#include <functional>

namespace prox::sta {

inline constexpr std::uint32_t kInvalidIdValue = 0xFFFFFFFFu;

template <class Tag>
struct Id {
  std::uint32_t value = kInvalidIdValue;

  constexpr Id() = default;
  constexpr explicit Id(std::uint32_t v) : value(v) {}
  /// Narrowing construction from container sizes; the arena rejects graphs
  /// that would overflow 32 bits long before this could truncate.
  constexpr explicit Id(std::size_t v) : value(static_cast<std::uint32_t>(v)) {}

  constexpr bool valid() const { return value != kInvalidIdValue; }

  friend constexpr bool operator==(Id a, Id b) { return a.value == b.value; }
  friend constexpr bool operator!=(Id a, Id b) { return a.value != b.value; }
  friend constexpr bool operator<(Id a, Id b) { return a.value < b.value; }
};

/// A gate instance (one evaluated cell).
using NodeId = Id<struct NodeIdTag>;
/// A net (a primary input or an instance output).
using NetId = Id<struct NetIdTag>;
/// One levelization level (see LevelizeResult::level()).
using LevelId = Id<struct LevelIdTag>;

}  // namespace prox::sta

template <class Tag>
struct std::hash<prox::sta::Id<Tag>> {
  std::size_t operator()(prox::sta::Id<Tag> id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
