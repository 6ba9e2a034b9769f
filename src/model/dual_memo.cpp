#include "model/dual_memo.hpp"

#include <algorithm>
#include <cmath>

namespace prox::model {

namespace {

/// splitmix64 finalizer: the standard cheap 64-bit mixer.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

DualMemo::DualMemo(std::size_t capacity) {
  // At least 8 slots, so a table at its 5/8 load still has an empty one.
  maxSlots_ = roundUpPow2(std::max<std::size_t>(capacity, 8));
  slots_.resize(std::min<std::size_t>(maxSlots_, 256));
  mask_ = slots_.size() - 1;
}

DualMemo::Key DualMemo::makeKey(int refPin, int otherPin, bool risingEdge,
                                double tauRef, double tauOther, double sep) {
  // Attosecond quantization, matching the old map memo's keyOf().
  const auto quantize = [](double t) {
    return static_cast<std::int64_t>(std::llround(t * 1e18));
  };
  Key k;
  k.pins = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(refPin))
            << 33) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(otherPin))
            << 1) |
           (risingEdge ? 1u : 0u);
  k.tauRef = quantize(tauRef);
  k.tauOther = quantize(tauOther);
  k.sep = quantize(sep);
  return k;
}

std::uint64_t DualMemo::hashKey(const Key& key) {
  std::uint64_t h = mix(key.pins);
  h = mix(h ^ static_cast<std::uint64_t>(key.tauRef));
  h = mix(h ^ static_cast<std::uint64_t>(key.tauOther));
  h = mix(h ^ static_cast<std::uint64_t>(key.sep));
  return h;
}

DualMemo::Slot& DualMemo::probe(const Key& key) {
  // The load stays at most 5/8 (see insert), so every chain ends at an
  // empty slot.
  for (std::uint64_t i = hashKey(key);; ++i) {
    Slot& s = slots_[i & mask_];
    if (!s.used || s.key == key) return s;
  }
}

bool DualMemo::find(const Key& key, Pair* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const Slot& s = probe(key);
  if (!s.used) return false;
  *out = s.value;
  return true;
}

void DualMemo::insert(const Key& key, const Pair& value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto full = [this] { return used_ * 8 >= slots_.size() * 5; };
  if (full() && slots_.size() < maxSlots_) grow();
  Slot& s = probe(key);
  if (!s.used) {
    if (full()) return;  // at the cap: drop the new key
    s.used = true;
    s.key = key;
    ++used_;
  }
  s.value = value;
}

void DualMemo::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::min(maxSlots_, old.size() * 4), Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.used) probe(s.key) = s;
  }
}

}  // namespace prox::model
