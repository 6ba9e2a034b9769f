#pragma once
// Open-addressing memo for oracle dual-input evaluations.
//
// Replaces the old mutex-guarded std::map<tuple<...>> cache: queries are
// quantized to attosecond-resolution integers, mixed into a single packed
// 64-bit hash key, and stored in a fixed-capacity power-of-two slot array
// with linear probing.  Each slot keeps the exact quantized coordinates next
// to the hash, so a (vanishingly unlikely) 64-bit hash collision can never
// alias two distinct queries -- the memo stays exact, like the map it
// replaces.
//
// The memo never evicts.  Below its cap an insert probes to the first
// empty slot, which the 5/8 growth load guarantees, so which keys it holds
// depends only on which were inserted, never on their order -- the "same
// work at any thread count" of a parallel sweep rests on this.  Once the
// table is at its cap (full size and 5/8 load) it takes no new keys;
// dropping one is always safe, because oracle evaluations are pure and a
// missed key simply re-simulates to the identical value.
//
// The memo is mutex-guarded and therefore thread-safe on its own; note the
// simulator behind OracleDualInputModel is NOT, so concurrent callers need
// one simulator per thread (the parallel sweep keeps one per worker, and
// all of them memoize here).

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace prox::model {

class DualMemo {
 public:
  struct Pair {
    double delayRatio = 1.0;
    double transitionRatio = 1.0;
  };

  /// Exact quantized query coordinates: pins + edge packed into one word,
  /// the three times as attosecond-quantized integers.
  struct Key {
    std::uint64_t pins = 0;  ///< refPin, otherPin, edge bit packed
    std::int64_t tauRef = 0;
    std::int64_t tauOther = 0;
    std::int64_t sep = 0;

    bool operator==(const Key& o) const {
      return pins == o.pins && tauRef == o.tauRef && tauOther == o.tauOther &&
             sep == o.sep;
    }
  };

  /// @p capacity (rounded up to a power of two) caps the slot count; the
  /// default 64k slots comfortably covers a full characterization sweep's
  /// query set.  Storage starts small (256 slots) and quadruples as entries
  /// accumulate, so a simulator that never runs an oracle sweep never pays
  /// for the full table.
  explicit DualMemo(std::size_t capacity = std::size_t{1} << 16);

  static Key makeKey(int refPin, int otherPin, bool risingEdge, double tauRef,
                     double tauOther, double sep);

  /// True (and fills @p out) when the key is cached.
  bool find(const Key& key, Pair* out);

  /// Inserts (or overwrites) the value for @p key; at the cap a new key is
  /// dropped.
  void insert(const Key& key, const Pair& value);

  /// The configured slot-count cap (storage may currently be smaller).
  std::size_t capacity() const { return maxSlots_; }

 private:
  struct Slot {
    bool used = false;
    Key key;
    Pair value;
  };

  /// Packed 64-bit hash of the quantized key (splitmix64 over the fields).
  static std::uint64_t hashKey(const Key& key);

  /// The slot holding @p key, else the empty slot that ends its probe
  /// chain.  Caller holds mu_.
  Slot& probe(const Key& key);
  /// Quadruples the slot array (up to maxSlots_) and rehashes live entries.
  /// Caller holds mu_.
  void grow();

  std::mutex mu_;
  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  std::size_t maxSlots_ = 0;
  std::size_t used_ = 0;
};

}  // namespace prox::model
