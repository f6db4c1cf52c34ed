#ifndef SDELTA_RELATIONAL_FLAT_HASH_H_
#define SDELTA_RELATIONAL_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sdelta::rel {

/// Probe-length accounting for a flat map: ops counts lookups/inserts,
/// steps counts slots inspected (>= ops; steps == ops means every probe
/// hit its home slot). Feeds the hash.probe_len histogram.
struct ProbeStats {
  uint64_t ops = 0;
  uint64_t steps = 0;

  double MeanLength() const;

  ProbeStats& operator+=(const ProbeStats& other) {
    ops += other.ops;
    steps += other.steps;
    return *this;
  }
};

namespace flat_internal {
/// Smallest power-of-two capacity >= 16 that keeps n entries at or below
/// the 3/4 load factor.
size_t NormalizeCapacity(size_t n);
}  // namespace flat_internal

/// Hash functor for keys that are already well-mixed hashes (Table's
/// whole-row index stores HashRow outputs): re-avalanching them would
/// only burn cycles.
struct IdentityHash {
  size_t operator()(size_t v) const { return v; }
};

/// A flat open-addressing hash map: linear probing over a power-of-two
/// slot array, with a separate one-byte-per-slot metadata array so the
/// probe loop scans a dense cache-friendly byte stream and only touches
/// the (wide) slot when the 7-bit hash tag matches.
///
/// Design points, sized to this codebase's needs rather than generality:
///   - Duplicate keys are supported via InsertMulti/ForEachEqual — the
///     same structure backs unique maps (GroupBy index, SummaryTable
///     index) and multimaps (HashJoin build side, Table row index).
///   - Erase is tombstone-free backward-shift deletion, so probe chains
///     never accumulate dead slots across the insert/erase churn of
///     summary-table refresh.
///   - Find/FindOrInsert/InsertMulti update a mutable ProbeStats; the
///     const ForEachEqual does NOT (it is the one entry point probed
///     concurrently — parallel HashJoin morsels share the build table).
///     Find/FindOrInsert also take a caller-owned ProbeStats, for a map
///     shared read-only between owners that each keep their own tally
///     (a summary table's index shared with published epochs).
///   - K and V must be cheaply default-constructible and movable; empty
///     slots hold default-constructed pairs (PackedKey, size_t — both
///     trivial in practice).
template <typename K, typename V, typename Hash>
class FlatHashMap {
 public:
  FlatHashMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return ctrl_.size(); }

  /// Drops all entries, keeping the allocation.
  void Clear() {
    for (uint8_t& c : ctrl_) c = kEmpty;
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  /// Grows (never shrinks) so that n entries fit without rehashing.
  void Reserve(size_t n) {
    const size_t cap = flat_internal::NormalizeCapacity(n);
    if (cap > ctrl_.size()) Rehash(cap);
  }

  /// Inserts (key, value) unless key is present; returns the value slot
  /// and whether an insert happened. With duplicate keys in the table
  /// (via InsertMulti) this finds the first in probe order.
  std::pair<V*, bool> FindOrInsert(const K& key, V value) {
    return FindOrInsert(key, std::move(value), probes_);
  }

  std::pair<V*, bool> FindOrInsert(const K& key, V value,
                                   ProbeStats& stats) {
    ReserveForOne();
    const size_t h = hash_(key);
    const uint8_t tag = Tag(h);
    size_t i = h & mask_;
    ++stats.ops;
    while (true) {
      ++stats.steps;
      if (ctrl_[i] == kEmpty) {
        ctrl_[i] = tag;
        slots_[i].key = key;
        slots_[i].value = std::move(value);
        ++size_;
        return {&slots_[i].value, true};
      }
      if (ctrl_[i] == tag && slots_[i].key == key) {
        return {&slots_[i].value, false};
      }
      i = (i + 1) & mask_;
    }
  }

  /// Inserts unconditionally, allowing duplicate keys.
  void InsertMulti(const K& key, V value) {
    ReserveForOne();
    const size_t h = hash_(key);
    const uint8_t tag = Tag(h);
    size_t i = h & mask_;
    ++probes_.ops;
    while (true) {
      ++probes_.steps;
      if (ctrl_[i] == kEmpty) {
        ctrl_[i] = tag;
        slots_[i].key = key;
        slots_[i].value = std::move(value);
        ++size_;
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Points at the mapped value, or nullptr. With duplicates, the first
  /// in probe order.
  const V* Find(const K& key) const { return Find(key, probes_); }

  const V* Find(const K& key, ProbeStats& stats) const {
    if (size_ == 0) return nullptr;
    const size_t h = hash_(key);
    const uint8_t tag = Tag(h);
    size_t i = h & mask_;
    ++stats.ops;
    while (true) {
      ++stats.steps;
      if (ctrl_[i] == kEmpty) return nullptr;
      if (ctrl_[i] == tag && slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
  }

  V* Find(const K& key) {
    return const_cast<V*>(static_cast<const FlatHashMap*>(this)->Find(key));
  }

  V* Find(const K& key, ProbeStats& stats) {
    return const_cast<V*>(
        static_cast<const FlatHashMap*>(this)->Find(key, stats));
  }

  /// Calls fn(value) for every entry whose key equals `key`, in probe
  /// order; fn returns true to stop early. Performs no probe accounting —
  /// safe to call concurrently from parallel join morsels.
  template <typename Fn>
  void ForEachEqual(const K& key, Fn&& fn) const {
    if (size_ == 0) return;
    const size_t h = hash_(key);
    const uint8_t tag = Tag(h);
    size_t i = h & mask_;
    while (ctrl_[i] != kEmpty) {
      if (ctrl_[i] == tag && slots_[i].key == key && fn(slots_[i].value)) {
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Erases the first entry (in probe order) with this key for which
  /// pred(value) holds. Returns whether anything was erased.
  template <typename Pred>
  bool EraseOneIf(const K& key, Pred&& pred) {
    if (size_ == 0) return false;
    const size_t h = hash_(key);
    const uint8_t tag = Tag(h);
    size_t i = h & mask_;
    while (ctrl_[i] != kEmpty) {
      if (ctrl_[i] == tag && slots_[i].key == key && pred(slots_[i].value)) {
        EraseSlot(i);
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

  bool Erase(const K& key) {
    return EraseOneIf(key, [](const V&) { return true; });
  }

  const ProbeStats& probe_stats() const { return probes_; }

 private:
  struct Slot {
    K key{};
    V value{};
  };

  static constexpr uint8_t kEmpty = 0;

  /// 7 bits of hash with the occupancy bit set, so a tag never collides
  /// with kEmpty. Taken from the top of the hash — the bottom bits pick
  /// the bucket, so top bits add independent discrimination.
  static uint8_t Tag(size_t h) {
    return static_cast<uint8_t>(0x80u | (h >> 57));
  }

  void ReserveForOne() {
    if (ctrl_.empty()) {
      Rehash(16);
    } else if ((size_ + 1) * 4 > ctrl_.size() * 3) {
      Rehash(ctrl_.size() * 2);
    }
  }

  void Rehash(size_t new_cap) {
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old_slots = std::move(slots_);
    ctrl_.assign(new_cap, kEmpty);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    for (size_t j = 0; j < old_ctrl.size(); ++j) {
      if (old_ctrl[j] == kEmpty) continue;
      const size_t h = hash_(old_slots[j].key);
      size_t i = h & mask_;
      while (ctrl_[i] != kEmpty) i = (i + 1) & mask_;
      ctrl_[i] = Tag(h);
      slots_[i] = std::move(old_slots[j]);
    }
  }

  /// Backward-shift deletion: walk the probe chain after the hole and
  /// move back every entry whose home slot lies at or before the hole
  /// (cyclically), so lookups never need tombstones.
  void EraseSlot(size_t hole) {
    size_t i = (hole + 1) & mask_;
    while (ctrl_[i] != kEmpty) {
      const size_t home = hash_(slots_[i].key) & mask_;
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        ctrl_[hole] = ctrl_[i];
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
      i = (i + 1) & mask_;
    }
    ctrl_[hole] = kEmpty;
    slots_[hole] = Slot{};
    --size_;
  }

  std::vector<uint8_t> ctrl_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  Hash hash_;
  mutable ProbeStats probes_;
};

}  // namespace sdelta::rel

#endif  // SDELTA_RELATIONAL_FLAT_HASH_H_
