#pragma once
// Type-erased chare-array bookkeeping: element storage, the index→PE
// location directory, and a per-PE partition of the element list. The
// typed facade (ChareArray<T> / ArrayProxy<T>) lives in core/array.hpp.
//
// The directory is sharded by PE for scale: alongside the flat
// index→record map (point lookups for sends), each PE owns a shard
// holding (index, element) pairs for its local elements. A broadcast to
// a 10^6-element array iterates the delivering PE's shard directly —
// O(local) with zero per-element hash lookups or allocations — instead
// of scanning the whole directory per PE. Shards sort lazily (first
// delivery after a mutation), so bulk creation stays O(1) amortized per
// element. Structural mutations (insert/extract) happen at setup or
// quiescent points only; a shard's lazy sort runs on the owning PE's
// delivery path, which is single-threaded per PE on every backend.
//
// Honesty note (DESIGN.md): the sim and thread backends share one
// address space, so for them the location directory is a single
// authoritative map rather than Charm++'s distributed home-PE protocol.
// ProcessMachine forks one process per PE: each process holds its own
// replica of the directory, kept consistent because migrations in this
// reproduction happen at quiescence (the host rebroadcasts placement
// before the next phase), so no in-flight message can observe a stale
// location in any backend.

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/chare.hpp"
#include "core/types.hpp"
#include "util/assert.hpp"

namespace mdo::core {

class ArrayBase {
 public:
  ArrayBase(ArrayId id, std::string name, int num_pes)
      : id_(id), name_(std::move(name)), shards_(static_cast<std::size_t>(num_pes)) {}
  virtual ~ArrayBase() = default;

  ArrayId id() const { return id_; }
  const std::string& name() const { return name_; }

  Chare* find(const Index& index) {
    auto it = elems_.find(index);
    return it == elems_.end() ? nullptr : it->second.object.get();
  }

  Pe location(const Index& index) const {
    auto it = elems_.find(index);
    MDO_CHECK_MSG(it != elems_.end(), "send to nonexistent array element");
    return it->second.pe;
  }

  bool contains(const Index& index) const { return elems_.count(index) != 0; }

  /// Pre-size the directory for a known element count (bulk creation).
  void reserve(std::size_t count) { elems_.reserve(count); }

  void insert(const Index& index, Pe pe, std::unique_ptr<Chare> object) {
    MDO_CHECK_MSG(elems_.find(index) == elems_.end(), "duplicate array index");
    MDO_CHECK(pe >= 0 && static_cast<std::size_t>(pe) < shards_.size());
    Chare* raw = object.get();
    elems_.emplace(index, Rec{pe, std::move(object)});
    order_.push_back(index);
    Shard& shard = shards_[static_cast<std::size_t>(pe)];
    // Appending in ascending index order (the common bulk-creation
    // pattern) keeps the shard sorted without a deferred sort pass.
    if (shard.sorted && !shard.elems.empty() &&
        !(shard.elems.back().index < index)) {
      shard.sorted = false;
    }
    shard.elems.push_back(LocalElem{index, raw});
  }

  /// Remove and return the element (for migration).
  std::unique_ptr<Chare> extract(const Index& index) {
    auto it = elems_.find(index);
    MDO_CHECK_MSG(it != elems_.end(), "extract of nonexistent element");
    shard_erase(it->second.pe, index);
    std::unique_ptr<Chare> out = std::move(it->second.object);
    elems_.erase(it);
    // The index leaves order_ too; insert() appends it again, so an
    // element that is extracted and re-inserted (migration, recovery)
    // moves to the end of all_indices().
    for (auto pos = order_.begin(); pos != order_.end(); ++pos) {
      if (*pos == index) {
        order_.erase(pos);
        break;
      }
    }
    return out;
  }

  /// Insertion order: creation order, except that a re-inserted element
  /// comes after every element that stayed put.
  const std::vector<Index>& all_indices() const { return order_; }

  /// Deliver-side iteration over one PE's partition in deterministic
  /// (sorted-index) order, without copying the index list or re-looking
  /// up each element. `fn(index, element)` must not insert or extract.
  template <class Fn>
  void for_each_on(Pe pe, Fn&& fn) {
    MDO_CHECK(pe >= 0 && static_cast<std::size_t>(pe) < shards_.size());
    Shard& shard = shards_[static_cast<std::size_t>(pe)];
    ensure_sorted(shard);
    for (const LocalElem& e : shard.elems) fn(e.index, *e.object);
  }

  std::size_t num_elements() const { return elems_.size(); }

  std::size_t num_local(Pe pe) const {
    MDO_CHECK(pe >= 0 && static_cast<std::size_t>(pe) < shards_.size());
    return shards_[static_cast<std::size_t>(pe)].elems.size();
  }

  /// Iterate (index, element, pe) without exposing the map type.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (auto& [index, rec] : elems_) fn(index, *rec.object, rec.pe);
  }

  /// Construct an empty element of the concrete type for migration unpack.
  virtual std::unique_ptr<Chare> make_element() const = 0;

 private:
  struct Rec {
    Pe pe;
    std::unique_ptr<Chare> object;
  };
  struct LocalElem {
    Index index;
    Chare* object;
  };
  struct Shard {
    // mutable: lazily sorted from const accessors; only ever touched by
    // the owning PE's delivery thread (or at quiescent points).
    mutable std::vector<LocalElem> elems;
    mutable bool sorted = true;
  };

  static void ensure_sorted(const Shard& shard) {
    if (shard.sorted) return;
    std::sort(shard.elems.begin(), shard.elems.end(),
              [](const LocalElem& a, const LocalElem& b) {
                return a.index < b.index;
              });
    shard.sorted = true;
  }

  void shard_erase(Pe pe, const Index& index) {
    Shard& shard = shards_[static_cast<std::size_t>(pe)];
    for (auto pos = shard.elems.begin(); pos != shard.elems.end(); ++pos) {
      if (pos->index == index) {
        shard.elems.erase(pos);  // keeps sorted order intact
        return;
      }
    }
    MDO_CHECK_MSG(false, "element missing from its PE shard");
  }

  ArrayId id_;
  std::string name_;
  std::unordered_map<Index, Rec, IndexHash> elems_;
  std::vector<Index> order_;
  std::vector<Shard> shards_;
};

}  // namespace mdo::core
