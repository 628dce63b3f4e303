#ifndef YCSBT_KV_SKIPLIST_H_
#define YCSBT_KV_SKIPLIST_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"

namespace ycsbt {
namespace kv {

/// Ordered in-memory map from string keys to values of type V — the memtable
/// structure of the storage engine (WiredTiger, LevelDB and friends keep
/// theirs in a skip list too).
///
/// Two structures share the nodes:
///  - a probabilistic skip list keeps the keys in byte-wise lexicographic
///    order, the order YCSB scans, checkpoints and sorted bulk loads need;
///  - a hash index maps every key to its node, so point operations (`Find`,
///    overwriting `Upsert`, the `SortedInserter` overwrite, the check half of
///    `EraseIf`) never descend the list.  A descent happens only when a key
///    is linked in or unlinked.
///
/// Each node is ONE allocation: a small header, the tower of next pointers
/// inline, the key bytes, then the value.  A lookup therefore touches the
/// index slot and one node, not a chain of node/tower/key heap blocks.
///
/// Not internally synchronised: each store shard guards its list (and with
/// it the index) with a reader-writer lock.
template <typename V>
class SkipList {
  struct Node;
  static constexpr int kMaxHeight = 12;
  static constexpr unsigned kBranching = 4;
  static constexpr size_t kMinIndexSlots = 16;

 public:
  SkipList()
      : rng_(0xC0FFEEull), head_(NewNode({}, kMaxHeight, V{})), size_(0) {
    ResizeIndex(kMinIndexSlots);
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  ~SkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next()[0];
      DeleteNode(n);
      n = next;
    }
  }

  /// Inserts `key` with `value`, or overwrites the existing value.
  /// Returns true if the key was newly inserted.
  bool Upsert(std::string_view key, V value) {
    const uint64_t hash = Hash(key);
    ReserveIndex(size_ + 1);
    const size_t slot = SlotOf(key, hash);
    if (Node* node = slots_[slot].node) {
      node->value() = std::move(value);
      return false;
    }
    Node* prev[kMaxHeight];
    FindGreaterOrEqual(key, prev);
    Link(key, hash, slot, std::move(value), prev);
    return true;
  }

  /// Looks up `key`; returns nullptr when absent.  The pointer stays valid
  /// until the key is erased or the list destroyed.
  V* Find(std::string_view key) {
    Node* node = slots_[SlotOf(key, Hash(key))].node;
    return node != nullptr ? &node->value() : nullptr;
  }

  const V* Find(std::string_view key) const {
    return const_cast<SkipList*>(this)->Find(key);
  }

  /// Removes `key` when it is present and `decide(value)` returns true; the
  /// check and the unlink share one index lookup.  Returns true if the key
  /// was removed.  `decide` may not mutate the list.
  template <typename Decide>
  bool EraseIf(std::string_view key, Decide&& decide) {
    const size_t slot = SlotOf(key, Hash(key));
    Node* node = slots_[slot].node;
    if (node == nullptr || !decide(node->value())) return false;
    Node* prev[kMaxHeight];
    FindGreaterOrEqual(key, prev);
    for (int i = 0; i < node->height; ++i) {
      assert(prev[i]->next()[i] == node);
      prev[i]->next()[i] = node->next()[i];
    }
    EraseSlot(slot);
    DeleteNode(node);
    --size_;
    return true;
  }

  /// Removes `key`; returns true if it was present.
  bool Erase(std::string_view key) {
    return EraseIf(key, [](const V&) { return true; });
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Forward iterator positioned by `SeekToFirst`/`Seek`; the usual memtable
  /// iteration interface.  Invalidated by any mutation of the list.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }

    void SeekToFirst() { node_ = list_->head_->next()[0]; }

    /// Positions at the first key >= target.
    void Seek(std::string_view target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }

    void Next() {
      assert(Valid());
      node_ = node_->next()[0];
    }

    /// The key bytes live inside the node: the view stays valid until the
    /// key is erased or the list destroyed.
    std::string_view key() const {
      assert(Valid());
      return node_->key();
    }

    const V& value() const {
      assert(Valid());
      return node_->value();
    }

   private:
    const SkipList* list_;
    const Node* node_;
  };

  /// Ascending-order insert cursor for bulk-loading pre-sorted runs: keeps
  /// the splice frontier from the previous insert so each key resumes its
  /// search there instead of from the head — O(1) amortised per key on a
  /// sorted run versus O(log n) for `Upsert`.
  ///
  /// Keys fed to `Insert` must be strictly increasing; keys already in the
  /// list may interleave with the run freely (an equal pre-existing key is
  /// overwritten through the index, exactly like `Upsert`).  The cursor is
  /// invalidated by any other mutation of the list.
  class SortedInserter {
   public:
    explicit SortedInserter(SkipList* list) : list_(list) {
      for (int i = 0; i < kMaxHeight; ++i) prev_[i] = list->head_;
    }

    /// Inserts `key` with `value` (overwriting on an equal key).
    /// Returns true if the key was newly inserted.
    bool Insert(std::string_view key, V value) {
      const uint64_t hash = Hash(key);
      list_->ReserveIndex(list_->size_ + 1);
      const size_t slot = list_->SlotOf(key, hash);
      if (Node* node = list_->slots_[slot].node) {
        // Every prev_[level] is still left of every later key of the run.
        node->value() = std::move(value);
        return false;
      }
      if (!primed_) {
        // First insert: a regular top-down descent to position the splice
        // frontier.  The per-level resume below starts each level from its
        // own stale `prev_` instead of carrying the position down from the
        // level above, so on a cursor freshly opened against a populated
        // list it would walk level 0 from the head — O(n), not O(log n).
        list_->FindGreaterOrEqual(key, prev_);
        primed_ = true;
      } else {
        // Each level resumes from its previous splice point: with ascending
        // keys, prev_[level] is always to the left of the new key, and the
        // total walk per level over a run is bounded by the nodes linked at
        // that level — O(1) amortised per insert.
        for (int level = kMaxHeight - 1; level >= 0; --level) {
          Node* x = prev_[level];
          while (x->next()[level] != nullptr && x->next()[level]->key() < key) {
            x = x->next()[level];
          }
          prev_[level] = x;
        }
      }
      Node* fresh = list_->Link(key, hash, slot, std::move(value), prev_);
      for (int i = 0; i < fresh->height; ++i) prev_[i] = fresh;
      return true;
    }

   private:
    SkipList* list_;
    Node* prev_[kMaxHeight];
    bool primed_ = false;
  };

 private:
  /// Node header.  The allocation continues with `Node* next[height]`, then
  /// `key_size` key bytes, then the value at the next multiple of alignof(V).
  struct alignas(alignof(void*)) Node {
    uint32_t key_size;
    uint8_t height;

    Node** next() { return reinterpret_cast<Node**>(this + 1); }
    Node* const* next() const { return reinterpret_cast<Node* const*>(this + 1); }

    std::string_view key() const {
      return {reinterpret_cast<const char*>(next() + height), key_size};
    }

    V& value() {
      return *std::launder(reinterpret_cast<V*>(
          reinterpret_cast<char*>(this) + ValueOffset(height, key_size)));
    }
    const V& value() const { return const_cast<Node*>(this)->value(); }
  };
  static_assert(alignof(V) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "node allocations only guarantee the default new alignment");

  /// One index slot; `node == nullptr` marks it empty.  The full hash rides
  /// along so probing and resizing never touch a node that does not match.
  struct Slot {
    uint64_t hash = 0;
    Node* node = nullptr;
  };

  static size_t ValueOffset(int height, size_t key_size) {
    const size_t end = sizeof(Node) + height * sizeof(Node*) + key_size;
    return (end + alignof(V) - 1) / alignof(V) * alignof(V);
  }

  static Node* NewNode(std::string_view key, int height, V value) {
    if (key.size() > UINT32_MAX) throw std::length_error("skip list key too long");
    void* mem = ::operator new(ValueOffset(height, key.size()) + sizeof(V));
    Node* node = new (mem) Node{static_cast<uint32_t>(key.size()),
                                static_cast<uint8_t>(height)};
    for (int i = 0; i < height; ++i) new (&node->next()[i]) Node*(nullptr);
    if (!key.empty()) {
      std::memcpy(reinterpret_cast<char*>(node->next() + height), key.data(),
                  key.size());
    }
    new (reinterpret_cast<char*>(node) + ValueOffset(height, key.size()))
        V(std::move(value));
    return node;
  }

  static void DeleteNode(Node* node) {
    node->value().~V();
    ::operator delete(node);
  }

  static uint64_t Hash(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }

  int RandomHeight() {
    int height = 1;
    while (height < kMaxHeight && rng_.Uniform(kBranching) == 0) ++height;
    return height;
  }

  /// First node with key >= target; fills `prev` (if non-null) with the
  /// rightmost node before the target at every level.
  Node* FindGreaterOrEqual(std::string_view target, Node** prev) const {
    Node* x = head_;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      while (x->next()[level] != nullptr && x->next()[level]->key() < target) {
        x = x->next()[level];
      }
      if (prev != nullptr) prev[level] = x;
    }
    return x->next()[0];
  }

  /// Links a fresh node for the absent `key` after `prev` at every level of
  /// its tower and records it in the (empty) index slot `slot`.
  Node* Link(std::string_view key, uint64_t hash, size_t slot, V value,
             Node* const* prev) {
    Node* fresh = NewNode(key, RandomHeight(), std::move(value));
    for (int i = 0; i < fresh->height; ++i) {
      fresh->next()[i] = prev[i]->next()[i];
      prev[i]->next()[i] = fresh;
    }
    slots_[slot] = Slot{hash, fresh};
    ++size_;
    return fresh;
  }

  // --- Hash index: open addressing with linear probing over a power-of-two
  // table kept at most 3/4 full, deletions by backward shift (no
  // tombstones, so create/delete churn never degrades probing).

  /// Preferred slot of `hash`: its top bits after a Fibonacci multiply, so
  /// keys that share a store shard (a function of the same hash) still
  /// spread over the whole table.
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> index_shift_);
  }

  /// The slot holding `key`, or the empty slot that ends its probe run.
  size_t SlotOf(std::string_view key, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.node == nullptr || (s.hash == hash && s.node->key() == key)) return i;
    }
  }

  void ReserveIndex(size_t keys) {
    if (keys * 4 > slots_.size() * 3) ResizeIndex(slots_.size() * 2);
  }

  void ResizeIndex(size_t slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(slots, Slot{});
    index_shift_ = 64;
    for (size_t n = slots; n > 1; n >>= 1) --index_shift_;
    const size_t mask = slots - 1;
    for (const Slot& s : old) {
      if (s.node == nullptr) continue;
      size_t i = Home(s.hash);
      while (slots_[i].node != nullptr) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  /// Empties slot `hole`, shifting later members of its probe run back so
  /// every key stays reachable from its home slot.
  void EraseSlot(size_t hole) {
    const size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; slots_[j].node != nullptr;
         j = (j + 1) & mask) {
      // The entry at j may fill the hole unless its home lies cyclically in
      // (hole, j] — then moving it before its home would hide it.
      if (((j - Home(slots_[j].hash)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
  }

  Random64 rng_;
  Node* head_;
  size_t size_;
  std::vector<Slot> slots_;
  int index_shift_ = 64;
};

}  // namespace kv
}  // namespace ycsbt

#endif  // YCSBT_KV_SKIPLIST_H_
