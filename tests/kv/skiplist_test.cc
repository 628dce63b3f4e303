#include "kv/skiplist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace ycsbt {
namespace kv {
namespace {

TEST(SkipListTest, EmptyList) {
  SkipList<int> list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.Find("anything"), nullptr);
  SkipList<int>::Iterator it(&list);
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
}

TEST(SkipListTest, InsertFindErase) {
  SkipList<int> list;
  EXPECT_TRUE(list.Upsert("b", 2));
  EXPECT_TRUE(list.Upsert("a", 1));
  EXPECT_TRUE(list.Upsert("c", 3));
  EXPECT_EQ(list.size(), 3u);
  ASSERT_NE(list.Find("b"), nullptr);
  EXPECT_EQ(*list.Find("b"), 2);
  EXPECT_TRUE(list.Erase("b"));
  EXPECT_EQ(list.Find("b"), nullptr);
  EXPECT_FALSE(list.Erase("b"));
  EXPECT_EQ(list.size(), 2u);
}

TEST(SkipListTest, UpsertOverwrites) {
  SkipList<int> list;
  EXPECT_TRUE(list.Upsert("k", 1));
  EXPECT_FALSE(list.Upsert("k", 2));  // not newly inserted
  EXPECT_EQ(*list.Find("k"), 2);
  EXPECT_EQ(list.size(), 1u);
}

TEST(SkipListTest, IterationIsSorted) {
  SkipList<int> list;
  std::vector<std::string> keys = {"delta", "alpha", "echo", "charlie", "bravo"};
  for (size_t i = 0; i < keys.size(); ++i) {
    list.Upsert(keys[i], static_cast<int>(i));
  }
  SkipList<int>::Iterator it(&list);
  std::vector<std::string> seen;
  for (it.SeekToFirst(); it.Valid(); it.Next()) seen.emplace_back(it.key());
  std::vector<std::string> expected = keys;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);
}

TEST(SkipListTest, SeekFindsLowerBound) {
  SkipList<int> list;
  list.Upsert("b", 1);
  list.Upsert("d", 2);
  list.Upsert("f", 3);
  SkipList<int>::Iterator it(&list);
  it.Seek("c");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("d");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("g");
  EXPECT_FALSE(it.Valid());
  it.Seek("");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "b");
}

/// Asserts `list` and `reference` hold the same entries: iteration order and
/// values, every reference key reachable through the index (`Find`), and
/// `size()` equal to both counts.
void ExpectSameContents(const SkipList<uint64_t>& list,
                        const std::map<std::string, uint64_t>& reference) {
  ASSERT_EQ(list.size(), reference.size());
  SkipList<uint64_t>::Iterator it(&list);
  auto rit = reference.begin();
  size_t iterated = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++rit, ++iterated) {
    ASSERT_NE(rit, reference.end());
    ASSERT_EQ(it.key(), rit->first);
    ASSERT_EQ(it.value(), rit->second);
  }
  EXPECT_EQ(rit, reference.end());
  EXPECT_EQ(iterated, list.size());
  for (const auto& [key, value] : reference) {
    const uint64_t* found = list.Find(key);
    ASSERT_NE(found, nullptr) << key;
    ASSERT_EQ(*found, value) << key;
  }
}

/// Keys of the shape the benchmark uses: longer than the small-string buffer,
/// so they exercise the inline key bytes of a node, with a short form mixed
/// in.
std::string PropertyKey(uint64_t n) {
  if (n % 3 == 0) return "k" + std::to_string(n);
  return "usertable/user" + std::to_string(n * 0x9E3779B97F4A7C15ull);
}

TEST(SkipListTest, MatchesReferenceMapUnderRandomOps) {
  // Property test: a long random op sequence must agree with std::map —
  // point ops through the index, sorted runs spliced into the populated list
  // through a SortedInserter (overwriting keys already present), and
  // Find/Erase/re-insert of keys those runs created.
  SkipList<uint64_t> list;
  std::map<std::string, uint64_t> reference;
  Random64 rng(2024);
  for (int i = 0; i < 20000; ++i) {
    std::string key = PropertyKey(rng.Uniform(500));
    switch (rng.Uniform(9)) {
      case 0:
      case 1:
      case 2: {  // upsert
        uint64_t v = rng.Next();
        ASSERT_EQ(list.Upsert(key, v), reference.count(key) == 0);
        reference[key] = v;
        break;
      }
      case 3:
      case 4: {  // erase
        bool a = list.Erase(key);
        bool b = reference.erase(key) > 0;
        ASSERT_EQ(a, b);
        break;
      }
      case 5: {  // conditional erase: only odd values go
        auto it = reference.find(key);
        bool expect = it != reference.end() && it->second % 2 == 1;
        ASSERT_EQ(list.EraseIf(key, [](uint64_t v) { return v % 2 == 1; }),
                  expect);
        if (expect) reference.erase(it);
        break;
      }
      case 6: {  // sorted run into the populated list
        std::map<std::string, uint64_t> run;
        size_t len = 1 + rng.Uniform(40);
        for (size_t j = 0; j < len; ++j) {
          run[PropertyKey(rng.Uniform(500))] = rng.Next();
        }
        SkipList<uint64_t>::SortedInserter cursor(&list);
        for (const auto& [k, v] : run) {
          ASSERT_EQ(cursor.Insert(k, v), reference.count(k) == 0) << k;
          reference[k] = v;
        }
        break;
      }
      default: {  // lookup
        auto* found = list.Find(key);
        auto it = reference.find(key);
        if (it == reference.end()) {
          ASSERT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
    }
    if (i % 2000 == 0) ExpectSameContents(list, reference);
  }
  ExpectSameContents(list, reference);
  // Drain to empty and refill: the index must forget every erased key and
  // take each one back.
  for (const auto& [key, value] : reference) {
    (void)value;
    ASSERT_TRUE(list.Erase(key));
    ASSERT_EQ(list.Find(key), nullptr);
  }
  EXPECT_TRUE(list.empty());
  for (auto& [key, value] : reference) {
    value = rng.Next();
    ASSERT_TRUE(list.Upsert(key, value));
  }
  ExpectSameContents(list, reference);
}

TEST(SkipListTest, LargeSequentialInsert) {
  SkipList<int> list;
  for (int i = 0; i < 10000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%06d", i);
    list.Upsert(buf, i);
  }
  EXPECT_EQ(list.size(), 10000u);
  EXPECT_EQ(*list.Find("005000"), 5000);
  SkipList<int>::Iterator it(&list);
  it.Seek("009999");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.value(), 9999);
  it.Next();
  EXPECT_FALSE(it.Valid());
}

}  // namespace
}  // namespace kv
}  // namespace ycsbt
