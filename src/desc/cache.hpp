#pragma once

// Process-wide memo of built presets.
//
// Every preset (MachineConfig::deepEr(), cpuPreset("xeon-haswell"), ...) is
// an embedded description string, so building one pays a JSON parse plus a
// schema bind and validate.  Campaigns build the same presets once per
// world — thousands of times in the recovery sweeps — so the built object
// is memoized per preset key ("machine/deep-er", "cpu/xeon-haswell",
// "net/extoll-tourmalet") and every caller receives its own copy: worlds
// stay isolated while the parse/bind/validate cost is paid once per
// process.  Only preset keys are memoized; descriptions read from files
// always go through bind-and-validate.
//
// Concurrency: lookups take one mutex; a miss builds OUTSIDE the lock, so a
// slow first build never serializes unrelated lookups.  Concurrent first
// misses may each build; the first insert wins and the losers' builds are
// discarded (benign and deterministic, TSan-exercised in test_campaign).
// A build that throws caches nothing, so its error replays on every call.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cbsim::desc {

/// Hit/miss counters of the memo (misses count builds, so concurrent first
/// misses on one key may record several).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Empties the memo and resets its counters.
void clearConstructionCaches();

/// Name + counters of the memo (a single entry, "desc.preset").
struct CacheInfo {
  std::string name;
  CacheStats stats;
};
[[nodiscard]] std::vector<CacheInfo> constructionCacheInfo();

namespace detail {
/// The cached object for `key`, or null (counting a hit when found).
[[nodiscard]] std::shared_ptr<const void> memoFind(const std::string& key);
/// Inserts `built` unless `key` is already present (counting a miss);
/// returns the entry that won.
[[nodiscard]] std::shared_ptr<const void> memoInsert(
    const std::string& key, std::shared_ptr<const void> built);
}  // namespace detail

/// A copy of the object memoized under `key`, built by `build()` on a miss.
/// Each key must always name objects of the same type T.
template <typename T, typename Build>
[[nodiscard]] T memoized(const std::string& key, Build&& build) {
  std::shared_ptr<const void> entry = detail::memoFind(key);
  if (!entry) {
    entry = detail::memoInsert(
        key, std::make_shared<const T>(std::forward<Build>(build)()));
  }
  return *static_cast<const T*>(entry.get());
}

}  // namespace cbsim::desc
