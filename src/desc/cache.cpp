#include "desc/cache.hpp"

#include <mutex>
#include <unordered_map>

namespace cbsim::desc {

namespace {

struct Memo {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const void>> map;
  CacheStats stats;
};

// Intentionally leaked, so lookups during static destruction never touch a
// dead object.
Memo& memo() {
  static Memo* m = new Memo;
  return *m;
}

}  // namespace

namespace detail {

std::shared_ptr<const void> memoFind(const std::string& key) {
  Memo& m = memo();
  const std::lock_guard<std::mutex> lock(m.mu);
  const auto it = m.map.find(key);
  if (it == m.map.end()) return nullptr;
  ++m.stats.hits;
  return it->second;
}

std::shared_ptr<const void> memoInsert(const std::string& key,
                                       std::shared_ptr<const void> built) {
  Memo& m = memo();
  const std::lock_guard<std::mutex> lock(m.mu);
  ++m.stats.misses;
  return m.map.emplace(key, std::move(built)).first->second;
}

}  // namespace detail

void clearConstructionCaches() {
  Memo& m = memo();
  const std::lock_guard<std::mutex> lock(m.mu);
  m.map.clear();
  m.stats = {};
}

std::vector<CacheInfo> constructionCacheInfo() {
  Memo& m = memo();
  const std::lock_guard<std::mutex> lock(m.mu);
  return {{"desc.preset", m.stats}};
}

}  // namespace cbsim::desc
