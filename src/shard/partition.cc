#include "shard/partition.h"

#include "common/hash.h"
#include "common/logging.h"

namespace delex {
namespace shard {

int ShardOfUrl(std::string_view url, int num_shards) {
  DELEX_CHECK(num_shards >= 1);
  if (num_shards == 1) return 0;
  return static_cast<int>(Fnv1a64(url) % static_cast<uint64_t>(num_shards));
}

std::vector<SnapshotView> RouteSnapshot(const Snapshot& snapshot,
                                        int num_shards) {
  DELEX_CHECK(num_shards >= 1);
  std::vector<std::vector<size_t>> indexes(static_cast<size_t>(num_shards));
  for (size_t i = 0; i < snapshot.NumPages(); ++i) {
    indexes[static_cast<size_t>(
                ShardOfUrl(snapshot.pages()[i].url, num_shards))]
        .push_back(i);
  }
  std::vector<SnapshotView> views;
  views.reserve(indexes.size());
  for (std::vector<size_t>& list : indexes) {
    views.emplace_back(snapshot, std::move(list));
  }
  return views;
}

}  // namespace shard
}  // namespace delex
