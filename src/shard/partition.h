#ifndef DELEX_SHARD_PARTITION_H_
#define DELEX_SHARD_PARTITION_H_

#include <string_view>
#include <vector>

#include "storage/snapshot.h"

namespace delex {
namespace shard {

/// \brief The shard router: Snapshot → per-shard page index lists.
///
/// Partitioning invariants (the sharded engine's correctness rests on
/// these; sharded_engine_test asserts them directly):
///
///  1. **Stability.** A page's shard is a pure function of its URL — the
///     identity that survives across snapshots (dids are reassigned every
///     crawl). Page adds and deletes elsewhere in the corpus never migrate
///     a surviving page, so each shard's reuse files stay aligned with the
///     pages they describe across generations, and a shard's engine can
///     look a page's previous version up in the whole previous snapshot:
///     it finds exactly a page of its own shard.
///  2. **Partition.** Every page lands in exactly one shard; shard
///     subsets are disjoint and cover the snapshot.
///  3. **Order preservation.** A shard lists its pages in snapshot order,
///     and they keep their *global* dids (nothing is copied or
///     renumbered). A subsequence of a did-ordered snapshot is
///     did-ordered, which is all the reuse-file append contract requires —
///     and it makes per-shard result rows carry exactly the dids an
///     unsharded run would emit, so the merge step can be byte-identical.

/// Shard index of a URL: FNV-1a hash mod num_shards. Deterministic across
/// runs, processes, and platforms (the hash is fixed, not seeded).
int ShardOfUrl(std::string_view url, int num_shards);

/// Routes `snapshot`'s pages by ShardOfUrl: one view per shard, listing
/// the indexes of its pages in snapshot order. No page is copied; the
/// views index `snapshot`, which must outlive them.
std::vector<SnapshotView> RouteSnapshot(const Snapshot& snapshot,
                                        int num_shards);

}  // namespace shard
}  // namespace delex

#endif  // DELEX_SHARD_PARTITION_H_
