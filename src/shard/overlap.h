#ifndef PRIVIM_SHARD_OVERLAP_H_
#define PRIVIM_SHARD_OVERLAP_H_

#include <cstddef>
#include <functional>

#include "common/status.h"

namespace privim {

/// Runs stage_a(s) then stage_b(s) for every shard s in [0, num_shards)
/// (docs/sharding.md, "Overlap timing"). With `overlap` false the stages
/// run strictly serially — A(0) B(0) A(1) B(1) ... on the calling thread,
/// the baseline BM_ShardOverlap gates against. With `overlap` true two
/// shards are in flight at once, so stage_a of shard k+1 (subgraph
/// sampling) runs while stage_b of shard k (training + selection) is still
/// executing. Every in-flight shard keeps its subgraph container and model
/// resident, so the bound of two also bounds peak memory. Within one shard
/// the stages are always ordered.
///
/// The schedulers are dedicated std::threads, NEVER the shared runtime
/// pool: the stages themselves issue ParallelFor on the shared pool, and a
/// ParallelFor caller blocks in TaskGroup::Wait without stealing work —
/// parking this orchestration on pool workers could leave every worker
/// blocked on nested chunks that no thread is left to execute.
///
/// Shards are claimed in index order. On the first stage failure the
/// failing Status is recorded, in-flight shards finish their current
/// stage, unstarted shards are skipped, and that first Status is returned.
Status RunStagePipeline(size_t num_shards, bool overlap,
                        const std::function<Status(size_t)>& stage_a,
                        const std::function<Status(size_t)>& stage_b);

}  // namespace privim

#endif  // PRIVIM_SHARD_OVERLAP_H_
