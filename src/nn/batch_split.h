#ifndef ZEUS_NN_BATCH_SPLIT_H_
#define ZEUS_NN_BATCH_SPLIT_H_

#include <algorithm>
#include <cstddef>

#include "common/thread_pool.h"
#include "tensor/gemm.h"

namespace zeus::nn {

// Deterministic outer/inner parallelism split for minibatch loops.
//
// A conv layer has two levers: split the minibatch across pool workers
// (outer) or let each per-image GEMM parallelize internally (inner). Both at
// once would deadlock-guard into serial inner GEMMs anyway (nested
// ParallelFor runs inline on the worker), so the policy picks exactly one:
//
//   - outer when there are enough images to feed every worker (n >= threads),
//     or when images are individually too small for intra-GEMM splitting to
//     pay (per_image_macs below ~16 M MACs);
//   - inner (tasks = 1) for a few huge images, where the batch split would
//     idle most workers.
//
// The decision depends only on (n, per_image_macs, pool size, batch_split
// flag) — never on runtime load — and every task computes its images
// independently, so layer outputs are bit-identical for any pool size.
//
// A result of 1 keeps the loop on the calling thread (ParallelFor runs a
// single task inline), so the inner GEMMs can still use the pool.
inline int BatchSplitTasks(const tensor::ComputeContext& ctx, int n,
                           size_t per_image_macs) {
  if (!ctx.batch_split || ctx.pool == nullptr || n <= 1) return 1;
  if (ctx.pool->num_threads() <= 1) return 1;
  if (common::ThreadPool::InWorkerThread()) return 1;
  // Too little total work to amortize a pool dispatch at all.
  if (static_cast<size_t>(n) * per_image_macs < (size_t{1} << 15)) return 1;
  constexpr size_t kOuterPreferredMacs = size_t{1} << 24;
  const int threads = ctx.pool->num_threads();
  if (n >= threads || per_image_macs < kOuterPreferredMacs) {
    return std::min(n, threads);
  }
  return 1;
}

// Contiguous image range for task `idx` of `tasks`: [lo, hi).
inline int BatchSplitBegin(int n, int tasks, int idx) {
  return static_cast<int>(static_cast<long long>(idx) * n / tasks);
}
inline int BatchSplitEnd(int n, int tasks, int idx) {
  return static_cast<int>(static_cast<long long>(idx + 1) * n / tasks);
}

}  // namespace zeus::nn

#endif  // ZEUS_NN_BATCH_SPLIT_H_
