// Minimal fork-join parallelism.
//
// The library's hot loops (RErr evaluation across chips, zoo training of
// independent models, the image shards of a training batch's conv lowering
// in kernels/conv.cpp) are embarrassingly parallel at coarse granularity, so
// plain thread spawns per call are cheap relative to the work. A 4-thread
// call costs about 60-90 us on a 4-vCPU AVX-512 Xeon VM, so about 0.2 s
// over the ~2,900 sharded conv calls of one train_randbet run. No global
// pool, no nested-parallelism hazards.
#pragma once

#include <cstdint>
#include <functional>

namespace ber {

// Number of worker threads to use (hardware concurrency, overridable via
// BER_THREADS for tests).
int default_threads();

// Runs fn(i) for i in [0, n) on up to `threads` threads. Work is split into
// contiguous chunks. fn must be safe to call concurrently for distinct i.
// If fn throws, the rest of that chunk is skipped and the first chunk's
// exception is rethrown here once every worker has joined.
void parallel_for(std::int64_t n, int threads,
                  const std::function<void(std::int64_t)>& fn);

// Convenience overload using default_threads().
void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn);

// True on threads spawned by parallel_for (or marked with
// ParallelWorkerScope). Lets inner layers — e.g. the blocked GEMM's
// intra-call sharding — fall back to serial instead of oversubscribing the
// machine T^2 when they already run inside a coarse-grained worker.
bool in_parallel_worker();

// RAII marker for worker threads created outside parallel_for (serving
// replicas, custom pools).
class ParallelWorkerScope {
 public:
  ParallelWorkerScope();
  ~ParallelWorkerScope();
  ParallelWorkerScope(const ParallelWorkerScope&) = delete;
  ParallelWorkerScope& operator=(const ParallelWorkerScope&) = delete;

 private:
  bool prev_;
};

}  // namespace ber
