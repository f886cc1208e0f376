#include "core/parallel.h"

#include <pthread.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

namespace ber {

int default_threads() {
  if (const char* env = std::getenv("BER_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {
thread_local bool tls_in_worker = false;
}  // namespace

bool in_parallel_worker() { return tls_in_worker; }

ParallelWorkerScope::ParallelWorkerScope() : prev_(tls_in_worker) {
  tls_in_worker = true;
}

ParallelWorkerScope::~ParallelWorkerScope() { tls_in_worker = prev_; }

namespace {

struct Chunk {
  const std::function<void(std::int64_t)>* fn;
  std::int64_t begin, end;
  std::exception_ptr error;  // rethrown by parallel_for after the join
};

void* run_chunk(void* arg) {
  Chunk& c = *static_cast<Chunk*>(arg);
  const ParallelWorkerScope worker_mark;
  try {
    for (std::int64_t i = c.begin; i < c.end; ++i) (*c.fn)(i);
  } catch (...) {
    c.error = std::current_exception();
  }
  return nullptr;
}

}  // namespace

// Workers are raw pthreads over caller-owned chunk descriptors. A
// std::thread worker frees its own start state, and that first free()
// attaches a glibc malloc arena to the thread; with the conv batch shards
// spawning workers thousands of times per training run, the extra arenas
// raised train_randbet's peak RSS by ~40 MB in 2 of 6 runs. Here a worker
// only touches malloc if fn does, and the conv shards do not.
void parallel_for(std::int64_t n, int threads,
                  const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  threads = static_cast<int>(
      std::max<std::int64_t>(1, std::min<std::int64_t>(threads, n)));
  if (threads == 1) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::int64_t chunk = (n + threads - 1) / threads;
  std::vector<Chunk> chunks;
  for (std::int64_t begin = 0; begin < n; begin += chunk) {
    chunks.push_back(
        {&fn, begin, std::min<std::int64_t>(begin + chunk, n), nullptr});
  }
  std::vector<pthread_t> workers(chunks.size());
  std::vector<bool> started(chunks.size());
  for (std::size_t t = 0; t < chunks.size(); ++t) {
    started[t] =
        pthread_create(&workers[t], nullptr, run_chunk, &chunks[t]) == 0;
    if (!started[t]) run_chunk(&chunks[t]);  // out of threads: run inline
  }
  for (std::size_t t = 0; t < chunks.size(); ++t) {
    if (started[t]) pthread_join(workers[t], nullptr);
  }
  for (const Chunk& c : chunks) {
    if (c.error) std::rethrow_exception(c.error);
  }
}

void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  parallel_for(n, default_threads(), fn);
}

}  // namespace ber
