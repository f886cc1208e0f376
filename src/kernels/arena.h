// Reusable scratch memory for the compute backends.
//
// GEMM packing buffers and im2col column matrices are large, short-lived and
// requested with the same handful of shapes call after call. A chunked bump
// arena keeps that memory alive across calls: alloc() is a pointer bump into
// an existing chunk once capacity has converged, so the steady state of a
// sweep / serving loop performs no heap allocation in the conv/GEMM hot path.
//
// Chunks are never moved or freed while the arena lives, so pointers handed
// out stay valid even when a later alloc() has to grow the arena — this is
// what lets a conv lowering hold its column matrix while the nested GEMM
// allocates packing buffers. Nested use follows stack discipline via
// ArenaScope, which rewinds the arena to its construction-time watermark.
//
// One arena per thread (tls_arena()): backends and conv lowering are called
// from evaluator / serving worker threads concurrently, and a thread-local
// arena makes the whole scheme lock-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ber::kernels {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `n` floats of scratch (uninitialized). The pointer stays valid
  // until the enclosing ArenaScope unwinds past the allocation (or reset()).
  float* alloc(std::size_t n);

  // Byte / int32 views of float-granular scratch for the int8 kernels —
  // same lifetime rules, 4-byte aligned.
  std::uint8_t* alloc_bytes(std::size_t n) {
    return reinterpret_cast<std::uint8_t*>(
        alloc((n + sizeof(float) - 1) / sizeof(float)));
  }
  std::int32_t* alloc_i32(std::size_t n) {
    return reinterpret_cast<std::int32_t*>(alloc(n));
  }

  // Rewinds every chunk to empty; capacity is retained for reuse.
  void reset();

  // Introspection (used by tests to prove reuse across calls).
  std::size_t capacity() const;     // total floats across all chunks
  std::size_t used() const;         // floats currently allocated
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  friend class ArenaScope;
  struct Chunk {
    std::vector<float> buf;
    std::size_t used = 0;
  };
  std::vector<Chunk> chunks_;
  // Per-chunk watermarks of the open ArenaScopes, innermost last. Its
  // capacity only grows, so a scope allocates nothing once it has converged.
  std::vector<std::size_t> marks_;
};

// RAII watermark: allocations made after construction are released (made
// reusable) on destruction. Scopes must nest like a stack. The watermarks
// live on the arena's own stack, so a scope performs no heap allocation
// after warm-up.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
  std::size_t base_;    // this scope's first entry in arena_.marks_
  std::size_t chunks_;  // chunks present at entry
};

// The calling thread's scratch arena.
Arena& tls_arena();

}  // namespace ber::kernels
