#include "kernels/arena.h"

#include <algorithm>

#include "obs/kernel_stats.h"

namespace ber::kernels {

float* Arena::alloc(std::size_t n) {
  for (Chunk& c : chunks_) {
    if (c.used + n <= c.buf.size()) {
      float* p = c.buf.data() + c.used;
      c.used += n;
      return p;
    }
  }
  // Grow geometrically so capacity converges after a few calls even when
  // shapes vary; existing chunks are left in place (stable pointers).
  Chunk c;
  c.buf.resize(std::max(n, 2 * capacity()));
  c.used = n;
  chunks_.push_back(std::move(c));
  // Growth is rare (capacity converges), so the high-water gauge update
  // stays off the steady-state alloc path.
  obs::note_arena_capacity(capacity() * sizeof(float));
  return chunks_.back().buf.data();
}

void Arena::reset() {
  for (Chunk& c : chunks_) c.used = 0;
}

std::size_t Arena::capacity() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.buf.size();
  return total;
}

std::size_t Arena::used() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.used;
  return total;
}

ArenaScope::ArenaScope(Arena& arena)
    : arena_(arena),
      base_(arena.marks_.size()),
      chunks_(arena.chunks_.size()) {
  for (const Arena::Chunk& c : arena_.chunks_) arena_.marks_.push_back(c.used);
}

ArenaScope::~ArenaScope() {
  // Chunks present at entry rewind to their watermark; chunks added inside
  // the scope become fully reusable.
  for (std::size_t i = 0; i < arena_.chunks_.size(); ++i) {
    arena_.chunks_[i].used = i < chunks_ ? arena_.marks_[base_ + i] : 0;
  }
  arena_.marks_.resize(base_);
}

Arena& tls_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace ber::kernels
