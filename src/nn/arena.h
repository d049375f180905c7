#ifndef ATNN_NN_ARENA_H_
#define ATNN_NN_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/macros.h"

namespace atnn::nn {

/// Every arena hand-out is aligned to this many bytes so SIMD kernels can
/// assume 32-byte (AVX) alignment for tensor row-major buffers.
inline constexpr size_t kTensorAlignment = 32;

/// Bump-pointer allocator for step-scoped tensor storage.
///
/// A training step (or one batched inference forward) allocates dozens of
/// node outputs, gradients and op workspaces whose lifetimes all end
/// together when the step's graph is dropped. The arena turns each of those
/// heap round-trips into a pointer bump: `Checkpoint()` at the top of the
/// step, allocate freely, `Rewind()` at the bottom. Blocks grow
/// geometrically and are never returned to the OS until the arena dies with
/// its thread, so after the first few steps warm the arena, a steady-state
/// step performs zero heap allocations.
///
/// Lifetime rules (see DESIGN.md "Kernel & memory layer"):
///   - memory handed out after a checkpoint is INVALID after the matching
///     Rewind(); nothing with a longer lifetime may live in it,
///   - each arena belongs to one thread (use ThreadArena()); marks must be
///     rewound on the thread that made them, LIFO-nested,
///   - rewinding never runs destructors — only trivially-destructible
///     payloads (tensor buffers) or objects destroyed before the rewind may
///     use arena storage.
class TensorArena {
 public:
  /// A cursor into the arena; see Checkpoint()/Rewind().
  struct Mark {
    size_t block_index = 0;
    size_t offset = 0;
    size_t used_before = 0;
  };

  TensorArena() = default;
  ~TensorArena();

  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  /// Returns `bytes` of kTensorAlignment-aligned storage. The contents are
  /// uninitialized. bytes == 0 returns a non-null aligned pointer.
  void* Allocate(size_t bytes);

  float* AllocateFloats(size_t count) {
    ATNN_CHECK(count <= std::numeric_limits<size_t>::max() / sizeof(float));
    return static_cast<float*>(Allocate(count * sizeof(float)));
  }

  /// Captures the current bump position.
  Mark Checkpoint() const {
    return Mark{block_index_, offset_, used_before_current_};
  }

  /// Releases everything allocated since `mark` (LIFO order required).
  void Rewind(const Mark& mark) {
    ATNN_DCHECK(mark.block_index < blocks_.size() ||
                (mark.block_index == 0 && blocks_.empty()));
    block_index_ = mark.block_index;
    offset_ = mark.offset;
    used_before_current_ = mark.used_before;
  }

  /// Bytes currently handed out (bump cursor position).
  size_t BytesInUse() const { return used_before_current_ + offset_; }
  /// Largest BytesInUse() ever observed — the steady-state workspace size.
  size_t HighWaterMark() const { return high_water_; }
  /// Total bytes reserved from the heap across all blocks.
  size_t BytesReserved() const { return reserved_; }

 private:
  struct Block {
    std::byte* data = nullptr;
    size_t size = 0;
  };

  void AddBlock(size_t min_size);

  std::vector<Block> blocks_;
  size_t block_index_ = 0;
  size_t offset_ = 0;
  /// Sum of sizes of blocks before blocks_[block_index_].
  size_t used_before_current_ = 0;
  size_t high_water_ = 0;
  size_t reserved_ = 0;
};

/// The calling thread's arena. Created on first use, freed at thread exit.
TensorArena& ThreadArena();

/// True while the calling thread is inside at least one ArenaScope;
/// step-scoped tensors (node outputs, gradients, op workspaces) then draw
/// from ThreadArena().
bool ArenaActive();

/// RAII step scope: checkpoint the thread arena on entry, rewind on exit.
/// Declare it BEFORE any Var/Tensor local whose storage should live in the
/// scope (C++ destroys locals in reverse order, so the rewind then runs
/// after every tensor referencing arena memory is gone). Nests LIFO.
class ArenaScope {
 public:
  ArenaScope();
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  TensorArena::Mark mark_;
};

/// Allocates `bytes` + a 16-byte origin header; used by ArenaStdAllocator.
/// Draws from the thread arena when a scope is active, else the heap; the
/// header makes deallocation correct either way (and on any thread).
void* TaggedAllocate(size_t bytes);
void TaggedDeallocate(void* ptr);

/// std-compatible allocator over TaggedAllocate. Containers built inside an
/// ArenaScope live in the arena (freeing is a no-op, the rewind reclaims);
/// outside a scope they fall back to the heap. Safe for
/// std::allocate_shared: a control block freed on another thread after the
/// scope ended is recognized as heap- or arena-backed via its header.
template <typename T>
struct ArenaStdAllocator {
  using value_type = T;
  static_assert(alignof(T) <= 16,
                "ArenaStdAllocator supports alignment <= 16 (header size)");

  ArenaStdAllocator() = default;
  template <typename U>
  ArenaStdAllocator(const ArenaStdAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    ATNN_CHECK(n <= std::numeric_limits<size_t>::max() / sizeof(T));
    return static_cast<T*>(TaggedAllocate(n * sizeof(T)));
  }
  void deallocate(T* ptr, size_t) { TaggedDeallocate(ptr); }

  template <typename U>
  bool operator==(const ArenaStdAllocator<U>&) const {
    return true;
  }
};

}  // namespace atnn::nn

#endif  // ATNN_NN_ARENA_H_
