#include "nn/arena.h"

#include <new>

namespace atnn::nn {

namespace {

constexpr size_t kFirstBlockBytes = size_t{1} << 16;  // 64 KiB

size_t RoundUpToAlignment(size_t bytes) {
  ATNN_CHECK(bytes <= std::numeric_limits<size_t>::max() - kTensorAlignment);
  return (bytes + kTensorAlignment - 1) & ~(kTensorAlignment - 1);
}

thread_local int t_scope_depth = 0;

}  // namespace

TensorArena::~TensorArena() {
  for (Block& block : blocks_) {
    ::operator delete(block.data, std::align_val_t{kTensorAlignment});
  }
}

void TensorArena::AddBlock(size_t min_size) {
  size_t size = blocks_.empty() ? kFirstBlockBytes : blocks_.back().size * 2;
  if (size < min_size) size = RoundUpToAlignment(min_size);
  auto* data = static_cast<std::byte*>(
      ::operator new(size, std::align_val_t{kTensorAlignment}));
  blocks_.push_back(Block{data, size});
  reserved_ += size;
}

void* TensorArena::Allocate(size_t bytes) {
  const size_t need = RoundUpToAlignment(bytes);
  // Find the first block from the cursor onward with room; blocks grow
  // geometrically so at most a few advances happen before AddBlock.
  while (true) {
    if (block_index_ < blocks_.size()) {
      Block& block = blocks_[block_index_];
      if (offset_ + need <= block.size) {
        void* ptr = block.data + offset_;
        offset_ += need;
        const size_t in_use = used_before_current_ + offset_;
        if (in_use > high_water_) high_water_ = in_use;
        return ptr;
      }
      used_before_current_ += block.size;
      ++block_index_;
      offset_ = 0;
      continue;
    }
    AddBlock(need);
  }
}

TensorArena& ThreadArena() {
  static thread_local TensorArena arena;
  return arena;
}

bool ArenaActive() { return t_scope_depth > 0; }

ArenaScope::ArenaScope() : mark_(ThreadArena().Checkpoint()) {
  ++t_scope_depth;
}

ArenaScope::~ArenaScope() {
  --t_scope_depth;
  ThreadArena().Rewind(mark_);
}

namespace {

// Origin header preceding every TaggedAllocate hand-out. 16 bytes keeps the
// payload 16-aligned on both paths (arena blocks are 32-aligned; operator
// new is at least 16-aligned on x86-64).
struct alignas(16) TagHeader {
  uint64_t tag;
  uint64_t unused;
};
static_assert(sizeof(TagHeader) == 16);

constexpr uint64_t kArenaTag = 0xA7E4A110C0DE0001ull;
constexpr uint64_t kHeapTag = 0xA7E4A110C0DE0002ull;

}  // namespace

void* TaggedAllocate(size_t bytes) {
  ATNN_CHECK(bytes <= std::numeric_limits<size_t>::max() - sizeof(TagHeader));
  const size_t total = bytes + sizeof(TagHeader);
  TagHeader* header;
  if (ArenaActive()) {
    header = static_cast<TagHeader*>(ThreadArena().Allocate(total));
    header->tag = kArenaTag;
  } else {
    header = static_cast<TagHeader*>(::operator new(total));
    header->tag = kHeapTag;
  }
  return header + 1;
}

void TaggedDeallocate(void* ptr) {
  if (ptr == nullptr) return;
  TagHeader* header = static_cast<TagHeader*>(ptr) - 1;
  if (header->tag == kHeapTag) {
    ::operator delete(header);
    return;
  }
  // Arena-backed: reclaimed wholesale by the scope's rewind. The tag check
  // still catches double frees / wild pointers.
  ATNN_CHECK(header->tag == kArenaTag) << "TaggedDeallocate: corrupt header";
}

}  // namespace atnn::nn
