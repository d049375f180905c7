#ifndef ATNN_TESTS_COMMON_COUNTING_ALLOCATOR_H_
#define ATNN_TESTS_COMMON_COUNTING_ALLOCATOR_H_

// A counting global allocator for zero-allocation tests: every operator
// new (plain, array, aligned and nothrow) bumps one counter, so a test can
// require that a window of warmed-up work leaves AllocationCount() where
// it found it.
//
// This header DEFINES the replaceable global operator new and delete.
// Include it in exactly one translation unit per test binary; a second
// inclusion in the same binary is a duplicate-symbol link error.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace atnn::counting_allocator {

/// True in ASan or TSan builds. Their runtimes allocate behind the
/// counter's back, so zero-allocation checks only report there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

inline std::atomic<uint64_t> g_allocations{0};

/// Global operator new calls so far in this process.
inline uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

inline void* CountedAlloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return alignment > alignof(std::max_align_t)
             ? std::aligned_alloc(alignment, (size + alignment - 1) /
                                                 alignment * alignment)
             : std::malloc(size);
}

// Out of line, so the compiler never pairs an inlined free() with an
// operator new it can see.
[[gnu::noinline]] inline void Release(void* ptr) { std::free(ptr); }

}  // namespace atnn::counting_allocator

void* operator new(std::size_t size) {
  void* ptr = atnn::counting_allocator::CountedAlloc(size, 0);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = atnn::counting_allocator::CountedAlloc(
      size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return atnn::counting_allocator::CountedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return atnn::counting_allocator::CountedAlloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return atnn::counting_allocator::CountedAlloc(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return atnn::counting_allocator::CountedAlloc(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* ptr) noexcept {
  atnn::counting_allocator::Release(ptr);
}
void operator delete[](void* ptr) noexcept {
  atnn::counting_allocator::Release(ptr);
}
void operator delete(void* ptr, std::size_t) noexcept {
  atnn::counting_allocator::Release(ptr);
}
void operator delete[](void* ptr, std::size_t) noexcept {
  atnn::counting_allocator::Release(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  atnn::counting_allocator::Release(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  atnn::counting_allocator::Release(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  atnn::counting_allocator::Release(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  atnn::counting_allocator::Release(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  atnn::counting_allocator::Release(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  atnn::counting_allocator::Release(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  atnn::counting_allocator::Release(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  atnn::counting_allocator::Release(ptr);
}

#endif  // ATNN_TESTS_COMMON_COUNTING_ALLOCATOR_H_
