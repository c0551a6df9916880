// Size-classed block pool for small per-operation objects.
//
// The packet path creates and destroys a few small objects per simulated
// packet: oversize continuation captures (sim/callback.h) and packet
// metadata nodes (net/packet.h). Both draw fixed-size blocks from here
// instead of the global heap, so the steady state performs no heap
// allocation at all.
//
// Ownership model. A world (one Simulator and everything hanging off it)
// runs on one thread, so the hot path needs no locking:
//
//  * every thread keeps one free list per size class (`thread_local`,
//    trivially destructible, so access is a plain TLS load);
//  * free lists are refilled from process-wide slabs that are never
//    returned to the system. Blocks therefore stay valid for the whole
//    process, whichever thread's list they end up on — a block freed on a
//    different thread than the one that allocated it simply joins the
//    freeing thread's list;
//  * when a thread exits, its lists are handed to a shared spill shelf
//    (under a mutex) that later refills reuse, so short-lived worker
//    threads (ParallelRunner cells) do not strand memory.
//
// Under AddressSanitizer free blocks are poisoned, so a use-after-free of
// a pooled object is still reported even though the memory never goes
// back to malloc.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define ES2_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ES2_POOL_ASAN 1
#endif
#endif

#if defined(ES2_POOL_ASAN)
#include <sanitizer/asan_interface.h>
#define ES2_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define ES2_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define ES2_POOL_POISON(p, n) ((void)(p), (void)(n))
#define ES2_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace es2::pool {

/// Blocks come in multiples of kGranule bytes up to kMaxBlock. Every
/// block is aligned to kAlignment (slabs are, and sizes are multiples).
inline constexpr std::size_t kGranule = 32;
inline constexpr std::size_t kMaxBlock = 512;
inline constexpr std::size_t kNumClasses = kMaxBlock / kGranule;
inline constexpr std::size_t kAlignment = 16;

constexpr std::size_t size_class(std::size_t bytes) {
  return bytes <= kGranule ? 0 : (bytes - 1) / kGranule;
}

namespace detail {

struct FreeBlock {
  FreeBlock* next;
};

/// Per-thread free-list heads, one per size class.
inline thread_local FreeBlock* t_free[kNumClasses] = {};

/// Refills the calling thread's list for `cls` (spill shelf first, then a
/// fresh slab) and returns one block. Out of line: the cold path.
void* refill(std::size_t cls);

}  // namespace detail

/// Pops a block of at least `bytes` (<= kMaxBlock) bytes.
inline void* allocate(std::size_t bytes) {
  const std::size_t cls = size_class(bytes);
  detail::FreeBlock*& head = detail::t_free[cls];
  detail::FreeBlock* b = head;
  if (b == nullptr) return detail::refill(cls);
  ES2_POOL_UNPOISON(b, (cls + 1) * kGranule);
  head = b->next;
  return b;
}

/// Returns a block obtained from allocate() with the same `bytes`.
inline void deallocate(void* p, std::size_t bytes) noexcept {
  const std::size_t cls = size_class(bytes);
  auto* b = static_cast<detail::FreeBlock*>(p);
  b->next = detail::t_free[cls];
  detail::t_free[cls] = b;
  ES2_POOL_POISON(b, (cls + 1) * kGranule);
}

/// Process-wide slab growth so far (one count per slab carved). Steady
/// state keeps this flat; tests print it next to allocation counts.
std::size_t slabs_allocated();

}  // namespace es2::pool
