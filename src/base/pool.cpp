#include "base/pool.h"

#include <mutex>
#include <new>
#include <vector>

namespace es2::pool {
namespace detail {
namespace {

constexpr std::size_t kSlabBytes = 16 * 1024;

/// Process-wide state: every slab carved so far, and free chains handed
/// back by exited threads. Slab memory is never released (blocks may sit
/// on any thread's list), so the shelf is deliberately leaked and survives
/// static destruction; listing the slabs here keeps them reachable for
/// the leak checker, which does not follow the (poisoned) free links.
struct Shelf {
  std::mutex mu;
  std::vector<void*> slabs;
  std::vector<FreeBlock*> spilled[kNumClasses];
};

Shelf& shelf() {
  static Shelf* s = new Shelf();
  return *s;
}

/// Hands the exiting thread's lists to the shelf.
struct ThreadReturn {
  ~ThreadReturn() {
    Shelf& s = shelf();
    std::lock_guard<std::mutex> lock(s.mu);
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      if (t_free[c] != nullptr) s.spilled[c].push_back(t_free[c]);
      t_free[c] = nullptr;
    }
  }
};

}  // namespace

void* refill(std::size_t cls) {
  // Registers the thread-exit hand-back the first time this thread runs
  // dry (constructing a thread_local with a destructor arms it).
  thread_local ThreadReturn give_back;
  (void)give_back;
  const std::size_t block = (cls + 1) * kGranule;
  unsigned char* slab = nullptr;
  {
    Shelf& s = shelf();
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.spilled[cls].empty()) {
      t_free[cls] = s.spilled[cls].back();
      s.spilled[cls].pop_back();
    } else {
      slab = static_cast<unsigned char*>(
          ::operator new(kSlabBytes, std::align_val_t{kAlignment}));
      s.slabs.push_back(slab);
    }
  }
  if (slab != nullptr) {
    // Thread the slab onto the list back to front, so blocks are handed
    // out in address order.
    for (std::size_t off = kSlabBytes / block * block; off >= block;) {
      off -= block;
      deallocate(slab + off, block);
    }
  }
  return allocate(block);
}

}  // namespace detail

std::size_t slabs_allocated() {
  detail::Shelf& s = detail::shelf();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.slabs.size();
}

}  // namespace es2::pool
