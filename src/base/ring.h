// Growable power-of-two ring FIFO.
//
// The packet-path queues (virtqueue avail/used rings, the vhost socket
// buffer and worker activation list) are FIFOs whose depth is bounded by
// the model — a ring capacity, a socket-buffer limit, the number of
// handlers. `Ring` keeps them in one contiguous power-of-two array: push
// and pop are an index mask, and once the array has reached the model's
// bound (or was reserved up front) nothing allocates again. It grows by
// doubling when full; it never overwrites.
//
// Slots hold default-constructed values when empty, so popping resets the
// slot (a popped PacketPtr releases its reference immediately).
// Iteration runs front to back, in FIFO order.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>

#include "base/assert.h"

namespace es2 {

template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return mask_ + (slots_ ? 1 : 0); }

  /// Grows the array (to the next power of two) so `n` entries fit
  /// without further allocation.
  void reserve(std::size_t n) {
    if (n > capacity()) regrow(n);
  }

  T& front() { return at(0); }
  const T& front() const { return at(0); }
  T& operator[](std::size_t i) { return at(i); }
  const T& operator[](std::size_t i) const { return at(i); }

  void push_back(T value) {
    if (size_ == capacity()) regrow(size_ + 1);
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  /// Removes the front entry, leaving its slot default-constructed.
  void pop_front() {
    ES2_DCHECK(size_ > 0);
    slots_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Moves the front entry out and pops it.
  T take_front() {
    T value = std::move(front());
    pop_front();
    return value;
  }

  /// Removes entry `i` (counted from the front), keeping the order of the
  /// rest. O(size - i).
  void erase_at(std::size_t i) {
    ES2_DCHECK(i < size_);
    for (std::size_t j = i; j + 1 < size_; ++j) at(j) = std::move(at(j + 1));
    at(size_ - 1) = T{};
    --size_;
  }

  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  template <typename R, typename V>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = V*;
    using reference = V&;
    Iter(R* ring, std::size_t i) : ring_(ring), i_(i) {}
    V& operator*() const { return (*ring_)[i_]; }
    V* operator->() const { return &(*ring_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    R* ring_;
    std::size_t i_;
  };
  using iterator = Iter<Ring, T>;
  using const_iterator = Iter<const Ring, const T>;
  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  T& at(std::size_t i) {
    ES2_DCHECK(i < size_);
    return slots_[(head_ + i) & mask_];
  }
  const T& at(std::size_t i) const {
    ES2_DCHECK(i < size_);
    return slots_[(head_ + i) & mask_];
  }

  void regrow(std::size_t need) {
    std::size_t cap = 8;
    while (cap < need) cap *= 2;
    auto grown = std::make_unique<T[]>(cap);
    for (std::size_t i = 0; i < size_; ++i) grown[i] = std::move(at(i));
    slots_ = std::move(grown);
    mask_ = cap - 1;
    head_ = 0;
  }

  std::unique_ptr<T[]> slots_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace es2
