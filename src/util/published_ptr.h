// PublishedPtr<T>: a single-writer-at-a-time, many-reader published pointer
// with epoch-based reclamation — the publication primitive behind the
// lock-free read path (DBImpl's ReadView, the engines' TreeVersion).
//
// Not std::atomic<std::shared_ptr<T>>: libstdc++'s takes a lock bit and a
// refcount RMW per load, and TSan rightly reports its relaxed reader
// unlock (docs/CONCURRENCY.md, "PublishedPtr").
//
// Protocol: readers enter an EpochBanks epoch (util/epoch_banks.h) and
// read the raw pointer.  Store (callers serialize it; here, the DB mutex)
// swaps the pointer, retires the old one, flips, and frees a retired
// pointer once each bank has been seen drained since its retirement: any
// holder entered before it, and later readers load the newer pointer.
// Reclamation is deferred, not blocking — a retired pointer left by a busy
// bank is freed by a later Store or the destructor, which requires all
// readers gone.
#pragma once

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "util/epoch_banks.h"

namespace iamdb {

template <typename T>
class PublishedPtr {
 public:
  explicit PublishedPtr(std::shared_ptr<T> initial = nullptr)
      : ptr_(new std::shared_ptr<T>(std::move(initial))) {}

  PublishedPtr(const PublishedPtr&) = delete;
  PublishedPtr& operator=(const PublishedPtr&) = delete;

  // REQUIRES: no live ReadGuard and no concurrent calls.
  ~PublishedPtr() {
    delete ptr_.load(std::memory_order_relaxed);
    for (Retired& r : retired_) delete r.ptr;
  }

  // RAII epoch membership: the pointee is guaranteed alive while the guard
  // lives.  Keep guards short (one operation) — a held guard delays
  // reclamation of every pointer retired after it was acquired.
  class ReadGuard {
   public:
    T* get() const { return value_; }
    T* operator->() const { return value_; }
    T& operator*() const { return *value_; }

   private:
    friend class PublishedPtr;
    ReadGuard(T* value, EpochBanks::Guard membership)
        : value_(value), membership_(std::move(membership)) {}

    T* value_;
    EpochBanks::Guard membership_;
  };

  // Lock-free fast path: no refcount traffic, two counter RMWs total.
  ReadGuard Acquire() const {
    EpochBanks::Guard membership = banks_.Enter();
    return ReadGuard(ptr_.load(std::memory_order_acquire)->get(),
                     std::move(membership));
  }

  // A real shared_ptr for callers that pin the value beyond one operation
  // (iterators, stats, manifest writing).
  std::shared_ptr<T> Snapshot() const {
    ReadGuard guard = Acquire();
    // The heap shared_ptr object is immutable after publication and cannot
    // be reclaimed while the guard is held; copying bumps the refcount.
    return *ptr_.load(std::memory_order_acquire);
  }

  // REQUIRES: stores are serialized by the caller (DB mutex).  Readers are
  // never blocked; old values are reclaimed once provably unreferenced.
  void Store(std::shared_ptr<T> desired) {
    auto* fresh = new std::shared_ptr<T>(std::move(desired));
    std::shared_ptr<T>* old =
        ptr_.exchange(fresh, std::memory_order_acq_rel);
    retired_.push_back(Retired{old, 0});
    banks_.Flip();
    Collect();
  }

  // Retired pointers awaiting proof of quiescence (diagnostics/tests).
  size_t retired_count() const { return retired_.size(); }

 private:
  struct Retired {
    std::shared_ptr<T>* ptr;
    unsigned drained_banks;  // bitmask of banks observed empty since retire
  };

  // Caller serialized (same contract as Store).
  void Collect() {
    const unsigned drained = banks_.DrainedBanks();
    if (drained == 0) return;
    size_t kept = 0;
    for (Retired& r : retired_) {
      r.drained_banks |= drained;
      if (r.drained_banks == EpochBanks::kBothDrained) {
        delete r.ptr;
      } else {
        retired_[kept++] = r;
      }
    }
    retired_.resize(kept);
  }

  std::atomic<std::shared_ptr<T>*> ptr_;
  EpochBanks banks_;
  std::vector<Retired> retired_;  // writer-side only (serialized)
};

}  // namespace iamdb
