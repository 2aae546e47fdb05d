// EpochBanks: the reader half of two-bank epoch reclamation (as in
// userspace-RCU), shared by PublishedPtr (util/published_ptr.h) and
// ReadHorizon (below); each owns its banks.  A reader Enter()s its thread
// slot's counter for the current epoch's bank, re-checks the epoch
// (bouncing if a flip raced it) and leaves when its Guard drops: wait-free
// absent flips, never blocked.  The writer (callers serialize it) Flip()s,
// then samples DrainedBanks(): once EACH bank has been seen empty after a
// flip, every reader that entered before it is gone.  The seq_cst pairing
// — writer flips then reads counters, reader increments then re-reads the
// epoch — means the writer sees the increment or the reader the flip.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace iamdb {

class EpochBanks {
 public:
  static constexpr unsigned kBothDrained = 0b11;  // DrainedBanks() mask

  class Guard {
   public:
    Guard(Guard&& other) noexcept : bank_(other.bank_) {
      other.bank_ = nullptr;
    }
    ~Guard() {
      if (bank_ != nullptr) bank_->fetch_sub(1, std::memory_order_release);
    }

   private:
    friend class EpochBanks;
    explicit Guard(std::atomic<uint64_t>* bank) : bank_(bank) {}
    std::atomic<uint64_t>* bank_;
  };

  Guard Enter() const {
    Slot& slot = slots_[ThreadSlotIndex()];
    for (;;) {
      const uint64_t e = epoch_.load(std::memory_order_seq_cst);
      std::atomic<uint64_t>& bank = slot.count[e & 1];
      bank.fetch_add(1, std::memory_order_seq_cst);
      if (epoch_.load(std::memory_order_seq_cst) == e) return Guard(&bank);
      bank.fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  void Flip() { epoch_.fetch_add(1, std::memory_order_seq_cst); }

  // Bit b is set iff bank b held no reader when sampled.
  unsigned DrainedBanks() const {
    unsigned drained = 0;
    for (int b = 0; b < 2; b++) {
      uint64_t readers = 0;
      for (const Slot& slot : slots_) {
        readers += slot.count[b].load(std::memory_order_seq_cst);
      }
      if (readers == 0) drained |= 1u << b;
    }
    return drained;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> count[2] = {{0}, {0}};
  };
  static constexpr int kSlots = 16;

  static size_t ThreadSlotIndex() {
    static std::atomic<size_t> next{0};
    thread_local const size_t assigned =
        next.fetch_add(1, std::memory_order_relaxed);
    return assigned & (kSlots - 1);
  }

  std::atomic<uint64_t> epoch_{0};
  mutable Slot slots_[kSlots];
};

// ReadHorizon: a read Enter()s BEFORE it loads the committed sequence and
// leaves after its last probe.  Advance(committed), `committed` loaded just
// before the call, starts an epoch with that floor and returns the lowest
// floor not retired — never above an in-flight read's sequence (proof:
// docs/CONCURRENCY.md).  A floor retires once both banks were seen empty
// after its epoch ended, so with no read in flight Advance returns
// `committed`.  Pending floors are kept as the minimum per drained mask.
class ReadHorizon {
 public:
  using Guard = EpochBanks::Guard;

  Guard Enter() const { return banks_.Enter(); }

  // REQUIRES: calls are serialized and `committed` never decreases.
  uint64_t Advance(uint64_t committed) {
    pending_[0] = std::min(pending_[0], floor_);  // the epoch ending now
    banks_.Flip();
    floor_ = committed;
    const unsigned drained = banks_.DrainedBanks();
    uint64_t next[3] = {kNone, kNone, kNone};
    for (unsigned mask = 0; mask < 3; mask++) {
      if ((mask | drained) != EpochBanks::kBothDrained) {
        next[mask | drained] = std::min(next[mask | drained], pending_[mask]);
      }
    }
    std::copy(next, next + 3, pending_);
    return std::min({pending_[0], pending_[1], pending_[2], committed});
  }

 private:
  static constexpr uint64_t kNone = UINT64_MAX;

  EpochBanks banks_;
  uint64_t floor_ = 0;  // the current epoch's floor
  uint64_t pending_[3] = {kNone, kNone, kNone};
};

}  // namespace iamdb
