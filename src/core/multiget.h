// Point-lookup plumbing shared by DBImpl, the engines and the table layer.
// Every point read is a batch: DBImpl::Get is a batch of one.  DBImpl
// builds one MultiGetRequest per key, probes mem/imm, then hands the
// still-pending requests, sorted by internal key, to TreeEngine::MultiGet.
// Each layer resolves what it can and leaves the rest pending for the
// next-older data; a resolved() request is final and must be skipped by
// everything below.
#pragma once

#include <algorithm>
#include <string>

#include "core/dbformat.h"
#include "util/status.h"

namespace iamdb {

struct MultiGetRequest {
  enum class State { kPending, kFound, kDeleted };

  // Inputs, set once by DBImpl.  The LookupKey carries the
  // batch's snapshot sequence, so internal-key order over a batch equals
  // user-key order.
  const LookupKey* lkey = nullptr;
  std::string* value = nullptr;

  // Resolution.  A non-OK status (corruption, I/O error, Incomplete) is
  // final whatever the state.
  State state = State::kPending;
  Status status;

  bool resolved() const { return state != State::kPending || !status.ok(); }
};

// Whether any of reqs[0, count) still waits for older data.
inline bool AnyPending(MultiGetRequest* const* reqs, size_t count) {
  return std::any_of(reqs, reqs + count, [](const MultiGetRequest* r) {
    return !r->resolved();
  });
}

}  // namespace iamdb
