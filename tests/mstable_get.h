// Single-key point read of one MSTable for table-layer tests: a
// one-request MSTableReader::MultiGet, the same call the engines make.
#pragma once

#include <string>

#include "core/dbformat.h"
#include "core/multiget.h"
#include "table/mstable.h"

namespace iamdb {

// Looks up `ikey`'s user key at `ikey`'s sequence.  *state is the request's
// final state (kPending: no version in this table); the return value is
// its status.
inline Status TableGet(const MSTableReader& reader, const ReadOptions& options,
                       const Slice& ikey, std::string* value,
                       MultiGetRequest::State* state) {
  ParsedInternalKey parsed;
  if (!ParseInternalKey(ikey, &parsed)) {
    return Status::InvalidArgument("bad lookup key");
  }
  LookupKey lkey(parsed.user_key, parsed.sequence);
  MultiGetRequest req;
  req.lkey = &lkey;
  req.value = value;
  MultiGetRequest* reqs[] = {&req};
  reader.MultiGet(options, reqs, 1);
  *state = req.state;
  return req.status;
}

}  // namespace iamdb
