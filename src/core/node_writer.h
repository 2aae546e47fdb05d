// Node output and compaction input, shared by both engines.
//
// NodeWriter is the one path from a sorted record stream to new node
// files: every flush, merge, split and subcompaction writes its outputs
// through it (DESIGN.md, "Node output").
//
//  * Cuts: a new file starts only at a user-key boundary, once the open
//    file holds `cut_bytes` of logical data, or where the caller calls
//    Cut().  All versions of a user key stay in one file, so node ranges
//    in a level stay user-key-disjoint.
//  * Numbers: a file's number and node id are allocated under the DB mutex
//    when its first record arrives, so a stream that yields nothing
//    allocates nothing.
//  * Outputs: each finished file becomes a NodeMeta whose range is its own
//    data span; callers widen outer ranges where their policy says so.
//  * Failure: unless Finish() succeeded, the destructor removes the open
//    file and marks every finished output obsolete.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compaction_stream.h"
#include "core/version.h"
#include "table/mstable.h"

namespace iamdb {

class DBImpl;

class NodeWriter {
 public:
  // cut_bytes == UINT64_MAX: files are cut only by Cut().
  NodeWriter(DBImpl* db, uint64_t cut_bytes);
  ~NodeWriter();

  NodeWriter(const NodeWriter&) = delete;
  NodeWriter& operator=(const NodeWriter&) = delete;

  // The first output keeps `node_id` instead of taking a fresh one (an
  // empty placeholder getting its first file).
  void set_first_node_id(uint64_t node_id) { first_node_id_ = node_id; }

  // Records arrive in internal-key order.  Mutex NOT held.
  Status Add(const Slice& internal_key, const Slice& value);
  // Adds the stream's records up to, not including, the first whose user
  // key is >= *stop (all of them when stop is null); then the stream's
  // status.
  Status AddStream(CompactionStream* stream, const Slice* stop = nullptr);
  // Ends the open file, if any; the next record starts a new one.
  Status Cut();
  // Ends the open file and keeps the outputs.
  Status Finish();

  // Finished outputs in key order, and their summed data and metadata
  // bytes.
  const std::vector<NodePtr>& outputs() const { return outputs_; }
  uint64_t data_bytes() const { return data_bytes_; }
  uint64_t meta_bytes() const { return meta_bytes_; }

 private:
  Status OpenFile();

  DBImpl* const db_;
  const uint64_t cut_bytes_;
  uint64_t first_node_id_ = 0;
  std::unique_ptr<MSTableWriter> file_;
  uint64_t file_number_ = 0;
  uint64_t node_id_ = 0;
  // Set once the open file holds cut_bytes_; from then on last_user_key_
  // tracks the newest record, and the next new user key starts a file.
  bool cut_due_ = false;
  std::string last_user_key_;
  std::vector<NodePtr> outputs_;
  uint64_t data_bytes_ = 0;
  uint64_t meta_bytes_ = 0;
  bool finished_ = false;
};

// Opens the sequences of `nodes` as one merged compaction input, after
// the iterators already in `iters` (whose ownership passes in): no cache
// fill, reads paced by the background rate limiter.  On error every
// iterator is freed and *input is null.
Status NewCompactionInput(DBImpl* db, const std::vector<NodePtr>& nodes,
                          std::vector<Iterator*> iters, Iterator** input);

}  // namespace iamdb
