// MSTable (Multiple Sequence Table): the on-disk node of the LSA/IAM trees,
// and — with exactly one sequence — the SSTable of the leveled baseline.
//
// Three roles:
//  * MSTableWriter   — create a new node file with one sequence.
//  * MSTableAppender — append one more sequence to an existing node,
//                      rewriting the clustered metadata region at the end
//                      (the paper's append compaction, Sec 4).
//  * MSTableReader   — open a node at a recorded `meta_end`, read the whole
//                      metadata region in one contiguous I/O, and serve
//                      point reads (newest sequence first, bloom-guarded)
//                      and merged scans.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/options.h"
#include "env/env.h"
#include "table/format.h"
#include "table/sequence_builder.h"
#include "table/sequence_reader.h"
#include "table/table_options.h"

namespace iamdb {

// What a finished write/append looks like to the engine's metadata.
struct MSTableBuildResult {
  uint64_t meta_end = 0;         // valid size: offset just past the trailer
  uint64_t data_bytes = 0;       // live data bytes across ALL sequences
  uint64_t new_data_bytes = 0;   // data bytes written by THIS operation
  uint64_t meta_bytes = 0;       // metadata bytes written by this operation
  uint64_t num_entries = 0;      // entries across all sequences
  uint32_t seq_count = 0;
  std::string smallest;          // internal keys across all sequences
  std::string largest;
};

class MSTableReader;

// Builds a brand-new single-sequence node.
class MSTableWriter {
 public:
  MSTableWriter(Env* env, const TableOptions& options, std::string fname);
  // Deletes the file unless Finish succeeded (or Open never created it).
  ~MSTableWriter();

  MSTableWriter(const MSTableWriter&) = delete;
  MSTableWriter& operator=(const MSTableWriter&) = delete;

  Status Open();
  Status Add(const Slice& internal_key, const Slice& value);
  // Bytes of data blocks emitted so far (compactions cut output nodes on
  // this).
  uint64_t EstimatedDataBytes() const;
  uint64_t NumEntries() const;
  Status Finish(bool sync, MSTableBuildResult* result);

 private:
  Env* env_;
  const TableOptions options_;
  std::string fname_;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<SequenceBuilder> builder_;
  bool finished_ = false;
};

// Appends one sequence to an existing node.  The previous metadata region
// is abandoned in place (becomes a hole, reclaimed on merge/split) and a
// fresh region covering all sequences is written at the new end.
class MSTableAppender {
 public:
  // `existing` supplies the prior sequences' metadata (copied out, so the
  // reader may be released before Finish).
  MSTableAppender(Env* env, const TableOptions& options, std::string fname,
                  const MSTableReader& existing);
  // Closes the file.  An unfinished append leaves bytes past the recorded
  // meta_end, which readers never consult.
  ~MSTableAppender();

  MSTableAppender(const MSTableAppender&) = delete;
  MSTableAppender& operator=(const MSTableAppender&) = delete;

  Status Open();
  Status Add(const Slice& internal_key, const Slice& value);
  uint64_t NumEntries() const;
  Status Finish(bool sync, MSTableBuildResult* result);

 private:
  struct PriorSequence {
    SequenceMeta meta;
    std::string index_contents;
    std::string bloom_contents;
  };

  Env* env_;
  const TableOptions options_;
  std::string fname_;
  uint32_t format_version_;  // inherited from the existing file
  std::vector<PriorSequence> prior_;
  uint64_t prior_data_bytes_ = 0;
  uint64_t prior_entries_ = 0;
  std::string prior_smallest_, prior_largest_;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<SequenceBuilder> builder_;
  uint64_t start_offset_ = 0;
  bool finished_ = false;
};

class MSTableReader {
 public:
  // Opens the node whose metadata trailer ends at `meta_end` (recorded in
  // the manifest; bytes past it are ignored).
  static Status Open(Env* env, const TableOptions& options,
                     const InternalKeyComparator* cmp,
                     const std::string& fname, uint64_t file_number,
                     uint64_t meta_end,
                     std::shared_ptr<MSTableReader>* reader);

  MSTableReader(const MSTableReader&) = delete;
  MSTableReader& operator=(const MSTableReader&) = delete;

  int seq_count() const { return static_cast<int>(sequences_.size()); }
  // Format version from the trailer magic; appenders inherit it so a file
  // never mixes block framings.
  uint32_t format_version() const { return format_version_; }
  // i = 0 is the OLDEST sequence; seq_count()-1 the newest.
  const SequenceReader& sequence(int i) const { return *sequences_[i]; }

  uint64_t total_data_bytes() const { return total_data_bytes_; }
  uint64_t total_entries() const { return total_entries_; }
  Slice smallest() const { return smallest_; }
  Slice largest() const { return largest_; }

  // Point lookup of reqs[0, count), sorted by internal key; resolved
  // requests are skipped.  Sequences are probed newest first, each with the
  // keys the younger ones left pending, so the first version found with
  // sequence <= a key's lookup sequence is the visible one (upper sequences
  // hold newer data).  Per-key outcomes land in each request's
  // state/status; see SequenceReader::MultiGet.
  void MultiGet(const ReadOptions& options, MultiGetRequest* const* reqs,
                size_t count) const;

  // Merged iterator over all sequences (newest-first tie order).
  Iterator* NewIterator(const ReadOptions& options) const;

  // Iterators for each sequence, appended to *out (newest first).
  void AddSequenceIterators(const ReadOptions& options,
                            std::vector<Iterator*>* out) const;

 private:
  MSTableReader() = default;

  const InternalKeyComparator* cmp_ = nullptr;
  uint32_t format_version_ = kCurrentFormatVersion;
  std::unique_ptr<RandomAccessFile> file_;
  std::vector<std::unique_ptr<SequenceReader>> sequences_;
  uint64_t total_data_bytes_ = 0;
  uint64_t total_entries_ = 0;
  std::string smallest_, largest_;
};

}  // namespace iamdb
