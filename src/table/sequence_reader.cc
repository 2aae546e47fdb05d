#include "table/sequence_reader.h"

#include <chrono>

#include "table/compressor.h"
#include "table/two_level_iterator.h"
#include "util/rate_limiter.h"

namespace iamdb {

SequenceReader::SequenceReader(const TableOptions& options,
                               const InternalKeyComparator* cmp,
                               RandomAccessFile* file, uint64_t file_number,
                               SequenceMeta meta, std::string index_contents,
                               std::string bloom_contents,
                               uint32_t format_version)
    : options_(options),
      cmp_(cmp),
      bloom_policy_(options.bloom_bits_per_key),
      file_(file),
      file_number_(file_number),
      format_version_(format_version),
      meta_(std::move(meta)),
      index_contents_raw_(index_contents),  // keep a copy for appenders
      bloom_contents_(std::move(bloom_contents)),
      index_block_(std::move(index_contents)) {}

bool SequenceReader::KeyMayMatch(const Slice& user_key) const {
  return bloom_policy_.KeyMayMatch(user_key, bloom_contents_);
}

std::shared_ptr<const Block> SequenceReader::FinishBlock(
    const ReadOptions& options, const BlockCacheKey& key, std::string&& stored,
    CompressionType type, bool from_compressed_tier, Status* s) const {
  if (type != CompressionType::kNone && !from_compressed_tier &&
      options_.compressed_block_cache != nullptr && options.fill_cache) {
    auto cached = std::make_shared<CompressedBlock>();
    cached->data = stored;  // copy: `stored` is decompressed below
    cached->type = type;
    // The compressed tier is charged at stored (on-disk) size.  IfAbsent:
    // a concurrent reader that missed on the same block may have filled it
    // already; replacing would charge the block twice transiently and
    // churn the LRU.
    options_.compressed_block_cache->InsertIfAbsent(key, std::move(cached),
                                                    stored.size());
  }

  std::string contents = std::move(stored);
  if (type != CompressionType::kNone) {
    const auto start = std::chrono::steady_clock::now();
    std::string raw;
    *s = DecompressBlock(type, Slice(contents), &raw);
    if (!s->ok()) return nullptr;
    if (options_.compression_stats != nullptr) {
      const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      options_.compression_stats->decompressed_blocks.fetch_add(
          1, std::memory_order_relaxed);
      options_.compression_stats->decompress_micros.fetch_add(
          static_cast<uint64_t>(micros), std::memory_order_relaxed);
    }
    contents = std::move(raw);
  }

  auto block = std::make_shared<const Block>(std::move(contents));
  if (options_.block_cache != nullptr && options.fill_cache) {
    // Charge the uncompressed (resident) size, not the on-disk stored size:
    // the cache models memory, and a decompressed block occupies its full
    // logical size regardless of the codec.  Losing the fill race adopts
    // the resident copy so two lookups never hold two heap copies alive.
    return std::static_pointer_cast<const Block>(
        options_.block_cache->InsertIfAbsent(key, block, block->size()));
  }
  return block;
}

std::shared_ptr<const Block> SequenceReader::CachedBlock(
    const ReadOptions& options, const BlockCacheKey& key, Status* s) const {
  if (options_.block_cache != nullptr) {
    auto cached = CacheLookup<Block>(*options_.block_cache, key);
    if (cached != nullptr) return cached;
  }

  // Uncompressed-tier miss: try the compressed tier before the device.
  if (options_.compressed_block_cache != nullptr) {
    auto compressed =
        CacheLookup<CompressedBlock>(*options_.compressed_block_cache, key);
    if (compressed != nullptr) {
      std::string stored(compressed->data);
      return FinishBlock(options, key, std::move(stored), compressed->type,
                         /*from_compressed_tier=*/true, s);
    }
  }

  if (options.cache_only) *s = Status::Incomplete("block not cached");
  return nullptr;
}

std::shared_ptr<const Block> SequenceReader::ReadDataBlock(
    const ReadOptions& options, const BlockHandle& handle, Status* s) const {
  const BlockCacheKey key{file_number_, handle.offset()};
  std::shared_ptr<const Block> cached = CachedBlock(options, key, s);
  if (cached != nullptr || !s->ok()) return cached;

  // Device read: pace it if the caller (a compaction) carries the
  // background I/O budget.  Foreground ReadOptions leave this null.
  if (options.rate_limiter != nullptr) {
    options.rate_limiter->Request(handle.size() +
                                  BlockTrailerSize(format_version_));
  }
  std::string contents;
  CompressionType type = CompressionType::kNone;
  *s = ReadBlockContents(
      file_, handle, options.verify_checksums || options_.verify_checksums,
      format_version_, &contents, &type);
  if (!s->ok()) return nullptr;
  return FinishBlock(options, key, std::move(contents), type,
                     /*from_compressed_tier=*/false, s);
}

Iterator* SequenceReader::NewBlockIterator(const ReadOptions& options,
                                           const Slice& index_value) const {
  Slice input = index_value;
  BlockHandle handle;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) return NewErrorIterator(s);

  std::shared_ptr<const Block> block = ReadDataBlock(options, handle, &s);
  if (block == nullptr) return NewErrorIterator(s);
  Iterator* iter = block->NewIterator(cmp_);
  // Pin the block for the iterator's lifetime.
  iter->RegisterCleanup([block]() mutable { block.reset(); });
  return iter;
}

void SequenceReader::ResolveInBlock(const Block& block,
                                    MultiGetRequest* req) const {
  std::unique_ptr<Iterator> block_iter(block.NewIterator(cmp_));
  block_iter->Seek(req->lkey->internal_key());
  if (block_iter->Valid()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(block_iter->key(), &parsed)) {
      req->status = Status::Corruption("bad internal key in sequence");
      return;
    }
    if (parsed.user_key == req->lkey->user_key()) {
      if (parsed.type == kTypeValue) {
        req->value->assign(block_iter->value().data(),
                           block_iter->value().size());
        req->state = MultiGetRequest::State::kFound;
      } else {
        req->state = MultiGetRequest::State::kDeleted;
      }
    }
  }
  if (!block_iter->status().ok() && req->status.ok()) {
    req->status = block_iter->status();
  }
}

void SequenceReader::MultiGet(const ReadOptions& options,
                              MultiGetRequest* const* reqs,
                              size_t count) const {
  // Requests arrive in internal-key order and the index is in key order,
  // so same-block keys are adjacent and block offsets ascend.  Each run of
  // same-block keys looks its block up in the cache tiers once; a cached
  // block resolves the run on the spot, and runs whose block must come
  // from the device are deferred to one vectored read.
  struct Miss {
    BlockHandle handle;
    size_t first_key = 0;  // range into `miss_reqs`
    size_t num_keys = 0;
    std::string stored;  // read buffer, then the block's stored bytes
  };
  std::vector<Miss> misses;
  std::vector<MultiGetRequest*> miss_reqs;
  std::unique_ptr<Iterator> index_iter;  // only once a key passes the bloom
  BlockHandle run_handle;  // the current run's block
  bool in_run = false;
  std::shared_ptr<const Block> run_block;
  Status run_error;
  for (size_t i = 0; i < count; ++i) {
    MultiGetRequest* req = reqs[i];
    if (req->resolved()) continue;
    if (!KeyMayMatch(req->lkey->user_key())) continue;
    if (index_iter == nullptr) index_iter.reset(index_block_.NewIterator(cmp_));
    index_iter->Seek(req->lkey->internal_key());
    if (!index_iter->Valid()) {
      // Past the last block: the key is not in this sequence.
      req->status = index_iter->status();
      continue;
    }
    Slice input = index_iter->value();
    BlockHandle handle;
    Status s = handle.DecodeFrom(&input);
    if (!s.ok()) {
      req->status = s;
      continue;
    }
    if (!in_run || handle.offset() != run_handle.offset()) {
      in_run = true;
      run_handle = handle;
      run_error = Status::OK();
      run_block = CachedBlock(
          options, BlockCacheKey{file_number_, handle.offset()}, &run_error);
      if (run_block == nullptr && run_error.ok()) {
        Miss m;
        m.handle = handle;
        m.first_key = miss_reqs.size();
        misses.push_back(std::move(m));
      }
    }
    if (run_block != nullptr) {
      ResolveInBlock(*run_block, req);
    } else if (!run_error.ok()) {
      req->status = run_error;
    } else {
      miss_reqs.push_back(req);
      misses.back().num_keys++;
    }
  }
  if (misses.empty()) return;

  // One vectored read covers every device-missing block of this sequence,
  // each into its own buffer; adjacent blocks coalesce into single device
  // operations underneath.
  const uint64_t trailer = BlockTrailerSize(format_version_);
  std::vector<ReadRequest> rr(misses.size());
  size_t total = 0;
  for (size_t i = 0; i < misses.size(); ++i) {
    rr[i].offset = misses[i].handle.offset();
    rr[i].n = static_cast<size_t>(misses[i].handle.size() + trailer);
    misses[i].stored.resize(rr[i].n);
    rr[i].scratch = misses[i].stored.data();
    total += rr[i].n;
  }
  if (options.rate_limiter != nullptr) options.rate_limiter->Request(total);
  file_->ReadV(rr.data(), rr.size());

  if (options.batch != nullptr) {
    // Batch accounting: contiguous runs of 2+ blocks became one device
    // read each.
    size_t run_len = 1;
    for (size_t i = 1; i <= rr.size(); ++i) {
      if (i < rr.size() && rr[i].offset == rr[i - 1].offset + rr[i - 1].n) {
        run_len++;
        continue;
      }
      if (run_len >= 2) {
        options.batch->coalesced_reads++;
        options.batch->coalesced_blocks += run_len;
      }
      run_len = 1;
    }
  }

  const bool verify = options.verify_checksums || options_.verify_checksums;
  for (size_t i = 0; i < misses.size(); ++i) {
    Miss& m = misses[i];
    Status s = rr[i].status;
    if (s.ok() && rr[i].result.size() != rr[i].n) {
      s = Status::Corruption("truncated block read");
    }
    CompressionType type = CompressionType::kNone;
    if (s.ok()) {
      s = CheckBlockTrailer(rr[i].result.data(), m.handle.size(), verify,
                            format_version_, &type);
    }
    std::shared_ptr<const Block> block;
    if (s.ok()) {
      // The read may have landed elsewhere (mmap-style envs return
      // internal pointers); normalize into the block's own buffer.
      const size_t n = static_cast<size_t>(m.handle.size());
      if (rr[i].result.data() != m.stored.data()) {
        m.stored.assign(rr[i].result.data(), n);
      } else {
        m.stored.resize(n);  // strip the trailer
      }
      block = FinishBlock(options,
                          BlockCacheKey{file_number_, m.handle.offset()},
                          std::move(m.stored), type,
                          /*from_compressed_tier=*/false, &s);
    }
    for (size_t k = m.first_key; k < m.first_key + m.num_keys; ++k) {
      if (block != nullptr) {
        ResolveInBlock(*block, miss_reqs[k]);
      } else {
        miss_reqs[k]->status = s;
      }
    }
  }
}

Iterator* SequenceReader::NewIterator(const ReadOptions& options) const {
  return NewTwoLevelIterator(
      index_block_.NewIterator(cmp_),
      [this, options](const Slice& index_value) {
        return NewBlockIterator(options, index_value);
      });
}

}  // namespace iamdb
