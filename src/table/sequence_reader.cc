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

std::shared_ptr<const Block> SequenceReader::ReadDataBlock(
    const ReadOptions& options, const BlockHandle& handle, Status* s) const {
  const BlockCacheKey key{file_number_, handle.offset()};

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

  if (options.cache_only) {
    *s = Status::Incomplete("block not cached");
    return nullptr;
  }
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

Status SequenceReader::Get(const ReadOptions& options, const Slice& ikey,
                           std::string* value, GetState* state) const {
  *state = GetState::kNotFound;
  Slice user_key = ExtractUserKey(ikey);
  if (!KeyMayMatch(user_key)) return Status::OK();

  std::unique_ptr<Iterator> index_iter(index_block_.NewIterator(cmp_));
  index_iter->Seek(ikey);
  if (!index_iter->Valid()) return index_iter->status();

  Slice input = index_iter->value();
  BlockHandle handle;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) return s;
  std::shared_ptr<const Block> block = ReadDataBlock(options, handle, &s);
  if (block == nullptr) return s;

  std::unique_ptr<Iterator> block_iter(block->NewIterator(cmp_));
  block_iter->Seek(ikey);
  if (block_iter->Valid()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(block_iter->key(), &parsed)) {
      *state = GetState::kCorrupt;
      return Status::Corruption("bad internal key in sequence");
    }
    if (parsed.user_key == user_key) {
      if (parsed.type == kTypeValue) {
        value->assign(block_iter->value().data(), block_iter->value().size());
        *state = GetState::kFound;
      } else {
        *state = GetState::kDeleted;
      }
    }
  }
  return block_iter->status();
}

void SequenceReader::ResolveInBlock(const Block& block,
                                    MultiGetRequest* req) const {
  std::unique_ptr<Iterator> block_iter(block.NewIterator(cmp_));
  block_iter->Seek(req->lkey->internal_key());
  if (block_iter->Valid()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(block_iter->key(), &parsed)) {
      req->state = MultiGetRequest::State::kCorrupt;
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
  // Keys mapped to the same data block share one Group; requests arrive in
  // internal-key order and the index is in key order, so same-block keys
  // are adjacent and block offsets ascend across groups.
  struct Group {
    BlockHandle handle;
    std::shared_ptr<const Block> block;
    Status error;
    size_t first_key = 0;  // range into `probe`
    size_t num_keys = 0;
  };
  std::vector<MultiGetRequest*> probe;
  std::vector<Group> groups;
  std::unique_ptr<Iterator> index_iter(index_block_.NewIterator(cmp_));
  for (size_t i = 0; i < count; ++i) {
    MultiGetRequest* req = reqs[i];
    if (req->resolved()) continue;
    if (!KeyMayMatch(req->lkey->user_key())) continue;
    index_iter->Seek(req->lkey->internal_key());
    if (!index_iter->Valid()) {
      // Past the last block: the key is not in this sequence.
      if (!index_iter->status().ok() && req->status.ok()) {
        req->status = index_iter->status();
      }
      continue;
    }
    Slice input = index_iter->value();
    BlockHandle handle;
    Status s = handle.DecodeFrom(&input);
    if (!s.ok()) {
      req->status = s;
      continue;
    }
    if (groups.empty() || groups.back().handle.offset() != handle.offset()) {
      Group g;
      g.handle = handle;
      g.first_key = probe.size();
      groups.push_back(std::move(g));
    }
    probe.push_back(req);
    groups.back().num_keys++;
  }
  if (groups.empty()) return;

  // Cache probes per group; misses on both tiers queue for the device.
  std::vector<size_t> missing;
  for (size_t g = 0; g < groups.size(); ++g) {
    const BlockCacheKey key{file_number_, groups[g].handle.offset()};
    if (options_.block_cache != nullptr) {
      auto cached = CacheLookup<Block>(*options_.block_cache, key);
      if (cached != nullptr) {
        groups[g].block = std::move(cached);
        continue;
      }
    }
    if (options_.compressed_block_cache != nullptr) {
      auto compressed =
          CacheLookup<CompressedBlock>(*options_.compressed_block_cache, key);
      if (compressed != nullptr) {
        std::string stored(compressed->data);
        groups[g].block =
            FinishBlock(options, key, std::move(stored), compressed->type,
                        /*from_compressed_tier=*/true, &groups[g].error);
        continue;
      }
    }
    if (options.cache_only) {
      groups[g].error = Status::Incomplete("block not cached");
      continue;
    }
    missing.push_back(g);
  }

  // One vectored read covers every device-missing block of this sequence;
  // adjacent blocks coalesce into single device operations underneath.
  if (!missing.empty()) {
    const uint64_t trailer = BlockTrailerSize(format_version_);
    size_t total = 0;
    for (size_t g : missing) {
      total += static_cast<size_t>(groups[g].handle.size() + trailer);
    }
    if (options.rate_limiter != nullptr) options.rate_limiter->Request(total);
    auto scratch = std::make_unique<char[]>(total);
    std::vector<ReadRequest> rr(missing.size());
    size_t buf_off = 0;
    for (size_t i = 0; i < missing.size(); ++i) {
      const BlockHandle& h = groups[missing[i]].handle;
      rr[i].offset = h.offset();
      rr[i].n = static_cast<size_t>(h.size() + trailer);
      rr[i].scratch = scratch.get() + buf_off;
      buf_off += rr[i].n;
    }
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

    const bool verify =
        options.verify_checksums || options_.verify_checksums;
    for (size_t i = 0; i < missing.size(); ++i) {
      Group& grp = groups[missing[i]];
      Status s = rr[i].status;
      if (s.ok() && rr[i].result.size() != rr[i].n) {
        s = Status::Corruption("truncated block read");
      }
      CompressionType type = CompressionType::kNone;
      if (s.ok()) {
        s = CheckBlockTrailer(rr[i].result.data(), grp.handle.size(), verify,
                              format_version_, &type);
      }
      if (s.ok()) {
        std::string stored(rr[i].result.data(),
                           static_cast<size_t>(grp.handle.size()));
        grp.block = FinishBlock(
            options, BlockCacheKey{file_number_, grp.handle.offset()},
            std::move(stored), type, /*from_compressed_tier=*/false, &s);
      }
      if (grp.block == nullptr) grp.error = s;
    }
  }

  for (const Group& grp : groups) {
    if (grp.block == nullptr) {
      for (size_t k = grp.first_key; k < grp.first_key + grp.num_keys; ++k) {
        if (probe[k]->status.ok()) probe[k]->status = grp.error;
      }
      continue;
    }
    for (size_t k = grp.first_key; k < grp.first_key + grp.num_keys; ++k) {
      if (!probe[k]->resolved()) ResolveInBlock(*grp.block, probe[k]);
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
