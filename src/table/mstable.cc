#include "table/mstable.h"

#include <cassert>

#include "table/merging_iterator.h"

namespace iamdb {

namespace {

// Writes the clustered metadata region for `sequences` (index + bloom blocks
// in order, then the descriptor block, then the trailer) starting at file
// offset `region_start`.  Fills handles in-place and returns meta_end.
struct SequenceMetaInput {
  SequenceMeta meta;
  Slice index_contents;
  Slice bloom_contents;
};

Status WriteMetadataRegion(WritableFile* file, uint64_t region_start,
                           std::vector<SequenceMetaInput>* sequences,
                           uint32_t format_version, uint64_t* meta_end,
                           uint64_t* meta_bytes) {
  // Metadata blocks are always stored raw (kNone); only data blocks carry
  // compressed payloads.
  const uint64_t trailer_size = BlockTrailerSize(format_version);
  uint64_t offset = region_start;
  for (auto& seq : *sequences) {
    Status s = WriteBlock(file, offset, seq.index_contents, format_version,
                          CompressionType::kNone, &seq.meta.index_handle);
    if (!s.ok()) return s;
    offset += seq.index_contents.size() + trailer_size;
    s = WriteBlock(file, offset, seq.bloom_contents, format_version,
                   CompressionType::kNone, &seq.meta.bloom_handle);
    if (!s.ok()) return s;
    offset += seq.bloom_contents.size() + trailer_size;
  }

  std::string descriptor;
  PutVarint32(&descriptor, static_cast<uint32_t>(sequences->size()));
  for (const auto& seq : *sequences) {
    seq.meta.EncodeTo(&descriptor);
  }
  MSTableTrailer trailer;
  Status s = WriteBlock(file, offset, descriptor, format_version,
                        CompressionType::kNone, &trailer.meta_handle);
  if (!s.ok()) return s;
  offset += descriptor.size() + trailer_size;

  trailer.region_start = region_start;
  trailer.format_version = format_version;
  trailer.seq_count = static_cast<uint32_t>(sequences->size());
  std::string trailer_bytes;
  trailer.EncodeTo(&trailer_bytes);
  s = file->Append(trailer_bytes);
  if (!s.ok()) return s;
  offset += trailer_bytes.size();

  *meta_end = offset;
  *meta_bytes = offset - region_start;
  return Status::OK();
}

void FillResultRanges(const std::vector<SequenceMetaInput>& sequences,
                      const InternalKeyComparator& icmp,
                      MSTableBuildResult* result) {
  result->seq_count = static_cast<uint32_t>(sequences.size());
  result->data_bytes = 0;
  result->num_entries = 0;
  result->smallest.clear();
  result->largest.clear();
  for (const auto& seq : sequences) {
    result->data_bytes += seq.meta.data_bytes;
    result->num_entries += seq.meta.num_entries;
    if (seq.meta.num_entries == 0) continue;
    if (result->smallest.empty() ||
        icmp.Compare(seq.meta.smallest, result->smallest) < 0) {
      result->smallest = seq.meta.smallest;
    }
    if (result->largest.empty() ||
        icmp.Compare(seq.meta.largest, result->largest) > 0) {
      result->largest = seq.meta.largest;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// MSTableWriter

MSTableWriter::MSTableWriter(Env* env, const TableOptions& options,
                             std::string fname)
    : env_(env), options_(options), fname_(std::move(fname)) {}

MSTableWriter::~MSTableWriter() {
  if (builder_ == nullptr || finished_) return;
  if (file_ != nullptr) file_->Close();
  env_->RemoveFile(fname_);
}

Status MSTableWriter::Open() {
  Status s = env_->NewWritableFile(fname_, &file_);
  if (!s.ok()) return s;
  builder_ = std::make_unique<SequenceBuilder>(options_, file_.get(), 0);
  return Status::OK();
}

Status MSTableWriter::Add(const Slice& internal_key, const Slice& value) {
  return builder_->Add(internal_key, value);
}

uint64_t MSTableWriter::EstimatedDataBytes() const {
  // Logical (uncompressed) bytes: compactions cut output nodes on this, and
  // logical accounting keeps node boundaries identical across codecs.
  return builder_->logical_bytes();
}

uint64_t MSTableWriter::NumEntries() const { return builder_->num_entries(); }

Status MSTableWriter::Finish(bool sync, MSTableBuildResult* result) {
  assert(!finished_);
  Status s = builder_->Finish();
  if (!s.ok()) return s;

  std::vector<SequenceMetaInput> sequences;
  sequences.push_back(SequenceMetaInput{builder_->meta(),
                                        builder_->index_contents(),
                                        builder_->bloom_contents()});
  s = WriteMetadataRegion(file_.get(), builder_->end_offset(), &sequences,
                          kCurrentFormatVersion, &result->meta_end,
                          &result->meta_bytes);
  if (!s.ok()) return s;
  if (sync) {
    s = file_->Sync();
    if (!s.ok()) return s;
  }
  s = file_->Close();
  file_.reset();
  if (!s.ok()) return s;

  InternalKeyComparator icmp;
  FillResultRanges(sequences, icmp, result);
  result->new_data_bytes = sequences[0].meta.data_bytes;
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MSTableAppender

MSTableAppender::MSTableAppender(Env* env, const TableOptions& options,
                                 std::string fname,
                                 const MSTableReader& existing)
    : env_(env),
      options_(options),
      fname_(std::move(fname)),
      // Appends inherit the file's format version so one file never mixes
      // framings: a v1 file appended today stays v1 (raw blocks only).
      format_version_(existing.format_version()) {
  prior_.reserve(existing.seq_count());
  for (int i = 0; i < existing.seq_count(); i++) {
    const SequenceReader& seq = existing.sequence(i);
    prior_.push_back(PriorSequence{seq.meta(),
                                   seq.index_contents().ToString(),
                                   seq.bloom_contents().ToString()});
    prior_data_bytes_ += seq.meta().data_bytes;
    prior_entries_ += seq.meta().num_entries;
  }
  prior_smallest_ = existing.smallest().ToString();
  prior_largest_ = existing.largest().ToString();
}

MSTableAppender::~MSTableAppender() {
  if (file_ != nullptr) file_->Close();
}

Status MSTableAppender::Open() {
  // O_APPEND semantics: writes land at the physical end of file, which may
  // be past the recorded meta_end if a previous append crashed before its
  // manifest record; the garbage gap is harmless.
  Status s = env_->GetFileSize(fname_, &start_offset_);
  if (!s.ok()) return s;
  s = env_->NewAppendableFile(fname_, &file_);
  if (!s.ok()) return s;
  builder_ = std::make_unique<SequenceBuilder>(options_, file_.get(),
                                               start_offset_, format_version_);
  return Status::OK();
}

Status MSTableAppender::Add(const Slice& internal_key, const Slice& value) {
  return builder_->Add(internal_key, value);
}

uint64_t MSTableAppender::NumEntries() const { return builder_->num_entries(); }

Status MSTableAppender::Finish(bool sync, MSTableBuildResult* result) {
  assert(!finished_);
  Status s = builder_->Finish();
  if (!s.ok()) return s;

  std::vector<SequenceMetaInput> sequences;
  sequences.reserve(prior_.size() + 1);
  for (const auto& p : prior_) {
    sequences.push_back(
        SequenceMetaInput{p.meta, p.index_contents, p.bloom_contents});
  }
  sequences.push_back(SequenceMetaInput{builder_->meta(),
                                        builder_->index_contents(),
                                        builder_->bloom_contents()});

  s = WriteMetadataRegion(file_.get(), builder_->end_offset(), &sequences,
                          format_version_, &result->meta_end,
                          &result->meta_bytes);
  if (!s.ok()) return s;
  if (sync) {
    s = file_->Sync();
    if (!s.ok()) return s;
  }
  s = file_->Close();
  file_.reset();
  if (!s.ok()) return s;

  InternalKeyComparator icmp;
  FillResultRanges(sequences, icmp, result);
  result->new_data_bytes = builder_->meta().data_bytes;
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MSTableReader

Status MSTableReader::Open(Env* env, const TableOptions& options,
                           const InternalKeyComparator* cmp,
                           const std::string& fname, uint64_t file_number,
                           uint64_t meta_end,
                           std::shared_ptr<MSTableReader>* reader) {
  reader->reset();
  std::unique_ptr<RandomAccessFile> file;
  Status s = env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;

  if (meta_end < MSTableTrailer::kSize) {
    return Status::Corruption("meta_end too small", fname);
  }

  // One read for the trailer, one for the whole clustered metadata region.
  char trailer_space[MSTableTrailer::kSize];
  Slice trailer_input;
  s = file->Read(meta_end - MSTableTrailer::kSize, MSTableTrailer::kSize,
                 &trailer_input, trailer_space);
  if (!s.ok()) return s;
  MSTableTrailer trailer;
  s = trailer.DecodeFrom(trailer_input);
  if (!s.ok()) return s;

  if (trailer.region_start >= meta_end) {
    return Status::Corruption("bad metadata region", fname);
  }
  const uint64_t region_size =
      meta_end - MSTableTrailer::kSize - trailer.region_start;
  std::string region;
  region.resize(region_size);
  Slice region_input;
  s = file->Read(trailer.region_start, region_size, &region_input,
                 region.data());
  if (!s.ok()) return s;
  if (region_input.size() != region_size) {
    return Status::Corruption("truncated metadata region", fname);
  }
  if (region_input.data() != region.data()) {
    region.assign(region_input.data(), region_input.size());
  }

  // Parse descriptor block (its handle is region-relative on disk terms:
  // absolute file offsets; translate into the region buffer).
  auto slice_of = [&](const BlockHandle& h, Slice* out) -> Status {
    if (h.offset() < trailer.region_start ||
        h.offset() + h.size() > trailer.region_start + region_size) {
      return Status::Corruption("metadata handle out of region", fname);
    }
    *out = Slice(region.data() + (h.offset() - trailer.region_start),
                 h.size());
    return Status::OK();
  };

  Slice descriptor;
  s = slice_of(trailer.meta_handle, &descriptor);
  if (!s.ok()) return s;

  uint32_t count = 0;
  if (!GetVarint32(&descriptor, &count) || count != trailer.seq_count) {
    return Status::Corruption("bad sequence descriptor", fname);
  }

  auto result = std::shared_ptr<MSTableReader>(new MSTableReader());
  result->cmp_ = cmp;
  result->format_version_ = trailer.format_version;
  InternalKeyComparator icmp;
  for (uint32_t i = 0; i < count; i++) {
    SequenceMeta meta;
    s = meta.DecodeFrom(&descriptor);
    if (!s.ok()) return s;
    Slice index_contents, bloom_contents;
    s = slice_of(meta.index_handle, &index_contents);
    if (s.ok()) s = slice_of(meta.bloom_handle, &bloom_contents);
    if (!s.ok()) return s;
    result->total_data_bytes_ += meta.data_bytes;
    result->total_entries_ += meta.num_entries;
    if (meta.num_entries > 0) {
      if (result->smallest_.empty() ||
          icmp.Compare(meta.smallest, result->smallest_) < 0) {
        result->smallest_ = meta.smallest;
      }
      if (result->largest_.empty() ||
          icmp.Compare(meta.largest, result->largest_) > 0) {
        result->largest_ = meta.largest;
      }
    }
    result->sequences_.push_back(std::make_unique<SequenceReader>(
        options, cmp, file.get(), file_number, std::move(meta),
        index_contents.ToString(), bloom_contents.ToString(),
        trailer.format_version));
  }
  result->file_ = std::move(file);
  *reader = std::move(result);
  return Status::OK();
}

void MSTableReader::MultiGet(const ReadOptions& options,
                             MultiGetRequest* const* reqs,
                             size_t count) const {
  for (int i = seq_count() - 1; i >= 0 && AnyPending(reqs, count); i--) {
    sequences_[i]->MultiGet(options, reqs, count);
  }
}

Iterator* MSTableReader::NewIterator(const ReadOptions& options) const {
  std::vector<Iterator*> iters;
  AddSequenceIterators(options, &iters);
  return NewMergingIterator(cmp_, iters.data(),
                            static_cast<int>(iters.size()));
}

void MSTableReader::AddSequenceIterators(const ReadOptions& options,
                                         std::vector<Iterator*>* out) const {
  for (int i = seq_count() - 1; i >= 0; i--) {
    out->push_back(sequences_[i]->NewIterator(options));
  }
}

}  // namespace iamdb
