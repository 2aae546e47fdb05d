#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

namespace {
thread_local uint64_t t_current_db_span = 0;
// Per-thread buffer cache: valid only for the tracer generation it was
// taken from (a later Tracer may reuse a destroyed one's address).
thread_local uint64_t t_buffer_generation = 0;
thread_local void* t_buffer = nullptr;
std::atomic<uint64_t> g_next_generation{1};
}  // namespace

Tracer::Tracer()
    : generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

uint64_t CurrentDbSpan() { return t_current_db_span; }
void SetCurrentDbSpan(uint64_t id) { t_current_db_span = id; }

Tracer::Buffer* Tracer::LocalBuffer() {
  if (t_buffer_generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread_tag = buffers_.size();
    buffers_.back()->spans.reserve(1 << 14);
    t_buffer_generation = generation_;
    t_buffer = buffers_.back().get();
  }
  return static_cast<Buffer*>(t_buffer);
}

uint64_t Tracer::NewId() {
  Buffer* b = LocalBuffer();
  return (b->thread_tag << 40) | ++b->next;
}

void Tracer::Record(const Span& span) { LocalBuffer()->spans.push_back(span); }

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = Percentile(samples, 0.50);
  s.p99 = Percentile(samples, 0.99);
  s.max = samples.back();
  return s;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); i++) index[spans[i].id] = i;

  // Child intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    uint64_t lo = std::max(s.start_ns, p.start_ns);
    uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }

  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

size_t MatchDbSpans(std::vector<Span>* spans) {
  // (op, match) -> client spans sorted by start time, plus a cursor past
  // the prefix that can no longer match (taken, or ended before the DB
  // spans still to come start; those are visited in start order).
  struct Group {
    std::vector<size_t> clients;
    size_t cursor = 0;
  };
  std::vector<Span>& all = *spans;
  std::map<std::pair<Op, uint64_t>, Group> groups;
  std::vector<size_t> dbs;
  for (size_t i = 0; i < all.size(); i++) {
    if (all[i].layer == Layer::kClient) {
      groups[{all[i].op, all[i].match}].clients.push_back(i);
    } else if (all[i].layer == Layer::kDb) {
      dbs.push_back(i);
    }
  }
  auto by_start = [&](size_t a, size_t b) {
    return all[a].start_ns < all[b].start_ns;
  };
  for (auto& [key, g] : groups) {
    std::sort(g.clients.begin(), g.clients.end(), by_start);
  }
  std::sort(dbs.begin(), dbs.end(), by_start);

  std::vector<bool> taken(all.size(), false);
  size_t matched = 0;
  for (size_t d : dbs) {
    Span& db = all[d];
    auto it = groups.find({db.op, db.match});
    if (it == groups.end()) continue;
    Group& g = it->second;
    while (g.cursor < g.clients.size() &&
           (taken[g.clients[g.cursor]] ||
            all[g.clients[g.cursor]].end_ns < db.start_ns)) {
      g.cursor++;
    }
    for (size_t j = g.cursor; j < g.clients.size(); j++) {
      size_t c = g.clients[j];
      const Span& client = all[c];
      if (client.start_ns > db.start_ns) break;
      if (taken[c] || client.end_ns < db.end_ns) continue;
      taken[c] = true;
      db.parent = client.id;
      db.request = client.request;
      matched++;
      break;
    }
  }
  // Env spans inherit the request of the DB span they ran under.
  std::unordered_map<uint64_t, uint64_t> request_of;
  for (size_t d : dbs) request_of[all[d].id] = all[d].request;
  for (Span& s : all) {
    if (s.layer != Layer::kEnv || s.parent == 0) continue;
    auto it = request_of.find(s.parent);
    if (it != request_of.end()) s.request = it->second;
  }
  return matched;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  static const char* kLayers[] = {"client", "db", "env"};
  static const char* kOps[] = {"get",  "mget", "scan",   "put",
                               "read", "readv", "append", "sync"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tid\tparent\trequest\tstart_ns\tend_ns\titems\tbytes\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s.%s%s\t%llu\t%llu\t%llu\t%llu\t%llu\t%u\t%llu\n",
                 kLayers[static_cast<int>(s.layer)],
                 kOps[static_cast<int>(s.op)], s.wal ? ".wal" : "",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.items,
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
