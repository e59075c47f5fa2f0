#include "netsim/segment_reassembler.h"

#include <algorithm>
#include <iterator>

namespace ys::net {
namespace {

constexpr u64 kSeqSpace = u64{1} << 32;

}  // namespace

ByteView SegmentReassembler::push(u32& cursor, u32 seq, ByteView data,
                                  u32 window, OverlapPolicy policy) {
  // Clip to [cursor, cursor + window) in sequence space. A segment that
  // starts 2^31 or more "ahead" starts before the cursor: its first
  // 2^32 - ahead bytes are skipped and the rest begins at the cursor.
  const u32 ahead = seq - cursor;
  const bool starts_before = ahead >= 0x8000'0000u;
  const u64 skip = starts_before ? kSeqSpace - ahead : 0;
  const u32 from = starts_before ? 0 : ahead;
  std::size_t take = 0;
  if (skip < data.size() && from < window) {
    take = static_cast<std::size_t>(
        std::min<u64>(data.size() - skip, window - from));
  }
  const ByteView clipped =
      take > 0 ? data.subspan(static_cast<std::size_t>(skip), take)
               : ByteView{};

  if (take > 0 && from == 0 && !touches(cursor, take)) {
    cursor += static_cast<u32>(take);
    return clipped;
  }
  if (take == 0 && runs_.empty()) return {};

  out_.clear();
  if (take > 0) {
    const u32 start = cursor + from;
    const auto head =
        static_cast<std::size_t>(std::min<u64>(take, kSeqSpace - start));
    insert(start, clipped.first(head), policy);
    if (head < take) insert(0, clipped.subspan(head), policy);
  }
  drain(cursor);
  return out_;
}

std::size_t SegmentReassembler::stored_bytes() const {
  std::size_t n = 0;
  for (const Run& r : runs_) n += r.data.size();
  return n;
}

bool SegmentReassembler::touches(u32 from, std::size_t len) const {
  for (const Run& r : runs_) {
    if (static_cast<u32>(r.seq - from) <= len ||
        static_cast<u32>(from - r.seq) < r.data.size()) {
      return true;
    }
  }
  return false;
}

void SegmentReassembler::insert(u32 seq, ByteView data, OverlapPolicy policy) {
  const u64 end = u64{seq} + data.size();
  // The runs overlapping or adjacent to [seq, end) are one index range;
  // they and the new bytes become a single run.
  const auto first = std::partition_point(
      runs_.begin(), runs_.end(), [&](const Run& r) { return r.end() < seq; });
  auto last = first;
  while (last != runs_.end() && last->seq <= end) ++last;
  if (first == last) {
    runs_.insert(first, Run{seq, Bytes(data.begin(), data.end())});
    return;
  }

  const u32 lo = std::min(seq, first->seq);
  const u64 hi = std::max(end, std::prev(last)->end());
  Bytes merged(static_cast<std::size_t>(hi - lo));
  const auto put = [&](u32 at, ByteView bytes) {
    std::copy(bytes.begin(), bytes.end(), merged.begin() + (at - lo));
  };
  // Whichever copy is written last wins the overlap.
  const bool keep_first = policy == OverlapPolicy::kPreferFirst;
  if (keep_first) put(seq, data);
  for (auto it = first; it != last; ++it) put(it->seq, it->data);
  if (!keep_first) put(seq, data);

  first->seq = lo;
  first->data = std::move(merged);
  runs_.erase(std::next(first), last);
}

void SegmentReassembler::drain(u32& cursor) {
  while (true) {
    auto it = std::upper_bound(
        runs_.begin(), runs_.end(), cursor,
        [](u32 c, const Run& r) { return c < r.seq; });
    if (it == runs_.begin()) return;
    --it;
    if (u64{cursor} >= it->end()) return;
    // A run can start before the cursor when the owner moved the cursor
    // past stored bytes; those stay stored, like the bytes of a byte map.
    const std::size_t off = cursor - it->seq;
    out_.insert(out_.end(), it->data.begin() + static_cast<long>(off),
                it->data.end());
    cursor += static_cast<u32>(it->data.size() - off);
    if (off == 0) {
      runs_.erase(it);
    } else {
      it->data.resize(off);
    }
  }
}

}  // namespace ys::net
