// Stream reassembly in 32-bit sequence space, shared by the TCP endpoints
// and the GFW's shadow TCBs.
//
// The paper's overlap and out-of-order strategies (§3, §5) work because the
// censor and the server keep different copies of the same sequence range.
// Both sides are modeled by this one class under their own OverlapPolicy, so
// the only difference between them is the policy and the window they pass.
#pragma once

#include <vector>

#include "core/types.h"
#include "netsim/fragment.h"

namespace ys::net {

/// Out-of-order byte store plus contiguous delivery from a cursor.
///
/// Behaves exactly like a per-byte map keyed by sequence number: bytes of a
/// segment are clipped to [cursor, cursor + window) in sequence space (bytes
/// before the cursor are skipped, bytes at or past the window edge
/// dropped), merged into the store byte by byte under the overlap policy,
/// and then every byte contiguous from the cursor is delivered and removed.
/// The store holds whole runs instead of single bytes. The owner keeps the
/// cursor (a TCP `rcv_nxt`, a GFW `client_next`) and may move it between
/// calls; stored bytes keep their sequence numbers when it does.
///
/// The common case, an in-order segment that touches no stored byte, is
/// delivered as a slice of the caller's data without touching the store.
class SegmentReassembler {
 public:
  /// Merge `data`, whose first byte has sequence number `seq`, then deliver
  /// the bytes contiguous from `cursor` and advance `cursor` past them.
  /// Where `data` overlaps stored bytes, `policy` picks the copy kept.
  /// `window` must be below 2^31 and `data` shorter than 2^31 bytes. The
  /// returned view aliases `data` or an internal buffer; it stays valid
  /// until the next call on this reassembler.
  ByteView push(u32& cursor, u32 seq, ByteView data, u32 window,
                OverlapPolicy policy);

  /// Discard every stored byte (a GFW resync re-anchors the stream).
  void clear() { runs_.clear(); }

  /// Number of bytes held in the store.
  std::size_t stored_bytes() const;

 private:
  // A stored run: bytes at [seq, seq + data.size()). Runs are sorted by
  // seq, disjoint, never adjacent except across 2^32, and none crosses
  // 2^32, so plain u32 order is a valid order for them.
  struct Run {
    u32 seq;
    Bytes data;
    u64 end() const { return u64{seq} + data.size(); }
  };

  /// True iff a stored byte lies in [from, from + len] (inclusive end: a
  /// run starting right after the range would join the delivery).
  bool touches(u32 from, std::size_t len) const;
  /// Merge bytes at [seq, seq + data.size()) that do not cross 2^32.
  void insert(u32 seq, ByteView data, OverlapPolicy policy);
  /// Move the bytes contiguous from `cursor` to out_.
  void drain(u32& cursor);

  std::vector<Run> runs_;
  Bytes out_;
};

}  // namespace ys::net
