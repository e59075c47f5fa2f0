// net::SegmentReassembler against the per-byte map it replaced.
//
// ByteMapReference below is the algorithm TcpEndpoint::accept_payload and
// GfwTcb::ingest/drain used to run, one std::map node per byte. The
// run-based reassembler must deliver the same bytes, leave the cursor in the
// same place and hold the same number of bytes after every operation, on
// seeded random streams that cover both overlap policies, window clipping,
// segments straddling the cursor, duplicates, wrap across 2^32, reanchoring
// and cursor moves made by the owner between segments.
#include <gtest/gtest.h>

#include <map>

#include "core/rng.h"
#include "netsim/segment_reassembler.h"
#include "obs/alloc_hook.h"
#include "tcpstack/tcp_types.h"

namespace ys::net {
namespace {

class ByteMapReference {
 public:
  Bytes push(u32& cursor, u32 seq, ByteView data, u32 window,
             OverlapPolicy policy) {
    for (u32 off = 0; off < data.size(); ++off) {
      const u32 pos = seq + off;
      if (tcp::seq_lt(pos, cursor)) continue;
      if (tcp::seq_ge(pos, cursor + window)) break;
      auto it = bytes_.find(pos);
      if (it != bytes_.end()) {
        if (policy == OverlapPolicy::kPreferLast) it->second = data[off];
      } else {
        bytes_.emplace(pos, data[off]);
      }
    }
    Bytes out;
    while (true) {
      auto it = bytes_.find(cursor);
      if (it == bytes_.end()) break;
      out.push_back(it->second);
      bytes_.erase(it);
      ++cursor;
    }
    return out;
  }
  void clear() { bytes_.clear(); }
  std::size_t stored_bytes() const { return bytes_.size(); }

 private:
  std::map<u32, u8> bytes_;
};

/// Drives the reference and the reassembler in lockstep, each with its own
/// cursor, and checks they agree after every step.
struct Lockstep {
  ByteMapReference ref;
  SegmentReassembler run;
  u32 ref_cursor = 0;
  u32 run_cursor = 0;

  explicit Lockstep(u32 cursor) : ref_cursor(cursor), run_cursor(cursor) {}

  void push(u32 seq, ByteView data, u32 window, OverlapPolicy policy) {
    const Bytes want = ref.push(ref_cursor, seq, data, window, policy);
    const ByteView got = run.push(run_cursor, seq, data, window, policy);
    ASSERT_EQ(Bytes(got.begin(), got.end()), want)
        << "seq " << seq << " len " << data.size() << " window " << window;
    ASSERT_EQ(run_cursor, ref_cursor);
    ASSERT_EQ(run.stored_bytes(), ref.stored_bytes());
  }
  void move_cursor(u32 to) {
    ref_cursor = to;
    run_cursor = to;
  }
  void reanchor(u32 to) {
    ref.clear();
    run.clear();
    move_cursor(to);
  }
};

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (u8& v : b) v = static_cast<u8>(rng.next_u32());
  return b;
}

/// One seeded stream: segments placed around the cursor (before it,
/// straddling it, inside and past the window), duplicates with fresh
/// contents, owner cursor moves and reanchors. `start` near 2^32 makes the
/// stream wrap.
void random_stream(u64 seed, u32 start, u32 window, bool mixed_policy,
                   OverlapPolicy policy, int steps) {
  Rng rng(seed);
  Lockstep ls(start);
  struct Seg {
    u32 seq;
    std::size_t len;
  };
  std::vector<Seg> sent;
  for (int step = 0; step < steps; ++step) {
    const OverlapPolicy pol =
        mixed_policy ? (rng.chance(0.5) ? OverlapPolicy::kPreferFirst
                                        : OverlapPolicy::kPreferLast)
                     : policy;
    const u64 roll = rng.uniform(100);
    if (roll < 60 || sent.empty()) {
      const i64 reach = static_cast<i64>(window) + 200;
      const u32 seq =
          ls.ref_cursor + static_cast<u32>(rng.uniform_range(-200, reach));
      const std::size_t len = rng.uniform(240);
      sent.push_back({seq, len});
      ls.push(seq, random_bytes(rng, len), window, pol);
    } else if (roll < 80) {
      // Duplicate or partial duplicate of an earlier segment, new bytes.
      const Seg& s = sent[rng.uniform(sent.size())];
      const u32 shift = static_cast<u32>(rng.uniform_range(-20, 20));
      ls.push(s.seq + shift, random_bytes(rng, s.len), window, pol);
    } else if (roll < 90) {
      // In-order segment exactly at the cursor.
      const std::size_t len = 1 + rng.uniform(120);
      ls.push(ls.ref_cursor, random_bytes(rng, len), window, pol);
    } else if (roll < 97) {
      // The owner moves the cursor: a FIN (+1), a small skip, or a step
      // back over bytes it skipped earlier. The store stays as it is.
      const u32 delta = static_cast<u32>(rng.uniform_range(-40, 40));
      ls.move_cursor(ls.ref_cursor + delta);
      ls.push(ls.ref_cursor, ByteView{}, window, pol);
    } else {
      ls.reanchor(ls.ref_cursor + static_cast<u32>(rng.uniform_range(-500, 500)));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Probe whatever is still stored: walk the cursor over the whole window
  // and drain at every position.
  const u32 base = ls.ref_cursor - 300;
  for (u32 i = 0; i < window + 600; i += 7) {
    ls.move_cursor(base + i);
    ls.push(base + i, ByteView{}, window, policy);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SegmentReassembler, MatchesByteMapPreferFirst) {
  for (u64 seed = 1; seed <= 40; ++seed) {
    random_stream(seed, static_cast<u32>(seed * 0x9E3779B9u), 65535,
                  false, OverlapPolicy::kPreferFirst, 400);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
}

TEST(SegmentReassembler, MatchesByteMapPreferLast) {
  for (u64 seed = 1; seed <= 40; ++seed) {
    random_stream(seed, static_cast<u32>(seed * 0x85EBCA6Bu), 65535,
                  false, OverlapPolicy::kPreferLast, 400);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
}

TEST(SegmentReassembler, MatchesByteMapWithSmallWindows) {
  // Small windows clip most segments mid-way.
  for (u32 window : {0u, 1u, 7u, 64u, 300u}) {
    for (u64 seed = 1; seed <= 20; ++seed) {
      random_stream(seed * 31 + window, static_cast<u32>(seed * 7919), window,
                    true, OverlapPolicy::kPreferFirst, 300);
      ASSERT_FALSE(HasFatalFailure()) << "window " << window << " seed "
                                      << seed;
    }
  }
}

TEST(SegmentReassembler, MatchesByteMapAcrossSequenceWrap) {
  for (u64 seed = 1; seed <= 40; ++seed) {
    const u32 start = 0xFFFFFFFFu - static_cast<u32>(seed * 97 % 4000);
    random_stream(seed, start, seed % 2 == 0 ? 65535 : 900, true,
                  OverlapPolicy::kPreferLast, 400);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
}

// ------------------------------------------------------------ named cases

Bytes bytes_of(std::string_view s) { return to_bytes(s); }

std::string str(ByteView v) { return to_string(v); }

TEST(SegmentReassembler, InOrderSegmentWithEmptyStoreIsASliceOfTheInput) {
  SegmentReassembler r;
  u32 cursor = 1000;
  const Bytes data = bytes_of("GET / HTTP/1.1");
  const auto before = obs::perf::thread_alloc_counters();
  const ByteView out =
      r.push(cursor, 1000, data, 65535, OverlapPolicy::kPreferFirst);
  const auto after = obs::perf::thread_alloc_counters();
  EXPECT_EQ(out.data(), data.data());
  EXPECT_EQ(out.size(), data.size());
  EXPECT_EQ(cursor, 1000 + data.size());
  EXPECT_EQ(r.stored_bytes(), 0u);
  EXPECT_EQ(after.count, before.count);
}

TEST(SegmentReassembler, OverlapPolicyPicksTheCopy) {
  for (const auto policy :
       {OverlapPolicy::kPreferFirst, OverlapPolicy::kPreferLast}) {
    SegmentReassembler r;
    u32 cursor = 100;
    EXPECT_TRUE(r.push(cursor, 104, bytes_of("AAAA"), 65535, policy).empty());
    EXPECT_TRUE(r.push(cursor, 106, bytes_of("BBBB"), 65535, policy).empty());
    EXPECT_EQ(r.stored_bytes(), 6u);
    EXPECT_EQ(str(r.push(cursor, 100, bytes_of("0123"), 65535, policy)), policy == OverlapPolicy::kPreferFirst ? "0123AAAABB"
                                                               : "0123AABBBB");
    EXPECT_EQ(cursor, 110u);
    EXPECT_EQ(r.stored_bytes(), 0u);
  }
}

TEST(SegmentReassembler, ClipsToTheWindowMidSegment) {
  SegmentReassembler r;
  u32 cursor = 50;
  // Bytes at 58.. are past the 10-byte window and dropped.
  EXPECT_TRUE(
      r.push(cursor, 55, bytes_of("abcdefgh"), 10, OverlapPolicy::kPreferFirst)
          .empty());
  EXPECT_EQ(r.stored_bytes(), 5u);
  EXPECT_EQ(str(r.push(cursor, 50, bytes_of("01234"), 10,
                       OverlapPolicy::kPreferFirst)),
            "01234abcde");
  EXPECT_EQ(r.stored_bytes(), 0u);
}

TEST(SegmentReassembler, SegmentStraddlingTheCursorDeliversItsTail) {
  SegmentReassembler r;
  u32 cursor = 10;
  const Bytes data = bytes_of("xxxxHELLO");
  const ByteView out =
      r.push(cursor, 6, data, 65535, OverlapPolicy::kPreferLast);
  EXPECT_EQ(str(out), "HELLO");
  EXPECT_EQ(cursor, 15u);
  EXPECT_EQ(r.stored_bytes(), 0u);
}

TEST(SegmentReassembler, WrapsAcrossTwoToTheThirtyTwo) {
  SegmentReassembler r;
  u32 cursor = 0xFFFFFFFCu;
  // Out of order: bytes at 0xFFFFFFFE..0x00000001 wait for the gap.
  EXPECT_TRUE(r.push(cursor, 0xFFFFFFFEu, bytes_of("cdef"), 65535,
                     OverlapPolicy::kPreferFirst)
                  .empty());
  EXPECT_EQ(r.stored_bytes(), 4u);
  EXPECT_EQ(str(r.push(cursor, 0xFFFFFFFCu, bytes_of("ab"), 65535,
                       OverlapPolicy::kPreferFirst)),
            "abcdef");
  EXPECT_EQ(cursor, 2u);
  EXPECT_EQ(r.stored_bytes(), 0u);
}

TEST(SegmentReassembler, CursorMovedByTheOwnerKeepsTheStore) {
  // A FIN at rcv_nxt advances the cursor by one; data stored past it is
  // delivered by the next segment, as the byte map did.
  SegmentReassembler r;
  u32 cursor = 200;
  EXPECT_TRUE(
      r.push(cursor, 201, bytes_of("zz"), 65535, OverlapPolicy::kPreferFirst)
          .empty());
  ++cursor;
  EXPECT_EQ(r.stored_bytes(), 2u);
  EXPECT_EQ(str(r.push(cursor, 203, bytes_of("!"), 65535,
                       OverlapPolicy::kPreferFirst)),
            "zz!");
  EXPECT_EQ(cursor, 204u);
}

TEST(SegmentReassembler, ClearDropsStoredBytes) {
  SegmentReassembler r;
  u32 cursor = 0;
  r.push(cursor, 5, bytes_of("later"), 65535, OverlapPolicy::kPreferFirst);
  EXPECT_EQ(r.stored_bytes(), 5u);
  r.clear();
  EXPECT_EQ(r.stored_bytes(), 0u);
  EXPECT_TRUE(
      r.push(cursor, 0, ByteView{}, 65535, OverlapPolicy::kPreferFirst).empty());
  EXPECT_EQ(cursor, 0u);
}

}  // namespace
}  // namespace ys::net
