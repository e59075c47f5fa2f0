// Aho–Corasick multi-pattern matcher: the GFW's rule-based keyword engine.
//
// The real GFW matches thousands of sensitive keywords against reassembled
// application streams at line rate; Aho–Corasick is the textbook structure
// for that job. Matching is case-insensitive (HTTP keywords like
// "ultrasurf" are censored in any case) and supports streaming: the caller
// feeds chunks and retains a cursor state across calls, so split-across-
// segments keywords are still found — exactly the behaviour that
// distinguishes type-2 GFW devices from type-1 (§2.1).
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"

namespace ys::gfw {

class AhoCorasick {
 public:
  /// Streaming cursor: opaque matcher state between chunks.
  struct Cursor {
    i32 node = 0;
  };

  AhoCorasick() = default;
  explicit AhoCorasick(const std::vector<std::string>& patterns) {
    for (const auto& p : patterns) add_pattern(p);
    build();
  }

  /// Add a pattern before build(). Patterns are lowercased.
  void add_pattern(std::string_view pattern);

  /// Build the automaton over all added patterns. Must be called once
  /// after all add_pattern().
  void build();

  bool built() const { return built_; }
  std::size_t pattern_count() const { return patterns_.size(); }

  /// Scan a chunk starting from `cursor`; returns the index of the first
  /// pattern matched or -1. The cursor advances so a subsequent call
  /// continues the stream.
  i32 scan(ByteView chunk, Cursor& cursor) const;

  /// One-shot convenience: true if any pattern occurs in `text`.
  bool contains(std::string_view text) const;

  const std::string& pattern(std::size_t index) const {
    return patterns_[index];
  }

 private:
  // Every byte that occurs in a pattern has its own class; all other bytes
  // share class 0, which only ever leads back to the root. Rows of the
  // transition table are one entry per class, not per byte, so the table
  // stays small and building it is cheap.
  std::array<u16, 256> class_of_{};
  std::size_t classes_ = 1;
  // Goto function with failure transitions folded in: next_[node *
  // classes_ + class] is the node after reading a byte of that class.
  std::vector<i32> next_;
  std::vector<i32> match_;  // pattern index terminating here (or inherited)
  std::vector<std::string> patterns_;
  bool built_ = false;
};

}  // namespace ys::gfw
