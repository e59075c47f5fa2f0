#include "gfw/aho_corasick.h"

#include <cassert>
#include <cctype>

namespace ys::gfw {

namespace {
u8 normalize(u8 c) { return static_cast<u8>(std::tolower(c)); }
}  // namespace

void AhoCorasick::add_pattern(std::string_view pattern) {
  assert(!built_);
  if (pattern.empty()) return;
  std::string lowered(pattern);
  for (char& c : lowered) c = static_cast<char>(normalize(static_cast<u8>(c)));
  patterns_.push_back(std::move(lowered));
}

void AhoCorasick::build() {
  assert(!built_);
  for (const std::string& p : patterns_) {
    for (char c : p) {
      u16& cls = class_of_[static_cast<u8>(c)];
      if (cls == 0) cls = static_cast<u16>(classes_++);
    }
  }
  const std::size_t width = classes_;
  const auto at = [width](i32 node, std::size_t cls) {
    return static_cast<std::size_t>(node) * width + cls;
  };

  // Trie; -1 marks a missing edge.
  next_.assign(width, -1);
  match_.assign(1, -1);
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    i32 node = 0;
    for (char c : patterns_[i]) {
      const std::size_t cls = class_of_[static_cast<u8>(c)];
      if (next_[at(node, cls)] < 0) {
        next_[at(node, cls)] = static_cast<i32>(match_.size());
        next_.resize(next_.size() + width, -1);
        match_.push_back(-1);
      }
      node = next_[at(node, cls)];
    }
    match_[static_cast<std::size_t>(node)] = static_cast<i32>(i);
  }

  // Breadth-first, so a node's failure target (shallower) already has its
  // full row when the node takes its missing edges from it.
  std::vector<i32> fail(match_.size(), 0);
  std::vector<i32> order{0};
  order.reserve(match_.size());
  for (std::size_t head = 0; head < order.size(); ++head) {
    const i32 u = order[head];
    const i32 f = fail[static_cast<std::size_t>(u)];
    if (u != 0 && match_[static_cast<std::size_t>(u)] < 0) {
      match_[static_cast<std::size_t>(u)] = match_[static_cast<std::size_t>(f)];
    }
    for (std::size_t cls = 0; cls < width; ++cls) {
      const i32 child = next_[at(u, cls)];
      const i32 via_fail = u == 0 ? 0 : next_[at(f, cls)];
      if (child < 0) {
        next_[at(u, cls)] = via_fail;
      } else {
        fail[static_cast<std::size_t>(child)] = via_fail;
        order.push_back(child);
      }
    }
  }
  built_ = true;
}

i32 AhoCorasick::scan(ByteView chunk, Cursor& cursor) const {
  assert(built_);
  i32 node = cursor.node;
  for (u8 raw : chunk) {
    node = next_[static_cast<std::size_t>(node) * classes_ +
                 class_of_[normalize(raw)]];
    const i32 match = match_[static_cast<std::size_t>(node)];
    if (match >= 0) {
      cursor.node = node;
      return match;
    }
  }
  cursor.node = node;
  return -1;
}

bool AhoCorasick::contains(std::string_view text) const {
  Cursor cur;
  return scan(ByteView(reinterpret_cast<const u8*>(text.data()), text.size()),
              cur) >= 0;
}

}  // namespace ys::gfw
