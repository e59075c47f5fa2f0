// Whole-file text I/O with every error checked: the one reader and the one
// writer behind every document the repo loads or exports.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace ys {

/// The full contents of `path`; std::nullopt when it cannot be opened or
/// a read fails part-way.
std::optional<std::string> read_file(const std::string& path);

/// Create or truncate `path` and write `text` to it. False when the open,
/// the write or the final flush/close fails (a full disk shows up at the
/// close), so a caller never reports a file it did not fully write.
bool write_file(const std::string& path, std::string_view text);

}  // namespace ys
