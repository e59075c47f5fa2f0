#include "core/file_io.h"

#include <cstdio>

namespace ys {

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return std::nullopt;
  return text;
}

bool write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool write_ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool close_ok = std::fclose(f) == 0;
  return write_ok && close_ok;
}

}  // namespace ys
