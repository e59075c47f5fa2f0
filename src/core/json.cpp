#include "core/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ys::json {

const Value* Value::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run() {
    skip_ws();
    Value v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (eof() || peek() != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(Value& out) {
    if (eof()) return false;
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) return false;
        ++depth_;
        const bool ok = peek() == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"': {
        out.type = Value::Type::kString;
        return parse_string(out.string);
      }
      case 't':
        out.type = Value::Type::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.type = Value::Type::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.type = Value::Type::kNull;
        return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    out.type = Value::Type::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      Value member;
      if (!parse_value(member)) return false;
      out.object.emplace(std::move(key), std::move(member));
      skip_ws();
      if (consume(',')) continue;
      return consume('}');
    }
  }

  bool parse_array(Value& out) {
    out.type = Value::Type::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      Value element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (consume(',')) continue;
      return consume(']');
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (!eof()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) return false;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not needed
          // for anything the tracer emits; encode the raw value).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (consume('-')) {
      // sign consumed
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.type = Value::Type::kNumber;
    out.number = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  return Parser(text).run();
}

void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_string(out, s);
  return out;
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
  } else if (std::fabs(v) < 1e15 &&
             v == static_cast<double>(static_cast<i64>(v))) {
    append_int(out, static_cast<i64>(v));
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  }
}

std::string number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

void append_int(std::string& out, i64 v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void append_uint(std::string& out, u64 v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace ys::json
