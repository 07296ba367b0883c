#include "util/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "fault/fault.h"

namespace clktune::util {

namespace {

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::null: return "null";
    case Json::Type::boolean: return "boolean";
    case Json::Type::number: return "number";
    case Json::Type::string: return "string";
    case Json::Type::array: return "array";
    case Json::Type::object: return "object";
  }
  return "?";
}

}  // namespace

void Json::require(Type t) const {
  if (type_ != t)
    throw JsonError(std::string("json: expected ") + type_name(t) + ", got " +
                    type_name(type_));
}

std::int64_t Json::as_int() const {
  require(Type::number);
  const double r = std::nearbyint(num_);
  if (r != num_)
    throw JsonError("json: expected integer, got " + std::to_string(num_));
  return static_cast<std::int64_t>(r);
}

std::uint64_t Json::as_uint() const {
  const std::int64_t v = as_int();
  if (v < 0)
    throw JsonError("json: expected non-negative integer, got " +
                    std::to_string(v));
  return static_cast<std::uint64_t>(v);
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::object) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  require(Type::object);
  const Json* v = find(key);
  if (v == nullptr) throw JsonError("json: missing key \"" + key + "\"");
  return *v;
}

Json& Json::set(const std::string& key, Json value) {
  require(Type::object);
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(key, std::move(value));
  return *this;
}

// ------------------------------------------------------------------ writer

namespace {

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double d) {
  if (!std::isfinite(d))
    throw JsonError("json: cannot serialise non-finite number");
  // Integers within the exact-double range print without a decimal point.
  const double r = std::nearbyint(d);
  if (r == d && std::fabs(d) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(r));
    out += buf;
    return;
  }
  // Shortest representation that round-trips (locale-independent).
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), d);
  out.append(buf, res.ptr);
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::null: out += "null"; break;
    case Type::boolean: out += bool_ ? "true" : "false"; break;
    case Type::number: dump_number(out, num_); break;
    case Type::string: dump_string(out, str_); break;
    case Type::array: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        if (pretty) newline_pad(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) newline_pad(depth);
      out += ']';
      break;
    }
    case Type::object: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out += ',';
        if (pretty) newline_pad(depth + 1);
        dump_string(out, obj_[i].first);
        out += pretty ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      if (pretty) newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ------------------------------------------------------------------ parser

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError("json parse error at line " + std::to_string(line) +
                    ", column " + std::to_string(col) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void expect_word(const char* word) {
    for (const char* p = word; *p != '\0'; ++p)
      if (pos_ >= text_.size() || text_[pos_++] != *p)
        fail(std::string("invalid literal (expected \"") + word + "\")");
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': expect_word("true"); return Json(true);
      case 'f': expect_word("false"); return Json(false);
      case 'n': expect_word("null"); return Json(nullptr);
      default: return parse_number();
    }
  }

  /// One open array/object for its lifetime; throws past kMaxJsonDepth,
  /// before the recursion it bounds can overflow the stack.
  class Nesting {
   public:
    explicit Nesting(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxJsonDepth)
        parser_.fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                     " levels");
    }
    ~Nesting() { --parser_.depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    Parser& parser_;
  };

  Json parse_object() {
    const Nesting level(*this);
    expect('{');
    JsonObject members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      for (const auto& [k, v] : members)
        if (k == key) fail("duplicate object key \"" + key + "\"");
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Json(std::move(members));
  }

  Json parse_array() {
    const Nesting level(*this);
    expect('[');
    JsonArray items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Json(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: --pos_; fail("invalid escape character");
      }
    }
    return out;
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9')
        cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        cp |= static_cast<unsigned>(c - 'A' + 10);
      else
        fail("invalid hex digit in \\u escape");
    }
    if (cp >= 0xd800 && cp <= 0xdfff)
      fail("surrogate \\u escapes are not supported");
    // UTF-8 encode the basic-plane code point.
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      fail("invalid number");
    const bool leading_zero = text_[pos_] == '0';
    ++pos_;
    if (leading_zero && pos_ < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_])))
      fail("leading zeros are not allowed");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("digit required after decimal point");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("digit required in exponent");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    double value = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_)
      fail("unrepresentable number");
    return Json(value);
  }

  const std::string& text_;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

namespace {

Json canonicalized(const Json& j) {
  switch (j.type()) {
    case Json::Type::array: {
      Json out = Json::array();
      for (const Json& v : j.as_array()) out.push_back(canonicalized(v));
      return out;
    }
    case Json::Type::object: {
      JsonObject members;
      for (const auto& [k, v] : j.as_object())
        members.emplace_back(k, canonicalized(v));
      std::sort(members.begin(), members.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      return Json(std::move(members));
    }
    default:
      return j;
  }
}

}  // namespace

std::string canonical_dump(const Json& value) {
  return canonicalized(value).dump(-1);
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return Json::parse(buf.str());
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

void write_json_file(const std::string& path, const Json& value, int indent) {
  std::string payload = value.dump(indent);
  payload.push_back('\n');
  // Injection: `fail`/`enospc` model an unwritable artifact, `truncate`
  // leaves a torn document behind (keep_bytes of the payload).
  if (fault::armed()) {
    const fault::Fired fired = fault::check("json.write");
    if (fired.action == fault::Action::truncate ||
        fired.action == fault::Action::short_write)
      payload.resize(std::min(payload.size(), fired.keep_bytes));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << payload;
  out.flush();  // surface buffered-write failures (ENOSPC) before the check
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace clktune::util
