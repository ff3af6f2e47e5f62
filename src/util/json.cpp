#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace xlds::util {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays/objects open around pos_

  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') { ++line; col = 1; } else ++col;
    }
    throw PreconditionError("JSON parse error at " + std::to_string(line) + ':' +
                            std::to_string(col) + " — " + what);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char get() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }
  void expect(char c) {
    if (get() != c) { --pos_; fail(std::string("expected '") + c + '\''); }
  }
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }
  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': return parse_nested();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_nested() {
    if (depth_ == Json::kMaxParseDepth)
      fail("nesting deeper than " + std::to_string(Json::kMaxParseDepth) + " levels");
    ++depth_;
    Json v = peek() == '{' ? parse_object() : parse_array();
    --depth_;
    return v;
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') { ++pos_; return obj; }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      const char c = get();
      if (c == '}') return obj;
      if (c != ',') { --pos_; fail("expected ',' or '}' in object"); }
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') { ++pos_; return arr; }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = get();
      if (c == ']') return arr;
      if (c != ',') { --pos_; fail("expected ',' or ']' in array"); }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = get();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) { --pos_; fail("unescaped control character"); }
      if (c != '\\') { out.push_back(c); continue; }
      c = get();
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, parse_hex4()); break;
        default: --pos_; fail("invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = get();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else { --pos_; fail("invalid \\u escape"); }
    }
    return v;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    // Surrogate pairs are not recombined — BMP coverage is all the tooling
    // needs; a lone surrogate encodes as its raw three-byte form.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid number");
    // JSON integers have no leading zeros: "0" is a complete integer part.
    if (peek() == '0') ++pos_;
    else while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("digits required after '.'");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("digits required in exponent");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return Json(std::strtod(text_.c_str() + start, nullptr));
  }
};

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    // JSON has no NaN/Inf; null is the conventional lossy stand-in.
    out += "null";
    return;
  }
  // Integral values print without a fraction (journal keys, counts); others
  // round-trip through max_digits10.  The magnitude test comes first: casting
  // a double outside long long's range is undefined behaviour.
  if (std::fabs(v) < 1e15 && v == static_cast<double>(static_cast<long long>(v))) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

bool Json::as_bool() const {
  XLDS_REQUIRE_MSG(is_bool(), "JSON value is not a bool");
  return bool_;
}

double Json::as_number() const {
  XLDS_REQUIRE_MSG(is_number(), "JSON value is not a number");
  return number_;
}

const std::string& Json::as_string() const {
  XLDS_REQUIRE_MSG(is_string(), "JSON value is not a string");
  return string_;
}

const std::vector<Json>& Json::as_array() const {
  XLDS_REQUIRE_MSG(is_array(), "JSON value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, Json>>& Json::as_object() const {
  XLDS_REQUIRE_MSG(is_object(), "JSON value is not an object");
  return object_;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  XLDS_REQUIRE_MSG(v != nullptr, "JSON object has no member '" << key << "'");
  return *v;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_number() : fallback;
}

std::string Json::string_or(const std::string& key, const std::string& fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_string() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_bool() : fallback;
}

Json& Json::set(const std::string& key, Json value) {
  XLDS_REQUIRE_MSG(is_object(), "set() on a non-object JSON value");
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  XLDS_REQUIRE_MSG(is_array(), "push_back() on a non-array JSON value");
  array_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  return 0;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, number_); break;
    case Kind::kString: append_escaped(out, string_); break;
    case Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) newline_pad(depth);
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(depth + 1);
        append_escaped(out, object_[i].first);
        out += indent < 0 ? ":" : ": ";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace xlds::util
