// Minimal JSON document model for XLDS tooling.
//
// The framework's result files (BENCH_*.json) are hand-emitted, but the DSE
// engine also *consumes* JSON (job specs, resume metadata), which needs a
// real parser.  This is a small recursive-descent DOM: objects keep insertion
// order (so dumped documents are byte-stable and diffable across runs — the
// property the crash-safe resume CI check relies on), numbers round-trip
// through max_digits10, and parse errors throw PreconditionError with a
// line/column position.  It is deliberately not a streaming parser: every
// document XLDS handles is tiny compared to the evaluations it describes.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace xlds::util {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() noexcept : kind_(Kind::kNull) {}
  Json(bool b) noexcept : kind_(Kind::kBool), bool_(b) {}           // NOLINT(google-explicit-constructor)
  Json(double v) noexcept : kind_(Kind::kNumber), number_(v) {}     // NOLINT(google-explicit-constructor)
  Json(int v) noexcept : Json(static_cast<double>(v)) {}            // NOLINT(google-explicit-constructor)
  Json(std::size_t v) noexcept : Json(static_cast<double>(v)) {}    // NOLINT(google-explicit-constructor)
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT(google-explicit-constructor)
  Json(const char* s) : Json(std::string(s)) {}                     // NOLINT(google-explicit-constructor)

  static Json array() { Json j; j.kind_ = Kind::kArray; return j; }
  static Json object() { Json j; j.kind_ = Kind::kObject; return j; }

  /// Deepest array/object nesting parse() accepts: the parser recurses once
  /// per level, so deeper input is refused instead of overflowing the stack.
  static constexpr std::size_t kMaxParseDepth = 512;

  /// Parse a complete document; trailing non-whitespace is an error.
  /// Throws PreconditionError with a "line:col" position on malformed input,
  /// including nesting deeper than kMaxParseDepth.
  static Json parse(const std::string& text);

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Typed accessors; throw PreconditionError on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Json>& as_array() const;
  const std::vector<std::pair<std::string, Json>>& as_object() const;

  /// Object lookup: find() returns nullptr when absent, at() throws.
  const Json* find(const std::string& key) const;
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const { return find(key) != nullptr; }

  /// Convenience: member value when present, fallback otherwise.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

  /// Builders.  set() replaces an existing key in place (order preserved).
  Json& set(const std::string& key, Json value);
  Json& push_back(Json value);

  std::size_t size() const;

  /// Serialise.  indent < 0: compact single line; indent >= 0: pretty-printed
  /// with that many spaces per level.  Doubles print through max_digits10
  /// (with integral values printed as integers), so dump() is a pure function
  /// of the document — identical documents dump to identical bytes.
  std::string dump(int indent = -1) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;

  void dump_to(std::string& out, int indent, int depth) const;
};

}  // namespace xlds::util
