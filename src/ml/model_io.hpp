#pragma once
// Token-stream serialisation for trained models (ml/*, core/estimator).
//
// Every fitted parameter is a double, and the serving contract (DESIGN.md
// section 8) is that a loaded model reproduces the in-memory model's
// predictions *bitwise*. Decimal round-tripping is precision-fragile across
// locales and libc implementations, so doubles are written as the hex of
// their IEEE-754 bit pattern (a `x<16 hex digits>` token) -- exact by
// construction, CRLF-proof, and cheap to parse. Integers and identifier-like
// strings are plain whitespace-separated tokens.
//
// ModelReader never throws on malformed input: the first bad token latches
// a fail flag and every subsequent read returns a zero value, so bundle
// loaders can parse optimistically and reject once at the end (the same
// "fail loudly, never half-load" stance as flow/serialize). It reads a
// string_view of the whole text in place, splitting tokens on the C
// locale's whitespace (' ' and '\t' through '\r') as `istream >> string`
// does, and parses numbers where they lie, without copying them out.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mf {

class ModelWriter {
 public:
  explicit ModelWriter(std::ostream& out) : out_(out) {}

  void f64(double value);
  void i64(std::int64_t value);
  void u64(std::uint64_t value);
  /// Identifier-like token: must be non-empty and whitespace-free.
  void str(const std::string& token);
  /// Length-prefixed vector of doubles.
  void vec(const std::vector<double>& values);
  /// End the current line (purely cosmetic: keeps bundles diffable).
  void endl();

 private:
  std::ostream& out_;
  bool line_open_ = false;
};

class ModelReader {
 public:
  /// Reads the tokens of `text`, which must outlive the reader.
  explicit ModelReader(std::string_view text) : text_(text) {}

  [[nodiscard]] double f64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<double> vec();
  /// i64 constrained to [lo, hi]; out-of-range latches the fail flag.
  [[nodiscard]] std::int64_t i64_in(std::int64_t lo, std::int64_t hi);

  /// False once any token failed to parse; sticky.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  void fail() noexcept { ok_ = false; }

 private:
  /// Skips whitespace; false (latching the fail flag) at the end of text.
  bool skip_space();
  /// True when a token running up to `pos` ends there.
  [[nodiscard]] bool ends_token(std::size_t pos) const noexcept;
  bool next_token(std::string_view& token);
  template <typename T>
  T integer();

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace mf
