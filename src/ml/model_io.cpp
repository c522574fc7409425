#include "ml/model_io.hpp"

#include <array>
#include <charconv>
#include <cstring>
#include <limits>
#include <ostream>

#include "common/check.hpp"

namespace mf {
namespace {

constexpr std::size_t kMaxVec = 1u << 28;  // 256M doubles: corruption guard

/// The C locale's isspace: ' ', '\t', '\n', '\v', '\f', '\r'.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Value of each lowercase hex digit; -1 for every other byte.
constexpr std::array<std::int8_t, 256> kHexDigit = [] {
  std::array<std::int8_t, 256> table{};
  table.fill(-1);
  for (int d = 0; d < 10; ++d) table['0' + d] = static_cast<std::int8_t>(d);
  for (int d = 0; d < 6; ++d) table['a' + d] = static_cast<std::int8_t>(10 + d);
  return table;
}();

}  // namespace

void ModelWriter::f64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  char buf[18];
  buf[0] = 'x';
  for (int i = 0; i < 16; ++i) {
    buf[1 + i] = "0123456789abcdef"[(bits >> (60 - 4 * i)) & 0xF];
  }
  buf[17] = '\0';
  if (line_open_) out_ << ' ';
  out_ << buf;
  line_open_ = true;
}

void ModelWriter::i64(std::int64_t value) {
  if (line_open_) out_ << ' ';
  out_ << value;
  line_open_ = true;
}

void ModelWriter::u64(std::uint64_t value) {
  if (line_open_) out_ << ' ';
  out_ << value;
  line_open_ = true;
}

void ModelWriter::str(const std::string& token) {
  MF_CHECK_MSG(!token.empty() &&
                   token.find_first_of(" \t\r\n") == std::string::npos,
               "serialised string tokens must be whitespace-free");
  if (line_open_) out_ << ' ';
  out_ << token;
  line_open_ = true;
}

void ModelWriter::vec(const std::vector<double>& values) {
  u64(values.size());
  for (double v : values) f64(v);
}

void ModelWriter::endl() {
  out_ << '\n';
  line_open_ = false;
}

bool ModelReader::skip_space() {
  if (!ok_) return false;
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  if (pos_ == text_.size()) {
    ok_ = false;
    return false;
  }
  return true;
}

bool ModelReader::ends_token(std::size_t pos) const noexcept {
  return pos == text_.size() || is_space(text_[pos]);
}

bool ModelReader::next_token(std::string_view& token) {
  if (!skip_space()) return false;
  const std::size_t begin = pos_;
  while (!ends_token(pos_)) ++pos_;
  token = text_.substr(begin, pos_ - begin);
  return true;
}

template <typename T>
T ModelReader::integer() {
  if (!skip_space()) return 0;
  T value = 0;
  const auto [ptr, ec] = std::from_chars(text_.data() + pos_,
                                         text_.data() + text_.size(), value);
  pos_ = static_cast<std::size_t>(ptr - text_.data());
  if (ec != std::errc{} || !ends_token(pos_)) {
    ok_ = false;
    return 0;
  }
  return value;
}

double ModelReader::f64() {
  // The token must be exactly `x` plus 16 lowercase hex digits.
  if (!skip_space()) return 0.0;
  const std::size_t begin = pos_;
  if (text_.size() - begin < 17 || text_[begin] != 'x' ||
      !ends_token(begin + 17)) {
    ok_ = false;
    return 0.0;
  }
  std::uint64_t bits = 0;
  int invalid = 0;  // any -1 digit sets the sign bit
  for (std::size_t i = begin + 1; i < begin + 17; ++i) {
    const int digit = kHexDigit[static_cast<unsigned char>(text_[i])];
    invalid |= digit;
    bits = (bits << 4) | static_cast<std::uint64_t>(digit & 0xF);
  }
  if (invalid < 0) {
    ok_ = false;
    return 0.0;
  }
  pos_ = begin + 17;
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::int64_t ModelReader::i64() { return integer<std::int64_t>(); }

std::uint64_t ModelReader::u64() { return integer<std::uint64_t>(); }

std::string ModelReader::str() {
  std::string_view token;
  if (!next_token(token)) return {};
  return std::string(token);
}

std::vector<double> ModelReader::vec() {
  const std::uint64_t n = u64();
  if (!ok_ || n > kMaxVec) {
    ok_ = false;
    return {};
  }
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n && ok_; ++i) values.push_back(f64());
  if (!ok_) return {};
  return values;
}

std::int64_t ModelReader::i64_in(std::int64_t lo, std::int64_t hi) {
  const std::int64_t value = i64();
  if (!ok_) return lo;
  if (value < lo || value > hi) {
    ok_ = false;
    return lo;
  }
  return value;
}

}  // namespace mf
