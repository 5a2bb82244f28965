#include "telemetry/metrics_parse.hpp"

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <variant>
#include <vector>

namespace probemon::telemetry {

namespace {

// Tiny generic JSON value model — the documents are small (one push
// body), so a DOM parse keeps the extraction code readable.
struct Value;
using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;  // order kept

struct Value {
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v =
      nullptr;

  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  bool is_array() const { return std::holds_alternative<Array>(v); }
  bool is_object() const { return std::holds_alternative<Object>(v); }

  const std::string& as_string() const { return std::get<std::string>(v); }
  double as_number() const { return std::get<double>(v); }
  const Array& as_array() const { return std::get<Array>(v); }
  const Object& as_object() const { return std::get<Object>(v); }

  const Value* find(std::string_view key) const {
    for (const auto& [k, val] : as_object()) {
      if (k == key) return &val;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("metrics JSON: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value{parse_string()};
      case 't':
        if (consume_literal("true")) return Value{true};
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value{false};
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value{nullptr};
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object out;
    if (peek() == '}') {
      ++pos_;
      return Value{std::move(out)};
    }
    while (true) {
      std::string key = parse_string_at_peek();
      expect(':');
      out.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Value{std::move(out)};
  }

  Value parse_array() {
    expect('[');
    Array out;
    if (peek() == ']') {
      ++pos_;
      return Value{std::move(out)};
    }
    while (true) {
      out.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Value{std::move(out)};
  }

  std::string parse_string_at_peek() {
    if (peek() != '"') fail("expected string key");
    return parse_string();
  }

  std::string parse_string() {
    // pos_ is at the opening quote (caller peeked it).
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // Our emitter only writes \u00xx for control bytes; decode
          // BMP code points as UTF-8 for completeness.
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
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) fail("bad number '" + num + "'");
    return Value{v};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

MetricType type_from(const std::string& s) {
  if (s == "counter") return MetricType::kCounter;
  if (s == "gauge") return MetricType::kGauge;
  if (s == "histogram") return MetricType::kHistogram;
  throw std::runtime_error("metrics JSON: unknown metric type '" + s + "'");
}

/// A u64 tally read from a JSON number (counter value, histogram count
/// or bucket). Negative, non-finite and >= 2^64 values cannot be stored
/// and are rejected; in-range fractions truncate when stored.
double tally(double v, const char* what, const std::string& name) {
  if (!(v >= 0.0 && v < 18446744073709551616.0)) {
    throw std::runtime_error("metrics JSON: " + std::string(what) + " of '" +
                             name + "' is not a count in [0, 2^64)");
  }
  return v;
}

Sample sample_from(const Value& v) {
  if (!v.is_object()) {
    throw std::runtime_error("metrics JSON: metric entry is not an object");
  }
  Sample s;
  const Value* name = v.find("name");
  const Value* type = v.find("type");
  if (name == nullptr || !name->is_string() || type == nullptr ||
      !type->is_string()) {
    throw std::runtime_error(
        "metrics JSON: metric entry missing string 'name'/'type'");
  }
  s.name = name->as_string();
  s.type = type_from(type->as_string());
  if (const Value* help = v.find("help"); help != nullptr) {
    if (!help->is_string()) {
      throw std::runtime_error("metrics JSON: 'help' must be a string");
    }
    s.help = help->as_string();
  }
  if (const Value* labels = v.find("labels"); labels != nullptr) {
    if (!labels->is_object()) {
      throw std::runtime_error("metrics JSON: 'labels' must be an object");
    }
    for (const auto& [k, lv] : labels->as_object()) {
      if (!lv.is_string()) {
        throw std::runtime_error("metrics JSON: label '" + k +
                                 "' must be a string");
      }
      s.labels.emplace_back(k, lv.as_string());
    }
  }
  if (s.type != MetricType::kHistogram) {
    const Value* value = v.find("value");
    if (value == nullptr || !value->is_number()) {
      throw std::runtime_error("metrics JSON: '" + s.name +
                               "' missing numeric 'value'");
    }
    s.value = s.type == MetricType::kCounter
                  ? tally(value->as_number(), "counter value", s.name)
                  : value->as_number();
    return s;
  }
  const Value* count = v.find("count");
  const Value* sum = v.find("sum");
  const Value* bounds = v.find("bounds");
  const Value* buckets = v.find("buckets");
  if (count == nullptr || !count->is_number() || sum == nullptr ||
      !sum->is_number() || bounds == nullptr || !bounds->is_array() ||
      buckets == nullptr || !buckets->is_array()) {
    throw std::runtime_error("metrics JSON: histogram '" + s.name +
                             "' missing count/sum/bounds/buckets");
  }
  s.count = static_cast<std::uint64_t>(
      tally(count->as_number(), "histogram count", s.name));
  s.sum = sum->as_number();
  for (const Value& b : bounds->as_array()) {
    if (!b.is_number()) {
      throw std::runtime_error("metrics JSON: non-numeric bound in '" +
                               s.name + "'");
    }
    s.bounds.push_back(b.as_number());
  }
  for (const Value& b : buckets->as_array()) {
    if (!b.is_number()) {
      throw std::runtime_error("metrics JSON: non-numeric bucket in '" +
                               s.name + "'");
    }
    s.buckets.push_back(static_cast<std::uint64_t>(
        tally(b.as_number(), "histogram bucket", s.name)));
  }
  if (s.buckets.size() != s.bounds.size() + 1) {
    throw std::runtime_error("metrics JSON: histogram '" + s.name + "' has " +
                             std::to_string(s.buckets.size()) +
                             " buckets for " + std::to_string(s.bounds.size()) +
                             " bounds (want bounds+1)");
  }
  return s;
}

}  // namespace

MetricsDocument parse_metrics_json(std::string_view text) {
  const Value doc = Parser(text).parse_document();
  if (!doc.is_object()) {
    throw std::runtime_error("metrics JSON: document is not an object");
  }
  MetricsDocument out;
  if (const Value* agent = doc.find("agent"); agent != nullptr) {
    if (!agent->is_string()) {
      throw std::runtime_error("metrics JSON: 'agent' must be a string");
    }
    out.agent = agent->as_string();
  }
  if (const Value* full = doc.find("full"); full != nullptr) {
    if (!std::holds_alternative<bool>(full->v)) {
      throw std::runtime_error("metrics JSON: 'full' must be a boolean");
    }
    out.full = std::get<bool>(full->v);
  }
  const Value* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    throw std::runtime_error("metrics JSON: missing 'metrics' array");
  }
  out.samples.reserve(metrics->as_array().size());
  for (const Value& m : metrics->as_array()) {
    out.samples.push_back(sample_from(m));
  }
  return out;
}

}  // namespace probemon::telemetry
