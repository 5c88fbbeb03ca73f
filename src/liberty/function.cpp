#include "liberty/function.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace cryo::liberty {
namespace {

/// Recursive-descent parser over liberty boolean syntax, evaluating
/// directly to a bit-parallel truth table (one bit per input minterm).
class FunctionParser {
public:
  FunctionParser(const std::string& text,
                 const std::vector<std::string>& inputs)
      : text_{text}, inputs_{inputs} {
    if (inputs.size() > 6) {
      throw std::runtime_error{"function_truth_table: more than 6 inputs"};
    }
    // For n inputs the table has 2^n bits; mask of all used bits:
    const unsigned bits = 1u << inputs.size();
    mask_ = bits >= 64 ? ~0ull : ((1ull << bits) - 1ull);
  }

  std::uint64_t parse() {
    const std::uint64_t result = parse_or();
    skip_space();
    if (pos_ != text_.size()) {
      throw std::runtime_error{"function parse: trailing input in '" + text_ +
                               "'"};
    }
    return result & mask_;
  }

private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool peek_is(char c) {
    skip_space();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  std::uint64_t parse_or() {
    std::uint64_t value = parse_xor();
    while (peek_is('|') || peek_is('+')) {
      ++pos_;
      value |= parse_xor();
    }
    return value;
  }

  std::uint64_t parse_xor() {
    std::uint64_t value = parse_and();
    while (peek_is('^')) {
      ++pos_;
      value ^= parse_and();
    }
    return value;
  }

  bool factor_ahead() {
    skip_space();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    return c == '!' || c == '(' || c == '_' ||
           std::isalnum(static_cast<unsigned char>(c));
  }

  std::uint64_t parse_and() {
    std::uint64_t value = parse_factor();
    for (;;) {
      if (peek_is('&') || peek_is('*')) {
        ++pos_;
        value &= parse_factor();
      } else if (factor_ahead()) {  // juxtaposition
        value &= parse_factor();
      } else {
        break;
      }
    }
    return value;
  }

  std::uint64_t parse_factor() {
    skip_space();
    if (pos_ >= text_.size()) {
      throw std::runtime_error{"function parse: unexpected end in '" + text_ +
                               "'"};
    }
    std::uint64_t value = 0;
    const char c = text_[pos_];
    if (c == '!') {
      ++pos_;
      value = ~parse_factor() & mask_;
    } else if (c == '(') {
      ++pos_;
      value = parse_or();
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != ')') {
        throw std::runtime_error{"function parse: missing ')' in '" + text_ +
                                 "'"};
      }
      ++pos_;
    } else if (c == '0' || c == '1') {
      ++pos_;
      value = c == '1' ? mask_ : 0ull;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string name;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        name += text_[pos_++];
      }
      const auto it = std::find(inputs_.begin(), inputs_.end(), name);
      if (it == inputs_.end()) {
        throw std::runtime_error{"function parse: unknown input '" + name +
                                 "'"};
      }
      const auto var = static_cast<unsigned>(it - inputs_.begin());
      value = variable_mask(var);
    } else {
      throw std::runtime_error{"function parse: unexpected character in '" +
                               text_ + "'"};
    }
    // Postfix negation: A'
    while (peek_is('\'')) {
      ++pos_;
      value = ~value & mask_;
    }
    return value;
  }

  std::uint64_t variable_mask(unsigned var) const {
    // Bit m of the table = value for minterm m; variable `var` is true in
    // minterm m iff bit `var` of m is set.
    std::uint64_t out = 0;
    const unsigned bits = 1u << inputs_.size();
    for (unsigned m = 0; m < bits; ++m) {
      if ((m >> var) & 1u) {
        out |= 1ull << m;
      }
    }
    return out;
  }

  const std::string& text_;
  const std::vector<std::string>& inputs_;
  std::size_t pos_ = 0;
  std::uint64_t mask_ = 0;
};

}  // namespace

std::uint64_t function_truth_table(const std::string& expression,
                                   const std::vector<std::string>& inputs) {
  FunctionParser parser{expression, inputs};
  return parser.parse();
}

std::vector<std::string> function_inputs(const std::string& expression) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while (pos < expression.size()) {
    const char c = expression[pos];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string name;
      while (pos < expression.size() &&
             (std::isalnum(static_cast<unsigned char>(expression[pos])) ||
              expression[pos] == '_')) {
        name += expression[pos++];
      }
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    } else {
      ++pos;
    }
  }
  return names;
}

}  // namespace cryo::liberty
