// Minimal JSON parser for schema checks of the exporters' output.
//
// Supports the full value grammar the exporter emits: objects, arrays,
// strings (no escapes needed), numbers, booleans. Throws on malformed
// input, so a parse failure fails the test with a position.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace scioto::testing {

struct Json {
  enum class Kind { Object, Array, String, Number, Bool, Null } kind;
  std::map<std::string, std::unique_ptr<Json>> object;
  std::vector<std::unique_ptr<Json>> array;
  std::string str;  // a string's value, or a number's exact text
  double num = 0;
  bool boolean = false;

  bool has(const std::string& key) const {
    return object.find(key) != object.end();
  }
  const Json& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key " << key;
    return *it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  std::unique_ptr<Json> parse() {
    std::unique_ptr<Json> v = value();
    skip_ws();
    check(pos_ == s_.size(), "trailing garbage");
    return v;
  }

 private:
  void check(bool ok, const char* what) {
    if (!ok) {
      ADD_FAILURE() << "JSON parse error at byte " << pos_ << ": " << what;
      throw std::runtime_error(what);
    }
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    check(pos_ < s_.size(), "unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    check(peek() == c, "unexpected character");
    ++pos_;
  }

  std::string string_lit() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      check(s_[pos_] != '\\', "escapes not expected in exporter output");
      out.push_back(s_[pos_++]);
    }
    ++pos_;
    return out;
  }

  std::unique_ptr<Json> value() {
    skip_ws();
    auto v = std::make_unique<Json>();
    char c = peek();
    if (c == '{') {
      v->kind = Json::Kind::Object;
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        std::string key = string_lit();
        skip_ws();
        expect(':');
        v->object[key] = value();
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v->kind = Json::Kind::Array;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v->array.push_back(value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v->kind = Json::Kind::String;
      v->str = string_lit();
      return v;
    }
    if (c == 't' || c == 'f') {
      v->kind = Json::Kind::Bool;
      v->boolean = c == 't';
      pos_ += v->boolean ? 4 : 5;
      check(pos_ <= s_.size(), "truncated literal");
      return v;
    }
    if (c == 'n') {
      v->kind = Json::Kind::Null;
      pos_ += 4;
      check(pos_ <= s_.size(), "truncated literal");
      return v;
    }
    v->kind = Json::Kind::Number;
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    check(pos_ > start, "expected a value");
    v->str = s_.substr(start, pos_ - start);
    v->num = std::stod(v->str);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace scioto::testing
