// The bench JSON-lines emitter writes strict JSON: every row it builds
// must parse with a strict parser and decode back to what was added,
// and every row a sink starts carries the build stamp.
#include "bench_util.h"

#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>

namespace geospanner::bench {
namespace {

/// Strict RFC 8259 parser for one object, decoding each top-level
/// member to its string content (strings) or its literal text (numbers,
/// true/false/null, nested values). nullopt on any syntax error.
class StrictJson {
  public:
    explicit StrictJson(std::string text) : s_(std::move(text)) {}

    std::optional<std::map<std::string, std::string>> object() {
        std::map<std::string, std::string> members;
        ws();
        if (!eat('{')) return std::nullopt;
        ws();
        if (eat('}')) return finish(members);
        do {
            ws();
            auto key = string();
            ws();
            if (!key || !eat(':')) return std::nullopt;
            ws();
            const std::size_t start = i_;
            std::optional<std::string> value;
            if (peek() == '"') {
                value = string();
            } else if (value_skip()) {
                value = s_.substr(start, i_ - start);
            }
            if (!value) return std::nullopt;
            members[*key] = *value;
            ws();
        } while (eat(','));
        if (!eat('}')) return std::nullopt;
        return finish(members);
    }

  private:
    std::optional<std::map<std::string, std::string>> finish(
        std::map<std::string, std::string> members) {
        ws();
        if (i_ != s_.size()) return std::nullopt;
        return members;
    }

    [[nodiscard]] char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
    bool eat(char c) {
        if (peek() != c) return false;
        ++i_;
        return true;
    }
    void ws() {
        while (peek() == ' ' || peek() == '\n' || peek() == '\r' || peek() == '\t') ++i_;
    }
    bool literal(const std::string& word) {
        if (s_.compare(i_, word.size(), word) != 0) return false;
        i_ += word.size();
        return true;
    }

    std::optional<std::string> string() {
        if (!eat('"')) return std::nullopt;
        std::string out;
        while (i_ < s_.size()) {
            const char c = s_[i_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
            if (c != '\\') {
                out += c;
                continue;
            }
            const char e = peek();
            ++i_;
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (i_ + 4 > s_.size()) return std::nullopt;
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        const auto h = static_cast<unsigned char>(s_[i_++]);
                        if (std::isxdigit(h) == 0) return std::nullopt;
                        code = code * 16 + static_cast<unsigned>(
                                               std::isdigit(h) != 0 ? h - '0'
                                                                    : std::tolower(h) - 'a' + 10);
                    }
                    if (code >= 0x80) return std::nullopt;  // ASCII is all the emitter escapes
                    out += static_cast<char>(code);
                    break;
                }
                default:
                    return std::nullopt;
            }
        }
        return std::nullopt;
    }

    bool digits() {
        if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
        while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++i_;
        return true;
    }

    bool number() {
        eat('-');
        if (!eat('0') && !digits()) return false;
        if (eat('.') && !digits()) return false;
        if (eat('e') || eat('E')) {
            if (!eat('+')) eat('-');
            if (!digits()) return false;
        }
        return true;
    }

    /// Validates any value without decoding it.
    bool value_skip() {
        ws();
        const char c = peek();
        if (c == '"') return string().has_value();
        if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            ++i_;
            ws();
            if (eat(close)) return true;
            do {
                ws();
                if (close == '}') {
                    if (!string()) return false;
                    ws();
                    if (!eat(':')) return false;
                }
                if (!value_skip()) return false;
                ws();
            } while (eat(','));
            return eat(close);
        }
        if (literal("true") || literal("false") || literal("null")) return true;
        return number();
    }

    std::string s_;
    std::size_t i_ = 0;
};

TEST(BenchJson, EscapedKeysAndNonFiniteValuesRoundTrip) {
    const std::string key = "say \"hi\" \\ path\n\x01";
    JsonObject obj;
    obj.add(key, std::string("tab\there \"quoted\""))
        .add("nan", std::numeric_limits<double>::quiet_NaN())
        .add("inf", -std::numeric_limits<double>::infinity())
        .add("ratio", 1.5)
        .add("count", std::size_t{3})
        .raw("stages", "[{\"name\":\"udg\",\"wall_ms\":2.5}]");

    const auto parsed = StrictJson(obj.str()).object();
    ASSERT_TRUE(parsed.has_value()) << obj.str();
    const std::map<std::string, std::string> want = {
        {key, "tab\there \"quoted\""},
        {"nan", "null"},
        {"inf", "null"},
        {"ratio", "1.5"},
        {"count", "3"},
        {"stages", "[{\"name\":\"udg\",\"wall_ms\":2.5}]"},
    };
    EXPECT_EQ(*parsed, want);
}

TEST(BenchJson, ParserRejectsWhatTheOldEmitterWrote) {
    // The pre-escaping emitter produced these; the parser must refuse
    // them, or the round-trip test above would prove nothing.
    EXPECT_FALSE(StrictJson("{\"nan\":nan}").object().has_value());
    EXPECT_FALSE(StrictJson("{\"k\":\"a\"b\"}").object().has_value());
    EXPECT_FALSE(StrictJson("{\"k\":\"line\nbreak\"}").object().has_value());
    EXPECT_TRUE(StrictJson("{\"k\":\"ok\",\"n\":-0.5e3}").object().has_value());
}

TEST(BenchJson, SinkRowsCarryTheBuildStamp) {
    const JsonSink sink("stamp_test");
    auto obj = sink.row();
    obj.add("wall_ms", 2.0);
    const auto parsed = StrictJson(obj.str()).object();
    ASSERT_TRUE(parsed.has_value()) << obj.str();
    EXPECT_EQ(parsed->at("bench"), "stamp_test");
    EXPECT_EQ(parsed->at("compiler"), compiler_stamp());
    EXPECT_NE(parsed->at("compiler"), "");
    EXPECT_EQ(parsed->at("build_type"), build_type_stamp());
    EXPECT_NE(parsed->at("build_type"), "");
    EXPECT_EQ(parsed->at("hardware_threads"),
              std::to_string(std::thread::hardware_concurrency()));
    EXPECT_EQ(parsed->at("wall_ms"), "2");
}

}  // namespace
}  // namespace geospanner::bench
