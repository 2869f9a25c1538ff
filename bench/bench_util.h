// Shared helpers for the benchmark harness: bench_paper's Table I and
// Figures 8-12, the ablations and the computation-cost benches. Every
// bench prints aligned-column tables; EXPERIMENTS.md records
// paper-vs-measured.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/backbone.h"
#include "core/workload.h"
#include "io/table.h"

namespace geospanner::bench {

/// Environment-tunable trial count so CI can shrink runs:
/// GS_BENCH_TRIALS overrides the default.
inline std::size_t trials_or(std::size_t default_trials) {
    if (const char* env = std::getenv("GS_BENCH_TRIALS")) {
        const auto v = std::strtoul(env, nullptr, 10);
        if (v > 0) return v;
    }
    return default_trials;
}

/// Environment-tunable node-count ceiling for the scaling benches:
/// GS_BENCH_NMAX caps (and extends) the largest instance swept, so CI
/// smoke runs and million-node soak runs share one binary.
inline std::size_t nmax_or(std::size_t default_nmax) {
    if (const char* env = std::getenv("GS_BENCH_NMAX")) {
        const auto v = std::strtoul(env, nullptr, 10);
        if (v > 0) return v;
    }
    return default_nmax;
}

/// The standard node-count ladder up to `nmax`: every rung of `ladder`
/// strictly below nmax, then nmax itself as the top rung.
inline std::vector<std::size_t> node_ladder(const std::vector<std::size_t>& ladder,
                                            std::size_t nmax) {
    std::vector<std::size_t> out;
    for (const std::size_t n : ladder) {
        if (n < nmax) out.push_back(n);
    }
    out.push_back(nmax);
    return out;
}

/// One experiment instance: a connected UDG and the full backbone built
/// with the requested engine. Seeds are derived from (base_seed, trial).
struct Instance {
    graph::GeometricGraph udg;
    core::Backbone backbone;
};

inline std::optional<Instance> make_instance(std::size_t n, double side, double radius,
                                             std::uint64_t seed, core::Engine engine) {
    core::WorkloadConfig config;
    config.node_count = n;
    config.side = side;
    config.radius = radius;
    config.seed = seed;
    auto udg = core::random_connected_udg(config);
    if (!udg) return std::nullopt;
    Instance instance{std::move(*udg), {}};
    instance.backbone = core::build_backbone(instance.udg, {engine});
    return instance;
}

/// `text` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else passed through as UTF-8 bytes.
inline std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char escaped[8];
                    std::snprintf(escaped, sizeof escaped, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += escaped;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
    return out;
}

/// Minimal flat JSON object builder for the machine-readable bench
/// trajectory (one object per run, appended as a line of JSON — easy to
/// diff across PRs and to load with any JSON-lines reader). Output is
/// strict JSON: keys and strings are escaped, finite doubles are written
/// in the shortest form that reads back to the same value, and
/// non-finite doubles (which JSON cannot represent) are written as null.
class JsonObject {
  public:
    JsonObject& add(const std::string& key, const std::string& value) {
        return raw(key, json_string(value));
    }
    JsonObject& add(const std::string& key, const char* value) {
        return add(key, std::string(value));
    }
    JsonObject& add(const std::string& key, double value) {
        if (!std::isfinite(value)) return raw(key, "null");
        char text[32];
        const auto end = std::to_chars(text, text + sizeof text, value).ptr;
        return raw(key, std::string(text, end));
    }
    JsonObject& add(const std::string& key, std::size_t value) {
        return raw(key, std::to_string(value));
    }
    /// Pre-serialized JSON value (nested object/array).
    JsonObject& raw(const std::string& key, const std::string& json_value) {
        if (!body_.empty()) body_ += ',';
        body_ += json_string(key) + ':' + json_value;
        return *this;
    }
    [[nodiscard]] std::string str() const { return '{' + body_ + '}'; }

  private:
    std::string body_;
};

/// Appends one line to `path` (created on first use). Returns false when
/// the file cannot be opened.
inline bool append_json_line(const std::string& path, const std::string& json) {
    std::ofstream out(path, std::ios::app);
    if (!out) return false;
    out << json << '\n';
    return static_cast<bool>(out);
}

/// Value of GS_BENCH_JSON: the file every bench appends its
/// machine-readable results to. Empty when unset (no JSON output).
inline std::string json_output_path() {
    const char* env = std::getenv("GS_BENCH_JSON");
    return env == nullptr ? std::string{} : std::string{env};
}

/// The compiler that built this binary and its version, e.g. "gcc 13.2.0".
inline std::string compiler_stamp() {
#if defined(__clang__)
    return "clang " + std::to_string(__clang_major__) + '.' +
           std::to_string(__clang_minor__) + '.' + std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
    return "gcc " + std::to_string(__GNUC__) + '.' + std::to_string(__GNUC_MINOR__) +
           '.' + std::to_string(__GNUC_PATCHLEVEL__);
#else
    return "unknown";
#endif
}

/// The CMake build type this binary was compiled under, "none" when the
/// tree was configured without one. GS_BUILD_TYPE comes from the build
/// files (bench/ and, for the JSON test, tests/), so a reconfigure with
/// another build type recompiles the benches with the new value.
inline std::string build_type_stamp() {
    const std::string type = GS_BUILD_TYPE;
    return type.empty() ? "none" : type;
}

/// Shared JSON-lines emitter: one sink per bench binary, stamping every
/// row with the bench name and the build it came from, and resolving
/// the output path once.
/// GS_BENCH_JSON overrides `default_path`; a bench constructed with an
/// empty default emits only when the env var is set (opt-in benches keep
/// their old semantics). Replaces the per-bench copies of the
/// path-resolution + "bench" key + append_json_line boilerplate.
class JsonSink {
  public:
    JsonSink(std::string bench_name, std::string default_path = {})
        : bench_(std::move(bench_name)) {
        const std::string env = json_output_path();
        path_ = env.empty() ? std::move(default_path) : env;
    }

    [[nodiscard]] bool enabled() const { return !path_.empty(); }
    [[nodiscard]] const std::string& path() const { return path_; }

    /// A fresh row pre-stamped with the bench name, the compiler and its
    /// version, the build type and the machine's hardware threads. The
    /// commit is left out: a stamp fixed when the tree is configured
    /// goes stale as soon as a later commit is built in the same tree.
    [[nodiscard]] JsonObject row() const {
        JsonObject obj;
        obj.add("bench", bench_)
            .add("compiler", compiler_stamp())
            .add("build_type", build_type_stamp())
            .add("hardware_threads",
                 static_cast<std::size_t>(std::thread::hardware_concurrency()));
        return obj;
    }

    /// Appends `obj` as one JSON line; no-op (returns false) when the
    /// sink is disabled.
    bool emit(const JsonObject& obj) const {
        return enabled() && append_json_line(path_, obj.str());
    }

  private:
    std::string bench_;
    std::string path_;
};

/// Running max / mean accumulator for per-instance statistics.
struct MaxAvg {
    double max = 0.0;
    double sum = 0.0;
    std::size_t count = 0;

    void add(double value) { add(value, value); }
    /// One instance whose own statistic has a maximum and a mean: `max`
    /// keeps the largest maximum, avg() averages the means.
    void add(double instance_max, double instance_mean) {
        max = std::max(max, instance_max);
        sum += instance_mean;
        ++count;
    }
    [[nodiscard]] double avg() const {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
};

}  // namespace geospanner::bench
